"""The benchmark's own checks on a slice of every universe it draws from.

Each input runs as one benchmark operation does (`execute` in bench/run.py):
run_scenario, audit_conservation and write_bundle, then
bench/checks.check_operation reads the bundle back. The slice is reference
seeds 1..100, generated feeders 1..100, the fault evening and fleet seed 1,
no member skipped.
"""

import pytest

from identity import mixed  # puts src/ and bench/ on sys.path
from checks import check_operation
from workloads import Operation, fault_scenario, fleet_case

from pemsim.cli import write_bundle
from pemsim.engine import audit_conservation, run_scenario
from pemsim.scenario import three_household_scenario

# The open thermal fault (the first FOUND line of CHANGES.md):
# `server.thermal_forced_need` forces heating only from force_check_at, never
# from the admitted forced start, so these thermal jobs are accepted, not
# shed, and miss their deadline. Mending it empties this table.
THERMAL_FAULT = {
    "fault evening": ["sauna: accepted, not shed, deadline missed"],
    "feeder 4": ["th1: accepted, not shed, deadline missed"],
    "feeder 72": ["th1: accepted, not shed, deadline missed"],
    "feeder 83": ["th4: accepted, not shed, deadline missed"],
}

UNIVERSES = {
    "reference_seeds": lambda: [
        Operation(f"reference seed {s}", three_household_scenario(s), reference_evening=True)
        for s in range(1, 101)
    ],
    "feeders": lambda: [Operation(f"feeder {k}", mixed(k)) for k in range(1, 101)],
    "fault_evening": lambda: [Operation("fault evening", fault_scenario())],
    "fleet": lambda: [Operation("fleet seed 1", fleet_case(1))],
}


def problems(op, bundle):
    result = run_scenario(op.scenario)
    bad_slot = audit_conservation(result)
    write_bundle(result, bundle)
    found = check_operation(op, result, bundle)
    if bad_slot is not None:
        found.append(f"audit_conservation flags slot {bad_slot}")
    return found


@pytest.mark.parametrize("universe", sorted(UNIVERSES))
def test_benchmark_checks_pass(tmp_path, universe):
    ops = UNIVERSES[universe]()
    failed = {op.label: found for op in ops if (found := problems(op, tmp_path))}
    assert failed == {op.label: THERMAL_FAULT[op.label] for op in ops if op.label in THERMAL_FAULT}
