"""Self-tests of the benchmark: each output check fires on an injected
fault, and the traced pass leaves no wrapper installed."""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads
from pemsim.cli import write_bundle
from pemsim.engine import run_scenario
from pemsim.scenario import load_scenario


def _bundle(op, out: Path):
    result = run_scenario(op.scenario)
    write_bundle(result, out)
    return result


def _edit_csv(path: Path, row_index: int, column: str, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    rows[row_index][column] = edit(rows[row_index][column])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.fixture
def reference(tmp_path):
    scenario = replace(load_scenario(workloads.REFERENCE_SCENARIO), seed=7)
    op = workloads.Operation("reference seed 7", scenario, reference_evening=True)
    result = _bundle(op, tmp_path / "ref")
    assert checks.check_operation(op, result, tmp_path / "ref") == []
    return op, result, tmp_path / "ref"


@pytest.fixture
def fleet(tmp_path):
    op = workloads.Operation("fleet seed 5", workloads.fleet_case(5))
    result = _bundle(op, tmp_path / "fleet")
    assert checks.check_operation(op, result, tmp_path / "fleet") == []
    return op, result, tmp_path / "fleet"


def test_shaved_import_breaks_slot_conservation(reference):
    op, _, bundle = reference
    slots = checks.read_csv(bundle / "slots.csv")
    t = next(i for i, row in enumerate(slots) if float(row["imported_w"]) > 100.0)
    one_wh_w = 1.0 / op.scenario.grid.slot_hours
    _edit_csv(bundle / "slots.csv", t, "imported_w", lambda v: f"{float(v) - one_wh_w:.6f}")
    problems = checks.check_slots(checks.read_csv(bundle / "slots.csv"), op.scenario.feeder_capacity_w)
    assert problems and problems[0].startswith(f"slot {t}: consumed")


def test_hot_heater_breaks_fleet_band(fleet):
    op, _, bundle = fleet
    ceiling = op.scenario.devices[0].params.t_high_c + 1.0  # above rise of one epoch
    _edit_csv(bundle / "fleet.csv", 10, "temp_max_c", lambda v: f"{ceiling:.6f}")
    problems = checks.check_fleet(checks.read_csv(bundle / "fleet.csv"), op.scenario)
    assert problems == [problems[0]] and problems[0].startswith("epoch 10: temperatures")


def test_zeroed_cycle_slot_breaks_contiguity(reference):
    op, _, bundle = reference
    slots = checks.read_csv(bundle / "slots.csv")
    on = [i for i, row in enumerate(slots) if float(row["consumed_dishwasher_w"]) > 0]
    _edit_csv(bundle / "slots.csv", on[2], "consumed_dishwasher_w", lambda v: "0.000000")
    problems = checks.check_cycles(
        checks.read_csv(bundle / "slots.csv"),
        checks.read_csv(bundle / "requests.csv"),
        op.scenario,
    )
    assert len(problems) == 1 and problems[0].startswith("dishwasher: draws 5 slots")


def test_extra_attempt_breaks_channel_check(reference):
    op, _, bundle = reference
    rows = checks.read_csv(bundle / "channel.csv")
    meter = next(i for i, r in enumerate(rows) if r["kind"] == "meter_report")
    max_attempts = op.scenario.channels["meter"].max_attempts
    _edit_csv(bundle / "channel.csv", meter, "attempts", lambda v: str(max_attempts + 1))
    problems = checks.check_channel(checks.read_csv(bundle / "channel.csv"), op.scenario.channels)
    assert problems and problems[0] == (
        f"message {rows[meter]['msg_id']}: {max_attempts + 1} attempts, max {max_attempts}"
    )


def test_changed_byte_breaks_determinism(reference, tmp_path):
    op, _, bundle = reference
    again = tmp_path / "again"
    _bundle(op, again)
    assert checks.compare_bundles(bundle, again) == []
    data = bytearray((again / "requests.csv").read_bytes())
    data[-2] ^= 1
    (again / "requests.csv").write_bytes(bytes(data))
    assert checks.compare_bundles(bundle, again) == ["requests.csv differs between two runs of the same seed"]


def test_summary_matches_slots(reference):
    op, _, bundle = reference
    summary = json.loads((bundle / "summary.json").read_text())
    summary["imported_wh"] += 1.0
    problems = checks.check_summary(
        checks.read_csv(bundle / "slots.csv"), summary, op.scenario.grid.slot_hours
    )
    assert len(problems) == 1 and problems[0].startswith("summary imported_wh")


def test_tracer_wraps_every_route_and_uninstalls(reference, tmp_path):
    op, _, _ = reference
    assert tracing.installed_wrappers() == []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        installed = tracing.installed_wrappers()
        import pemsim.engine

        result = pemsim.engine.run_scenario(op.scenario)
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    for route in ("pemsim.engine.substream", "pemsim.core.substream", "pemsim.engine.allocate_slot"):
        assert route in installed
    assert "pemsim.server.CommitmentLedger.admit" in installed
    assert tracer.stat("server.CommitmentLedger.admit").calls == 3
    assert tracer.stat("core.substream").calls > len(result.channel)
    assert tracer.stat("engine.run_scenario").calls == 1
    assert len(tracer.spans) == tracer.span_count
    root = [s for s in tracer.spans if s[1] == "engine.run_scenario"]
    assert len(root) == 1 and root[0][4] == -1


def test_known_fault_counts_only_its_own_problems(tmp_path):
    fault = workloads.Operation(
        "thermal fault", workloads.fault_scenario(), known_fault=workloads.THERMAL_FAULT
    )
    runner = run.Runner(tmp_path, checks, iter(()))
    runner.run(fault)
    assert (runner.failed, len(runner.known), runner.unexpected) == (1, 1, [])
    other = replace(fault, known_fault=replace(workloads.THERMAL_FAULT, problems=("other",)))
    runner.run(other)
    assert runner.failed == 2 and len(runner.unexpected) == 1


def test_round_times_are_scaled_by_the_kernel(reference, tmp_path, monkeypatch):
    op, _, _ = reference
    monkeypatch.setattr(run, "kernel_s", lambda: 2e-3 * run.REFERENCE_KERNEL_MS)
    runner = run.Runner(tmp_path, checks, itertools.repeat([op]))
    assert runner.run_pass(0.0) == 1
    assert runner.scaled == [t / 2 for t in runner.times]
    assert runner.kernel_s == [2e-3 * run.REFERENCE_KERNEL_MS]
