"""Byte-identity gate for the golden cases of tests/identity.py: each case
reaches what its name claims, and each of its bundle files holds the bytes
whose SHA-256 the `cases` section of tests/identity.json pins. A change that
alters outputs on purpose re-writes the manifest with
`python tests/identity.py --write` and says which cases moved and why.
"""

import json

import pytest

from identity import CASES, MANIFEST, case_digests, moved  # puts src/ and bench/ on sys.path

from pemsim.core import Accept, Reject
from pemsim.engine import _HouseholdJob, run_scenario, summarize_run
from pemsim.scenario import ThermalConfig

PINNED = json.loads(MANIFEST.read_text())["cases"]


def test_cases_hold_what_they_claim():
    assert sum(isinstance(d, ThermalConfig) for d in CASES["feeder_5"]().devices) == 2
    assert sum(isinstance(d, ThermalConfig) for d in CASES["feeder_9"]().devices) == 2
    sauna = next(d for d in CASES["late_force_check_87"]().devices if d.device_id == "sauna")
    assert sauna.force_check_at == sauna.service_start
    lossy = run_scenario(CASES["lossy_meter_1"]()).channel
    assert any(m.delivered_at_ms is None for m in lossy)
    assert any(m.kind.value == "trip_signal" for m in lossy)
    slow = run_scenario(CASES["slow_lossy_channels_155"]())
    retried = {m.kind.value for m in slow.channel if m.attempts > 1}
    assert {"packet_request", "grant", "trip_signal"} <= retried
    # over fast channels a decision lands exactly two slots after its
    # request (request, then grant, each delivered at the next boundary)
    assert any(o.decided_slot > o.issued_slot + 2 for o in slow.requests)
    assert summarize_run(slow)["budget_violation_rates"]
    islanded = run_scenario(CASES["islanded_feeder_3"]())
    shed_kinds = {
        o.kind for o in islanded.requests
        if o.shed and any(e.device_id == o.device_id for e in islanded.shed_events)
    }
    assert shed_kinds == {"battery", "thermal", "cycle"}
    late = run_scenario(CASES["late_reject_feeder_89"]())
    (bat3,) = [o for o in late.requests if o.device_id == "bat3"]
    assert bat3.accepted and bat3.reject_reason is None and bat3.deadline_met
    cooling = run_scenario(CASES["feeder_16"]())
    (thermal,) = [o for o in cooling.requests if o.kind == "thermal"]
    assert thermal.service_failed and len(cooling.device_traces[thermal.device_id]) == cooling.grid.horizon
    for name in ("warm_feeder_71", "hot_feeder_8", "warm_slow_lossy_channels_155"):
        scenario = CASES[name]()
        nodes = [d for d in scenario.devices if isinstance(d, ThermalConfig)]
        assert nodes and all(d.initial_c > d.ambient_c for d in nodes)
        # every node is unheated in slot 0 and accepted, one is unheated
        # before its first request, and one is heated
        result = run_scenario(scenario)
        consumed = result.slots.consumed_w
        assert all(consumed[d.device_id][0] == 0.0 for d in nodes)
        assert all(o.accepted for o in result.requests if o.kind == "thermal")
        assert any(d.preheat_from > 1 for d in nodes)
        assert any(w > 0 for d in nodes for w in consumed[d.device_id])
    for name, preheat_from in (("warm_feeder_71", 5), ("hot_feeder_8", 10)):
        scenario = CASES[name]()
        (node,) = [d for d in scenario.devices if isinstance(d, ThermalConfig)]
        assert node.preheat_from == preheat_from and node.service_end < scenario.grid.horizon
    stepped = CASES["stepped_fleet_1"]()
    rated_w = stepped.devices[0].params.rated_w
    result = run_scenario(stepped)
    fleet, aggregate = result.fleet, result.slots.granted_w["fleet"]
    assert any(fleet.force_on) and any(fleet.force_off)
    assert any(a < r for a, r in zip(fleet.accepted, fleet.requests))
    assert any(
        accepted == requests and reference_w - aggregate_w >= rated_w
        for accepted, requests, reference_w, aggregate_w in zip(
            fleet.accepted, fleet.requests, fleet.reference_w, aggregate
        )
    )
    assert any(a > r for a, r in zip(aggregate, fleet.reference_w))


def test_late_reject_reaches_an_accepted_job(monkeypatch):
    """In late_reject_feeder_89 the capacity Reject of bat3's first request
    is delivered after the Accept of its re-ask."""
    kinds = []
    on_decision = _HouseholdJob.on_decision

    def record(job, decision, slot):
        if job.device_id == "bat3":
            kinds.append(type(decision))
        on_decision(job, decision, slot)

    monkeypatch.setattr(_HouseholdJob, "on_decision", record)
    run_scenario(CASES["late_reject_feeder_89"]())
    assert Accept in kinds and Reject in kinds[kinds.index(Accept) + 1:]


@pytest.mark.parametrize("name", sorted(CASES))
def test_bundle_bytes_are_pinned(tmp_path, name):
    assert moved(case_digests(CASES[name](), tmp_path), PINNED[name]) == []
