"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion.
"""

import math
import random
import time
from dataclasses import replace

import pytest

from scenario_gen import (
    null_channels,
    random_admission_instance,
    random_household_scenario,
    without_channels,
)
from test_server import oracle_admit_sequence

from pemsim.comms import (
    ChannelClass,
    ChannelProfile,
    Delivered,
    MessageKind,
    MessageRecord,
    audit_budget,
    sample_delay,
    transmit,
)
from pemsim.core import Accept, TimeGrid
from pemsim.cli import run_batch, write_bundle
from pemsim.engine import audit_conservation, run_scenario
from pemsim.scenario import fleet_scenario, three_household_scenario
from pemsim.server import CommitmentLedger, compute_forced_start


def _report(number: int, description: str, failures: list[str]) -> None:
    if failures:
        print(f"[FAIL] criterion {number}: {description} :: {failures[:3]}")
        pytest.fail(f"criterion {number}: {failures[:3]}")
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_1_reference_scenario_feasibility():
    failures = []
    worst_runtime = 0.0
    for seed in range(1, 101):
        scenario = three_household_scenario(seed=seed)
        t0 = time.perf_counter()
        result = run_scenario(scenario)
        worst_runtime = max(worst_runtime, time.perf_counter() - t0)
        outcomes = {o.device_id: o for o in result.requests}
        if len(outcomes) != 3 or not all(o.accepted for o in outcomes.values()):
            failures.append(f"seed {seed}: not all three requests accepted")
            continue
        if any(o.deadline_met is not True for o in outcomes.values()):
            failures.append(f"seed {seed}: deadline miss")
        start = scenario.grid.slot_of("19:00")
        end = scenario.grid.slot_of("20:00")
        temps = result.device_traces["sauna"]
        low = min(temps[b - 1] for b in range(start, end + 1))
        if low < 70.0 - 0.5:
            failures.append(f"seed {seed}: sauna dipped to {low:.2f} C in service")
    if worst_runtime >= 1.0:
        failures.append(f"slowest run took {worst_runtime:.2f} s")
    _report(
        1,
        "three-household scenario: 100 seeds accepted, no misses, sauna >= 70 C "
        f"through service (slowest run {worst_runtime * 1000:.0f} ms)",
        failures,
    )


def test_criterion_2_forced_start_derivation():
    failures = []
    grid = TimeGrid(epoch_start_min=16 * 60, slot_min=10, horizon=48)
    ev_start = compute_forced_start(9166.7, 5000.0, grid.slot_of("24:00"), grid)
    if grid.clock_of(ev_start) != "22:10":
        failures.append(f"EV forced start {grid.clock_of(ev_start)} != 22:10")
    scenario = three_household_scenario(seed=1)
    ledger = CommitmentLedger(grid, scenario.feeder_capacity_w)
    from pemsim.core import FixedProfileRequest

    dishwasher = FixedProfileRequest(
        device_id="dw", profile_w=(2000.0,) * 6,
        earliest_start=grid.slot_of("20:00"), latest_start=grid.slot_of("24:00") - 6,
        priority=1, issued_at=0,
    )
    decision = ledger.admit(dishwasher)
    if not isinstance(decision, Accept) or grid.clock_of(decision.forced_start) != "23:00":
        failures.append("dishwasher forced start != 23:00")
    _report(2, "forced starts: 9166.7 Wh @ 5 kW -> 22:10; 1-h cycle -> 23:00", failures)


def test_criterion_3_admission_oracle_equivalence():
    failures = []
    t0 = time.perf_counter()
    for seed in range(1000):
        grid, capacity, requests = random_admission_instance(seed)
        expected = oracle_admit_sequence(requests, capacity, grid)
        ledger = CommitmentLedger(grid, capacity)
        got = [isinstance(ledger.admit(r), Accept) for r in requests]
        if got != expected:
            failures.append(f"instance {seed}: {got} != {expected}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f} s >= 10 s")
    _report(
        3,
        f"admission == brute-force superposition on 1000 instances ({elapsed:.1f} s)",
        failures,
    )


def test_criterion_4_fleet_reference_tracking():
    failures = []
    t0 = time.perf_counter()
    scenario = fleet_scenario(count=1000, reference_w=1_500_000.0, hours=8.0, seed=1)
    result = run_scenario(scenario)
    elapsed = time.perf_counter() - t0
    fleet_cfg = scenario.devices[0]
    params = fleet_cfg.params
    quantum = params.rated_w

    warmup = scenario.grid.slot_of(30)  # 30 minutes of 3-minute epochs
    aggregate = result.slots.granted_w[fleet_cfg.device_id][warmup:]
    reference = result.fleet.reference_w[warmup:]
    mean_err = sum(abs(a - r) for a, r in zip(aggregate, reference)) / len(reference)
    if mean_err > quantum:
        failures.append(f"time-averaged |aggregate - reference| {mean_err:.0f} W > {quantum} W")

    dt_h = scenario.grid.slot_hours
    rise = dt_h * params.efficiency * params.rated_w / params.capacitance_wh_per_c
    hottest = params.t_high_c + rise
    worst_decay = dt_h * params.loss_w_per_c * (hottest - params.ambient_c) / params.capacitance_wh_per_c
    floor = params.t_low_c - params.override_margin_c - (params.draw_max_c + worst_decay)
    ceiling = params.t_high_c + rise
    t_min = min(result.fleet.temp_min_c)
    t_max = max(result.fleet.temp_max_c)
    if t_min < floor:
        failures.append(f"heater fell to {t_min:.2f} C below floor {floor:.2f} C")
    if t_max > ceiling:
        failures.append(f"heater rose to {t_max:.2f} C above ceiling {ceiling:.2f} C")
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f} s >= 60 s")
    _report(
        4,
        "1000-heater fleet tracks 1.5 MW within one packet quantum "
        f"(mean err {mean_err:.0f} W, temps [{t_min:.2f}, {t_max:.2f}] C, {elapsed:.1f} s)",
        failures,
    )


def test_criterion_5_conservation_suite():
    failures = []
    for seed in range(100):
        scenario = random_household_scenario(seed + 5000)
        result = run_scenario(scenario)
        bad = audit_conservation(result)
        if bad is not None:
            failures.append(f"seed {seed}: violation at slot {bad}")
    # the auditor must catch a one watt-hour corruption
    result = run_scenario(three_household_scenario(seed=1))
    victim = next(t for t, w in enumerate(result.slots.consumed_total_w) if w > 0)
    result.slots.imported_w[victim] -= 1.0 / result.grid.slot_hours
    if audit_conservation(result) != victim:
        failures.append("fault injection went undetected")
    _report(5, "energy identities hold on 100 random scenarios; 1 Wh fault detected", failures)


def test_criterion_6_channel_statistics():
    failures = []
    profile = ChannelProfile(cls=ChannelClass.URLLC, offset_ms=1.0, mean_ms=5.0,
                             loss_prob=0.001, retransmit_timeout_ms=20.0, max_attempts=7)
    rng = random.Random(2718)
    n = 100_000
    threshold = profile.offset_ms + 2 * (profile.mean_ms - profile.offset_ms)
    tail = sum(1 for _ in range(n) if sample_delay(profile, rng) > threshold) / n
    if abs(tail - math.exp(-2)) > 0.01:
        failures.append(f"tail {tail:.4f} not within 0.01 of e^-2")

    lossy = ChannelProfile(cls=ChannelClass.MMTC, offset_ms=0.0, mean_ms=1.0,
                           loss_prob=0.5, retransmit_timeout_ms=1.0, max_attempts=10_000)
    rng = random.Random(31415)
    attempts = 0
    for _ in range(n):
        outcome = transmit(0.0, lossy, rng)
        attempts += outcome.attempts
    if abs(attempts / n - 2.0) > 0.04:
        failures.append(f"mean attempts {attempts / n:.3f} not within 2% of 2")

    rng = random.Random(9999)
    records = []
    trip = three_household_scenario().channels["trip"]
    for i in range(n):
        outcome = transmit(0.0, trip, rng)
        if isinstance(outcome, Delivered):
            records.append(MessageRecord(i, MessageKind.TRIP_SIGNAL, ChannelClass.URLLC,
                                         0.0, outcome.at_ms, outcome.attempts))
    rate = audit_budget(records).get(MessageKind.TRIP_SIGNAL, 0.0)
    if rate >= 1e-3:
        failures.append(f"trip budget violation rate {rate:.2e} >= 1e-3")
    _report(
        6,
        f"channel statistics: tail {tail:.4f} ~ e^-2, mean attempts {attempts / n:.3f} ~ 2, "
        f"trip violations {rate:.1e} < 1e-3",
        failures,
    )


def test_criterion_7_null_channel_equivalence():
    failures = []
    for seed in range(1, 21):
        disabled = without_channels(three_household_scenario(seed=seed))
        zeroed = replace(disabled, channels=null_channels())
        a = run_scenario(disabled)
        b = run_scenario(zeroed)
        if not (
            a.slots == b.slots
            and a.requests == b.requests
            and a.device_traces == b.device_traces
            and a.final_states == b.final_states
        ):
            failures.append(f"seed {seed}: zero-channel run diverged")
    _report(7, "lossless zero-delay channel run identical to comms-disabled run "
               "for 20 seeds", failures)


def test_criterion_8_determinism(tmp_path):
    failures = []
    scenario = three_household_scenario(seed=23)
    bundles = []
    for name in ("a", "b"):
        result = run_scenario(scenario)
        write_bundle(result, tmp_path / name)
        bundles.append({
            f.name: f.read_bytes() for f in sorted((tmp_path / name).iterdir())
        })
    if bundles[0] != bundles[1]:
        failures.append("same-seed bundles differ byte-wise")

    seeds = list(range(1, 21))
    _, forward = run_batch(scenario, seeds, tmp_path / "forward")
    shuffled_order = seeds[:]
    random.Random(4).shuffle(shuffled_order)
    _, shuffled_entries = run_batch(scenario, shuffled_order, tmp_path / "shuffled")
    shuffled = {e["seed"]: e for e in shuffled_entries}
    if any(shuffled[e["seed"]] != e for e in forward):
        failures.append("batch results depend on execution order")
    _report(8, "identical seeds give byte-identical bundles; batch order irrelevant", failures)
