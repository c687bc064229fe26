"""Engine behavior: determinism, conservation, causality under channel
delay, emergency shedding, and the deadline guarantee on randomized
scenarios."""

import math
import random
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

from scenario_gen import null_channels, random_household_scenario, without_channels
from test_reference_household import reference_battery_need, reference_cycle_need
from test_thermal_planning import node_of, reference_step_storage, reference_step_thermal

from pemsim.comms import ChannelClass, ChannelProfile
from pemsim.core import COMPLETION_TOL_WH, MalformedRequest, TimeGrid, substream
from pemsim.cli import run_batch
from pemsim.comms import MessageKind
from pemsim.devices import StorageAsset, _absorb, _euler_temp
from pemsim import engine
from pemsim.engine import (
    RequestOutcome,
    _BatteryJob,
    _CycleJob,
    _HouseholdJob,
    _Supply,
    _ThermalJob,
    audit_conservation,
    run_scenario,
    summarize_run,
)
from pemsim.scenario import (
    BatteryConfig,
    CycleConfig,
    RenewableConfig,
    Scenario,
    ThermalConfig,
    fleet_scenario,
    scenario_from_dict,
    three_household_scenario,
)
from pemsim.server import CommitmentLedger, SupplyView, dispatch_supply

# the benchmark's generated feeders
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import mixed_feeder_doc  # noqa: E402


def _full_ev(seed, below_capacity_wh, with_channels=False):
    """The reference evening with the EV arriving at slot 4 already charged
    to `below_capacity_wh` under its capacity, within COMPLETION_TOL_WH."""
    scenario = three_household_scenario(seed=seed)
    if not with_channels:
        scenario = without_channels(scenario)
    return replace(scenario, devices=tuple(
        replace(d, initial_soc_wh=d.capacity_wh - below_capacity_wh, arrival=4)
        if isinstance(d, BatteryConfig) else d
        for d in scenario.devices
    ))


def _initial_soc_wh(cfg, seed):
    """A battery's charge when its run starts: its own, or drawn uniformly
    from [0, capacity / 2] on the device's init substream."""
    if cfg.initial_soc_wh is not None:
        return cfg.initial_soc_wh
    return substream(seed, "device", cfg.device_id, "init").uniform(0.0, cfg.capacity_wh / 2.0)


def _assert_traces_iterate_the_public_steps(scenario, result):
    """Each battery and thermal trace equals, bit for bit, the iteration of
    `_absorb` / reference_step_thermal from the device's initial state at the
    watts each slot records as granted."""
    slot_min = scenario.grid.slot_min
    for cfg in scenario.devices:
        if isinstance(cfg, CycleConfig):
            continue
        if isinstance(cfg, BatteryConfig):
            soc_wh = _initial_soc_wh(cfg, scenario.seed)
        else:
            node = node_of(cfg, cfg.initial_c)
        expected = []
        for granted in result.slots.granted_w[cfg.device_id]:
            if isinstance(cfg, BatteryConfig):
                soc_wh, _ = _absorb(soc_wh, cfg.capacity_wh, cfg.p_max_w, granted, slot_min)
                expected.append(soc_wh)
            else:
                node = reference_step_thermal(node, granted, slot_min)
                expected.append(node.temp_c)
        trace = result.device_traces[cfg.device_id]
        assert [v.hex() for v in trace] == [v.hex() for v in expected], (scenario.seed, cfg.device_id)


def _assert_storage_iterates_the_reference_step(scenario, result):
    """Each slot's storage charge equals, bit for bit, reference_step_storage
    iterated from the initial charge at the flow the slot records, and the
    step's clamp never binds on that flow. A slot without flow keeps the
    charge."""
    soc_wh = scenario.storage.soc_wh
    expected = []
    for t, flow_w in enumerate(result.slots.storage_flow_w):
        if flow_w != 0.0:
            soc_wh, flow = reference_step_storage(
                scenario.storage, soc_wh, flow_w, scenario.grid.slot_min
            )
            assert flow == flow_w, (scenario.seed, t)
        expected.append(soc_wh)
    assert list(map(repr, result.slots.storage_soc_wh)) == list(map(repr, expected)), scenario.seed


def _no_devices():
    """A 24-slot feeder without devices, under a flat 1 kW renewable trace."""
    return Scenario(
        grid=TimeGrid(epoch_start_min=0, slot_min=10, horizon=24),
        feeder_capacity_w=5000.0,
        devices=(),
        renewable=RenewableConfig(kind="trace", values_w=(1000.0,) * 24),
        seed=4,
    )


class TestBasics:
    def test_zero_devices_zero_flows(self):
        result = run_scenario(_no_devices())
        assert result.slots.consumed_total_w == [0.0] * 24
        assert result.slots.imported_w == [0.0] * 24
        assert audit_conservation(result) is None

    def test_reference_scenario_outcomes(self):
        scenario = three_household_scenario(seed=3)
        result = run_scenario(scenario)
        outcomes = {o.device_id: o for o in result.requests}
        assert all(o.accepted for o in outcomes.values())
        assert all(o.deadline_met for o in outcomes.values())
        # EV full at midnight
        assert result.final_states["ev"]["soc_wh"] == pytest.approx(30_000.0, abs=1e-6)
        # dishwasher ran one contiguous hour starting no later than 23:00
        dw = result.final_states["dishwasher"]
        assert dw["progress"] == 6
        assert dw["started_at"] <= scenario.grid.slot_of("23:00")
        # sauna at or above target across the service hour
        start = scenario.grid.slot_of("19:00")
        end = scenario.grid.slot_of("20:00")
        temps = result.device_traces["sauna"]
        boundary_temps = [temps[b - 1] for b in range(start, end + 1)]
        assert min(boundary_temps) >= 70.0 - 0.5

    def test_capacity_never_exceeded(self):
        for seed in range(20):
            scenario = random_household_scenario(seed)
            result = run_scenario(scenario)
            for granted in zip(*result.slots.granted_w.values()):
                assert math.fsum(granted) <= scenario.feeder_capacity_w + 1e-6


class TestStepEquivalence:
    @pytest.mark.parametrize("warm", [False, True], ids=["generated", "warm_start"])
    @pytest.mark.parametrize("import_allowed", [True, False])
    def test_traces_iterate_the_public_steps(self, import_allowed, warm):
        """The engine keeps a battery's charge and a thermal node's
        temperature as floats; each trace must equal, bit for bit, the
        iteration of `_absorb` / reference_step_thermal from the device's
        initial state at the watts each slot records as granted. Thermal
        nodes that start 15 C above ambient show a failed job cooling."""
        heated = failed_cooling = 0
        for seed in range(1, 41):
            scenario = random_household_scenario(seed, import_allowed=import_allowed)
            if warm:
                scenario = replace(scenario, devices=tuple(
                    replace(d, initial_c=d.ambient_c + 15.0) if isinstance(d, ThermalConfig) else d
                    for d in scenario.devices
                ))
            result = run_scenario(scenario)
            _assert_traces_iterate_the_public_steps(scenario, result)
            heated += sum(
                max(result.device_traces[cfg.device_id]) > cfg.initial_c
                for cfg in scenario.devices if isinstance(cfg, ThermalConfig)
            )
            failed_cooling += sum(
                o.kind == "thermal" and o.service_failed
                and result.device_traces[o.device_id][-1] < result.device_traces[o.device_id][0]
                for o in result.requests
            )
        assert heated >= 5
        assert failed_cooling >= (1 if warm else 0)

    def test_channel_runs_iterate_the_public_steps(self):
        """Over the reference channels a decision lands slots after its
        request, so jobs sit idle while it is in flight; their traces must
        still iterate the public steps."""
        late = 0
        for seed in range(1, 41):
            scenario = three_household_scenario(seed=seed)
            result = run_scenario(scenario)
            _assert_traces_iterate_the_public_steps(scenario, result)
            late += sum(o.decided_slot > o.issued_slot for o in result.requests)
        assert late >= 40

    @pytest.mark.parametrize("with_channels", [False, True])
    @pytest.mark.parametrize("below_capacity_wh", [0.0, 0.5])
    def test_full_battery_traces_iterate_the_public_steps(self, below_capacity_wh, with_channels):
        scenario = _full_ev(7, below_capacity_wh, with_channels)
        _assert_traces_iterate_the_public_steps(scenario, run_scenario(scenario))


    @pytest.mark.parametrize("import_allowed", [True, False])
    def test_generated_storage_iterates_the_reference_step(self, import_allowed):
        moved = 0
        for seed in range(1, 61):
            scenario = random_household_scenario(seed, import_allowed=import_allowed)
            if scenario.storage is None:
                continue
            result = run_scenario(scenario)
            _assert_storage_iterates_the_reference_step(scenario, result)
            moved += sum(flow != 0.0 for flow in result.slots.storage_flow_w)
        assert moved >= 100

    @pytest.mark.parametrize("parity", [0, 1], ids=["imports_allowed", "islanded"])
    def test_mixed_feeder_storage_iterates_the_reference_step(self, parity):
        """The benchmark's generated 24 h feeders; odd ones are islanded
        with emergency shedding on."""
        charged = discharged = 0
        for number in range(2 + parity, 42, 2):
            scenario = scenario_from_dict(mixed_feeder_doc(number))
            assert scenario.import_allowed is (parity == 0)
            result = run_scenario(scenario)
            _assert_storage_iterates_the_reference_step(scenario, result)
            charged += sum(flow > 0.0 for flow in result.slots.storage_flow_w)
            discharged += sum(flow < 0.0 for flow in result.slots.storage_flow_w)
        assert charged > 0 and discharged > 0


def _thermal_start(doc: dict, initial_c: float) -> dict:
    """A scenario document with every thermal node starting at initial_c."""
    return {**doc, "devices": [
        {**d, "initial_c": initial_c} if d["type"] == "thermal" else d for d in doc["devices"]
    ]}


def _slowed(scenario, factor=20000, loss_prob=0.2):
    """The scenario over the reference evening's channels with every mean
    delay scaled by `factor` and every loss probability set to `loss_prob`."""
    return replace(scenario, channels={
        name: replace(profile, mean_ms=profile.mean_ms * factor, loss_prob=loss_prob)
        for name, profile in three_household_scenario().channels.items()
    })


class TestIdleThermalNodes:
    def test_idle_slots_iterate_the_unheated_step(self, monkeypatch):
        """A thermal node steps through apply from its step_from until it is
        done or fails; in every other slot it is idle, and fill_trace steps
        it later. Its trace there must equal, bit for bit, _euler_temp at
        0 W iterated from the slot before (or from initial_c). Nodes start
        above ambient, so an unheated step moves them."""
        stepped = set()
        apply = _ThermalJob.apply

        def recorded(job, granted_w, now, ledger):
            stepped.add((job.device_id, now))
            return apply(job, granted_w, now, ledger)

        monkeypatch.setattr(_ThermalJob, "apply", recorded)
        scenarios = [
            scenario_from_dict(_thermal_start(mixed_feeder_doc(n), initial_c))
            for n in range(1, 11) for initial_c in (35.0, 80.0)
        ]
        scenarios += [  # a thermal job that fails (16, 30), one unheated till slot 21 (22)
            replace(scenario, devices=tuple(
                replace(d, initial_c=d.ambient_c + 15.0) if isinstance(d, ThermalConfig) else d
                for d in scenario.devices
            ))
            for scenario in map(random_household_scenario, (16, 22, 30))
        ]
        before = after_done = after_failed = 0
        for scenario in scenarios:
            stepped.clear()
            result = run_scenario(scenario)
            outcomes = {o.device_id: o for o in result.requests}
            for cfg in scenario.devices:
                if not isinstance(cfg, ThermalConfig):
                    continue
                trace = result.device_traces[cfg.device_id]
                step_from = min(cfg.preheat_from, cfg.service_start - 1)
                steps = sorted(t for device_id, t in stepped if device_id == cfg.device_id)
                # the stepped slots are one run from step_from on
                assert steps == list(range(step_from, step_from + len(steps)))
                temp = cfg.initial_c
                for t, value in enumerate(trace):
                    if (cfg.device_id, t) not in stepped:
                        temp = _euler_temp(cfg, temp, 0.0, scenario.grid.slot_min)
                        assert value.hex() == temp.hex(), (scenario.seed, cfg.device_id, t)
                    temp = value
                before += step_from > 0 and trace[0] != cfg.initial_c
                end = step_from + len(steps)
                if end < len(trace) and trace[end] != trace[end - 1]:
                    if outcomes[cfg.device_id].service_failed:
                        after_failed += 1
                    else:
                        after_done += 1
        assert before > 0 and after_done > 0 and after_failed > 0

    def test_fill_trace_iterates_the_unheated_euler_step(self):
        """fill_trace inlines _euler_temp at 0 W with its gain and loss rate
        computed once; over k idle slots it must give the k iterations of
        _euler_temp(cfg, t, 0.0, slot_min), bit for bit, from nodes above,
        below and at ambient, with tiny and large loss rates."""
        rng = random.Random(25)
        for case in range(300):
            ambient_c = rng.uniform(-10.0, 40.0)
            initial_c = [ambient_c + rng.uniform(0.1, 70.0), ambient_c - rng.uniform(0.1, 30.0),
                         ambient_c][case % 3]
            cfg = ThermalConfig(
                "node", rated_w=rng.uniform(500.0, 9000.0), target_c=60.0,
                service_start=40, service_end=48, preheat_from=20, force_check_at=30,
                capacitance_wh_per_c=rng.uniform(5.0, 500.0),
                loss_w_per_c=rng.choice([rng.uniform(1e-9, 1e-6), rng.uniform(0.5, 50.0)]),
                ambient_c=ambient_c, initial_c=initial_c, efficiency=rng.uniform(0.5, 1.0),
            )
            slot_min = rng.choice([1, 5, 10, 15, 30])
            grid = TimeGrid(epoch_start_min=0, slot_min=slot_min, horizon=48)
            job = _ThermalJob(cfg, grid, seed=1, backoff_max=3)
            first, upto = rng.randrange(0, 20), rng.randrange(20, 48)
            job.fill_trace(first)  # filled in two calls, as idle gaps are
            job.fill_trace(upto)
            temp, want = initial_c, []
            for _ in range(upto):
                temp = _euler_temp(cfg, temp, 0.0, slot_min)
                want.append(temp)
            assert [v.hex() for v in job.trace] == [v.hex() for v in want], case
            assert job.temp_c.hex() == want[-1].hex(), case


class TestFullBattery:
    @pytest.mark.parametrize("below_capacity_wh", [0.0, 0.5])
    def test_full_battery_arriving_late_completes_on_acceptance(self, below_capacity_wh):
        """A battery within COMPLETION_TOL_WH of capacity draws nothing and
        completes in the slot its Accept arrives; before the Accept it is
        parked and must not be stepped."""
        scenario = _full_ev(3, below_capacity_wh)
        scenario.validate()
        result = run_scenario(scenario)
        ev = next(o for o in result.requests if o.device_id == "ev")
        assert ev.accepted and ev.decided_slot == 4
        assert ev.completion_slot == 4 and ev.deadline_met is True
        assert all(w == 0.0 for w in result.slots.consumed_w["ev"])

    def test_full_battery_completes_when_a_delayed_accept_arrives(self):
        result = run_scenario(_full_ev(3, 0.0, with_channels=True))
        ev = next(o for o in result.requests if o.device_id == "ev")
        assert ev.accepted and ev.decided_slot > 4
        assert ev.completion_slot == ev.decided_slot and ev.deadline_met is True


def _battery_job(cfg, grid, seed=7):
    """A battery job as the engine makes it, with the outcome an Accept
    would have opened, so apply can record service and completion."""
    job = _BatteryJob(cfg, grid, seed, backoff_max=3)
    job.outcome = RequestOutcome(cfg.device_id, "battery", cfg.arrival)
    return job


def _generated_batteries():
    """(config, grid) for every battery of generated scenarios 1..60, and
    one that arrives full and one within COMPLETION_TOL_WH of full."""
    batteries = [
        (cfg, scenario.grid)
        for scenario in map(random_household_scenario, range(1, 61))
        for cfg in scenario.devices if isinstance(cfg, BatteryConfig)
    ]
    cfg, grid = batteries[0]
    batteries.append((replace(cfg, initial_soc_wh=cfg.capacity_wh), grid))
    batteries.append((replace(cfg, initial_soc_wh=cfg.capacity_wh - 0.5 * COMPLETION_TOL_WH), grid))
    return batteries


class TestBatteryNeedPlan:
    def _assert_plan_matches_formula(self, job, grid):
        cfg = job.cfg
        for now in range(cfg.arrival, cfg.deadline + 2):
            want = reference_battery_need(cfg, job.soc_wh, now, grid.slot_hours)
            assert repr(job.slot_need(now)) == repr(want), (cfg.device_id, job.soc_wh, now)

    def test_slot_need_matches_the_formula_after_every_step(self):
        """After construction and after each apply, the cached need equals
        the need recomputed from the charge, field by field, at every slot
        from arrival to one past the deadline."""
        rng = random.Random(24)
        steps = zero_steps = 0
        for cfg, grid in _generated_batteries():
            job = _battery_job(cfg, grid)
            ledger = CommitmentLedger(grid, 1e9)
            self._assert_plan_matches_formula(job, grid)
            for now in range(cfg.arrival, cfg.deadline + 2):
                granted_w = rng.choice([
                    0.0, 0.0, cfg.packet_w, 2 * cfg.packet_w, cfg.p_max_w,
                    rng.uniform(0.0, cfg.p_max_w), 2 * cfg.p_max_w,
                ])
                job.apply(granted_w, now, ledger)
                steps += 1
                zero_steps += granted_w == 0.0
                self._assert_plan_matches_formula(job, grid)
                if job.done:
                    break
        assert steps > 500 and zero_steps > 100

    def test_needs_are_built_once_per_plan(self):
        """A battery hands out the same need object while its charge holds,
        and a new one once the charge moves."""
        cfg = BatteryConfig("ev", capacity_wh=10_000.0, p_max_w=4000.0, packet_w=1000.0,
                            arrival=0, deadline=36, initial_soc_wh=0.0)
        grid = TimeGrid(epoch_start_min=0, slot_min=10, horizon=36)
        job = _battery_job(cfg, grid)  # forced from slot 21 on
        ledger = CommitmentLedger(grid, 1e9)
        willing = job.slot_need(0)
        assert willing.willing_w > 0 and job.slot_need(2) is willing
        job.apply(0.0, 0, ledger)
        assert job.slot_need(1) is willing
        job.apply(1000.0, 1, ledger)
        assert job.slot_need(2) is not willing and job.slot_need(2) is job.slot_need(3)

    def test_zero_grant_step_matches_absorb(self):
        """A 0 W step leaves the charge, the trace and the watts consumed as
        _absorb at 0 W does, down to the sign of a zero charge."""
        cfg, grid = _generated_batteries()[0]
        ledger = CommitmentLedger(grid, 1e9)
        rng = random.Random(5)
        charges = [0.0, -0.0, cfg.capacity_wh - 1.5 * COMPLETION_TOL_WH] + [
            rng.uniform(0.0, cfg.capacity_wh - COMPLETION_TOL_WH) for _ in range(50)
        ]
        for soc_wh in charges:
            job = _battery_job(replace(cfg, initial_soc_wh=soc_wh), grid)
            want_soc, absorbed_wh = _absorb(soc_wh, cfg.capacity_wh, cfg.p_max_w, 0.0, grid.slot_min)
            consumed_w = job.apply(0.0, cfg.arrival, ledger)
            assert repr(consumed_w) == repr(absorbed_wh / grid.slot_hours)
            assert repr(job.soc_wh) == repr(want_soc)
            assert [repr(v) for v in job.trace] == [repr(want_soc)]
            assert not job.done and job.outcome.first_service_slot is None

    @pytest.mark.parametrize("below_capacity_wh", [0.0, 0.5])
    def test_full_battery_finishes_at_its_first_step(self, below_capacity_wh):
        cfg, grid = _generated_batteries()[0]
        job = _battery_job(replace(cfg, initial_soc_wh=cfg.capacity_wh - below_capacity_wh), grid)
        assert job.apply(0.0, cfg.arrival, CommitmentLedger(grid, 1e9)) == 0.0
        assert job.done and job.outcome.completion_slot == cfg.arrival
        assert job.slot_need(cfg.arrival) is None


def _generated_cycles():
    """(config, grid) for every cycle of generated scenarios 1..60 and of
    the benchmark's generated feeders 1..5."""
    scenarios = [random_household_scenario(s) for s in range(1, 61)]
    scenarios += [scenario_from_dict(mixed_feeder_doc(n)) for n in range(1, 6)]
    return [
        (cfg, scenario.grid)
        for scenario in scenarios for cfg in scenario.devices if isinstance(cfg, CycleConfig)
    ]


class TestCycleNeedPlan:
    def test_slot_need_matches_a_fresh_need_at_every_slot(self):
        """A cycle builds its needs once; at every slot from its earliest
        start to its deadline, started at each slot of its window or never,
        the need it hands out must equal the one built afresh from its
        progress, field by field, and repeat one of a few objects: one per
        profile slot plus the start need."""
        waiting = at_latest = running = 0
        for cfg, grid in _generated_cycles():
            for start in [*range(cfg.earliest_start, cfg.latest_start + 1), None]:
                job = _CycleJob(cfg, grid, seed=7, backoff_max=3)
                job.outcome = RequestOutcome(cfg.device_id, "cycle", cfg.earliest_start)
                ledger = CommitmentLedger(grid, 1e9)
                handed_out = {}  # id -> need, kept alive
                for now in range(cfg.earliest_start, cfg.deadline + 1):
                    if job.done:  # a done job steps no more
                        break
                    need = job.slot_need(now)
                    want = reference_cycle_need(cfg, job.started_at, job.progress, now)
                    assert repr(need) == repr(want), (cfg.device_id, start, now)
                    if need is not None:
                        assert job.slot_need(now) is need
                        handed_out[id(need)] = need
                        waiting += need.cycle_start
                        at_latest += job.started_at is None and now == cfg.latest_start
                        running += job.started_at is not None
                    started = start is not None and now >= start
                    job.apply(cfg.profile_w[job.progress] if started else 0.0, now, ledger)
                assert len(handed_out) <= len(cfg.profile_w) + 1
                assert job.done == (start is not None)
        assert waiting > 1000 and at_latest > 100 and running > 1000


class TestAllocateSlotReadsNeeds:
    def test_allocate_slot_writes_no_need(self, monkeypatch):
        """The engine hands a job's cached needs to allocate_slot slot after
        slot, so allocate_slot must leave every need it is given as it was,
        on runs that grant forced, willing and cycle-start needs and shed."""
        real = engine.allocate_slot
        given = {}  # id -> every need object handed over, kept alive
        reused = cycle_starts = 0

        def checked(ledger, needs, *args, **kwargs):
            nonlocal reused, cycle_starts
            before = [repr(need) for need in needs]
            grants = real(ledger, needs, *args, **kwargs)
            assert [repr(need) for need in needs] == before
            reused += sum(id(need) in given for need in needs)
            cycle_starts += sum(need.cycle_start for need in needs)
            given.update((id(need), need) for need in needs)
            return grants

        monkeypatch.setattr(engine, "allocate_slot", checked)
        scenarios = [scenario_from_dict(mixed_feeder_doc(n)) for n in range(1, 6)] + [
            replace(
                random_household_scenario(s, import_allowed=False),
                policy=replace(three_household_scenario(1).policy, renewable_first=False),
            )
            for s in range(1, 31)
        ]
        shed = 0
        for scenario in scenarios:
            shed += len(run_scenario(scenario).shed_events)
        assert reused > 1000 and cycle_starts > 100 and shed > 100


class TestDeterminism:
    def test_same_seed_same_run(self):
        a = run_scenario(three_household_scenario(seed=11))
        b = run_scenario(three_household_scenario(seed=11))
        assert a.slots == b.slots
        assert a.requests == b.requests
        assert a.channel == b.channel
        assert a.device_traces == b.device_traces

    def test_batch_order_independence(self, tmp_path):
        scenario = three_household_scenario(seed=0)
        seeds = list(range(1, 11))
        _, forward = run_batch(scenario, seeds, tmp_path / "forward")
        shuffled_seeds = seeds[:]
        random.Random(9).shuffle(shuffled_seeds)
        _, shuffled = run_batch(scenario, shuffled_seeds, tmp_path / "shuffled")
        by_seed = {e["seed"]: e for e in shuffled}
        for entry in forward:
            assert by_seed[entry["seed"]] == entry

    def test_batch_of_one_equals_single_run(self, tmp_path):
        scenario = three_household_scenario(seed=0)
        code, [entry] = run_batch(scenario, [5], tmp_path)
        assert code == 0
        single = summarize_run(run_scenario(replace(scenario, seed=5)))
        assert entry["summary"] == single and entry["error"] is None


class TestConservation:
    def test_random_scenarios_clean(self):
        for seed in range(30):
            result = run_scenario(random_household_scenario(seed))
            assert audit_conservation(result) is None, f"seed {seed}"

    def test_fault_injection_detected(self):
        result = run_scenario(three_household_scenario(seed=2))
        assert audit_conservation(result) is None
        victim = next(t for t, w in enumerate(result.slots.consumed_total_w) if w > 0)
        result.slots.imported_w[victim] -= 1.0 / result.grid.slot_hours  # one watt-hour
        assert audit_conservation(result) == victim

    @pytest.mark.parametrize("field, slot", [("imported_w", 5), ("curtailed_w", 7)])
    def test_nan_in_a_slot_detected(self, field, slot):
        """Every audit test passes only a number within bounds, so a NaN
        fails it where `abs(x) > tol` would read False and pass it."""
        result = run_scenario(three_household_scenario(seed=2))
        getattr(result.slots, field)[slot] = math.nan
        assert audit_conservation(result) == slot

    def test_nan_on_a_feeder_without_devices_detected(self):
        """The audit reads the scalar columns, which hold every slot even
        where there is no device column to zip."""
        result = run_scenario(_no_devices())
        table = result.slots
        assert table.granted_w == table.consumed_w == {}
        scalars = (
            table.renewable_available_w, table.renewable_used_w, table.storage_soc_wh,
            table.storage_flow_w, table.imported_w, table.curtailed_w,
            table.consumed_total_w, table.emergency,
        )
        assert [len(column) for column in scalars] == [24] * len(scalars)
        assert audit_conservation(result) is None
        table.curtailed_w[9] = math.nan
        assert audit_conservation(result) == 9

    def test_nan_storage_flow_detected(self):
        """A NaN flow counts as a NaN discharge, not as none."""
        scenario = scenario_from_dict(mixed_feeder_doc(2))
        assert scenario.storage is not None
        result = run_scenario(scenario)
        result.slots.storage_flow_w[3] = math.nan
        assert audit_conservation(result) == 3


def _float_paths(node, path=()):
    """Paths to every float of a scenario's configs: a field, or the first
    item of a tuple of floats, through nested configs, device tuples and
    the channel dict."""
    if isinstance(node, float):
        yield path
    elif is_dataclass(node):
        for f in fields(node):
            yield from _float_paths(getattr(node, f.name), path + (f.name,))
    elif isinstance(node, tuple) and node:
        if isinstance(node[0], float):
            yield path + (0,)
        else:
            for i, item in enumerate(node):
                yield from _float_paths(item, path + (i,))
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from _float_paths(value, path + (key,))


def _with(node, path, value):
    """`node` with the value at `path` replaced; each config on the way is
    built anew, so its own checks run."""
    if not path:
        return value
    key, rest = path[0], path[1:]
    if is_dataclass(node):
        return replace(node, **{key: _with(getattr(node, key), rest, value)})
    if isinstance(node, tuple):
        return node[:key] + (_with(node[key], rest, value),) + node[key + 1:]
    return {**node, key: _with(node[key], rest, value)}


class TestNonFiniteInput:
    """The file codec refuses NaN and infinities; a scenario built in Python
    is refused as well, by its config's checks or by validate, with an error
    naming the field, before a run starts."""

    @pytest.mark.parametrize(
        "scenario",
        [
            three_household_scenario(seed=1),
            scenario_from_dict(mixed_feeder_doc(3)),  # islanded, with storage
            fleet_scenario(count=10, hours=1.0),
        ],
        ids=["reference", "mixed_feeder", "fleet"],
    )
    def test_every_float_field_refuses_nan_and_infinities(self, scenario):
        scenario.validate()
        paths = list(_float_paths(scenario))
        assert len(paths) > 10
        for path in paths:
            name = next(key for key in reversed(path) if isinstance(key, str))
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(MalformedRequest, match=f"{name}(\\[0\\])? must be finite"):
                    _with(scenario, path, bad).validate()

    @pytest.mark.parametrize("device_id, field", [("sauna", "packet_w"), ("ev", "initial_soc_wh")])
    def test_optional_float_fields(self, device_id, field):
        scenario = three_household_scenario(seed=1)
        index = next(i for i, d in enumerate(scenario.devices) if d.device_id == device_id)
        assert getattr(scenario.devices[index], field) is None
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(MalformedRequest, match=f"{device_id}.{field} must be finite"):
                _with(scenario, ("devices", index, field), bad).validate()


class TestSupplySettle:
    def test_records_name_every_field(self):
        """_Supply.view and dispatch_supply build their records
        positionally, and _Supply.settle appends to the slot table's
        columns; each field and column is checked by name, on slots that
        charge, discharge, import, curtail and run in emergency mode, with
        values that tell every field apart."""
        grid = TimeGrid(epoch_start_min=1080, slot_min=15, horizon=8)
        storage = StorageAsset(soc_wh=2000.0, capacity_wh=10_000.0,
                               p_charge_max_w=1500.0, p_discharge_max_w=400.0, efficiency=0.5)
        renewable = (3000.0, 500.0, 0.0, 3000.0, 1000.0, 0.0, 0.0, 0.0)
        scenario = Scenario(
            grid=grid, feeder_capacity_w=9000.0, devices=(), storage=storage,
            renewable=RenewableConfig(kind="trace", values_w=renewable), seed=3,
        )
        supply_side = _Supply(scenario)
        view = supply_side.view(0)
        assert view.renewable_w == 3000.0 and view.feeder_capacity_w == 9000.0
        assert view.discharge_max_w == 400.0 and view.charge_max_w == 1500.0
        assert view.import_allowed is True
        # (view, consumed, emergency) -> (renewable used, flow, imported,
        # curtailed, charge after); slot_h is 0.25 and every value exact
        slots = [
            # charges 1500 W at half efficiency, curtails the rest
            (SupplyView(3000.0, 400.0, 1500.0, True, 9000.0), 1000.0, False,
             (1000.0, 1500.0, 0.0, 500.0, 2187.5)),
            # discharges, then imports the rest
            (SupplyView(500.0, 400.0, 1500.0, True, 9000.0), 1200.0, False,
             (500.0, -400.0, 300.0, 0.0, 2087.5)),
            # imports all of it
            (SupplyView(0.0, 0.0, 0.0, True, 9000.0), 2000.0, False,
             (0.0, 0.0, 2000.0, 0.0, 2087.5)),
            # curtails all the surplus, storage full for the slot
            (SupplyView(3000.0, 400.0, 0.0, True, 9000.0), 1000.0, False,
             (1000.0, 0.0, 0.0, 2000.0, 2087.5)),
            # islanded emergency slot served by renewables and discharge
            (SupplyView(1000.0, 400.0, 1500.0, False, 9000.0), 1400.0, True,
             (1000.0, -400.0, 0.0, 0.0, 1987.5)),
        ]
        for t, (view, consumed_w, emergency, want) in enumerate(slots):
            renewable_used_w, flow_w, imported_w, curtailed_w, soc_wh = want
            plan = dispatch_supply(consumed_w, view)
            assert plan.renewable_used_w == renewable_used_w, t
            assert plan.storage_flow_w == flow_w, t
            assert plan.imported_w == imported_w, t
            assert plan.curtailed_w == curtailed_w, t
            supply_side.settle(view, consumed_w, emergency)
            table = supply_side.table
            assert table.renewable_available_w[t] == view.renewable_w, t
            assert table.renewable_used_w[t] == renewable_used_w, t
            assert table.storage_soc_wh[t] == soc_wh, t
            assert table.storage_flow_w[t] == flow_w, t
            assert table.imported_w[t] == imported_w, t
            assert table.curtailed_w[t] == curtailed_w, t
            assert table.consumed_total_w[t] == consumed_w, t
            assert table.emergency[t] is emergency, t
            assert len(table.emergency) == t + 1
        assert supply_side.soc_wh == 1987.5
        assert table.granted_w == table.consumed_w == {}


class TestNullChannelEquivalence:
    def test_zero_channel_matches_disabled(self):
        for seed in (1, 7, 19):
            disabled = without_channels(three_household_scenario(seed=seed))
            zeroed = replace(disabled, channels=null_channels())
            a = run_scenario(disabled)
            b = run_scenario(zeroed)
            assert a.slots == b.slots
            assert a.requests == b.requests
            assert a.device_traces == b.device_traces
            assert a.final_states == b.final_states
            assert not a.channel and b.channel  # only the log differs


class TestCausality:
    def test_no_consumption_before_grant_delivery(self):
        # constant 1.5-slot channel delay on both legs: the request issued at
        # slot 0 reaches the server at slot 2, the grant reaches the device
        # at slot 4; nothing may be consumed earlier
        slow = ChannelProfile(
            cls=ChannelClass.URLLC, offset_ms=900_000.0, mean_ms=900_000.0,
            loss_prob=0.0, retransmit_timeout_ms=0.0, max_attempts=1,
        )
        grid = TimeGrid(epoch_start_min=0, slot_min=10, horizon=24)
        scenario = Scenario(
            grid=grid,
            feeder_capacity_w=8000.0,
            devices=(
                BatteryConfig(
                    device_id="ev", capacity_wh=10_000.0, p_max_w=5000.0,
                    arrival=0, deadline=24, initial_soc_wh=0.0,
                ),
            ),
            renewable=RenewableConfig(kind="trace", values_w=(8000.0,) * 24),
            channels={"request": slow, "grant": slow, "meter": slow, "trip": slow},
            seed=5,
        )
        result = run_scenario(scenario)
        outcome = result.requests[0]
        assert outcome.accepted
        assert outcome.decided_slot == 4
        assert outcome.first_service_slot == 4
        assert result.slots.consumed_w["ev"][:4] == [0.0] * 4


class TestRenewableMonotonicity:
    def test_more_renewable_never_more_import(self):
        grid = TimeGrid(epoch_start_min=0, slot_min=10, horizon=36)
        base_values = tuple(random.Random(8).uniform(0.0, 3000.0) for _ in range(36))
        for seed in range(5):
            devices = (
                BatteryConfig(device_id="b", capacity_wh=12_000.0, p_max_w=4000.0,
                              arrival=0, deadline=36, initial_soc_wh=0.0),
                CycleConfig(device_id="c", profile_w=(1500.0,) * 4,
                            earliest_start=4, deadline=30),
            )
            def build(values):
                return Scenario(
                    grid=grid, feeder_capacity_w=8000.0, devices=devices,
                    renewable=RenewableConfig(kind="trace", values_w=values),
                    seed=seed,
                )
            lo = run_scenario(build(base_values))
            hi = run_scenario(build(tuple(v + 1000.0 for v in base_values)))
            imported_lo = math.fsum(lo.slots.imported_w)
            imported_hi = math.fsum(hi.slots.imported_w)
            assert imported_hi <= imported_lo + 1e-6


class TestEmergencyMode:
    def _island(self, shedding=True, renewable_first=True):
        grid = TimeGrid(epoch_start_min=0, slot_min=10, horizon=24)
        return Scenario(
            grid=grid,
            feeder_capacity_w=6000.0,
            devices=(
                BatteryConfig(device_id="b", capacity_wh=8000.0, p_max_w=4000.0,
                              arrival=0, deadline=24, initial_soc_wh=0.0, priority=2),
                CycleConfig(device_id="c", profile_w=(1000.0,) * 3,
                            earliest_start=0, deadline=20, priority=1),
            ),
            renewable=RenewableConfig(kind="trace", values_w=(500.0,) * 24),
            import_allowed=False,
            policy=replace(
                three_household_scenario(1).policy,
                emergency_shedding=shedding, renewable_first=renewable_first,
            ),
            seed=3,
        )

    def test_shedding_keeps_books_clean(self):
        result = run_scenario(self._island())
        assert any(result.slots.emergency)
        assert result.shed_events
        assert all(w == 0.0 for w in result.slots.imported_w)
        assert audit_conservation(result) is None
        # sheds drop the least important job first
        assert result.shed_events[0].device_id == "b"

    def test_islanded_opportunistic_power_stays_within_local_supply(self):
        """Without renewable_first, opportunistic power is still capped at
        local supply when imports are barred: no slot before the battery's
        forced window is an emergency, and every shed cuts a job inside its
        forced window."""
        result = run_scenario(self._island(renewable_first=False))
        emergencies = [t for t, emergency in enumerate(result.slots.emergency) if emergency]
        # 8 kWh at 4 kW takes 12 slots of 10 min before the deadline at 24
        assert emergencies and emergencies[0] == 12
        forced_start = {o.device_id: o.forced_start for o in result.requests}
        assert result.shed_events
        assert all(e.slot >= forced_start[e.device_id] for e in result.shed_events)
        assert all(w == 0.0 for w in result.slots.imported_w)
        assert audit_conservation(result) is None

    def test_undersupply_raises_without_shedding(self):
        from pemsim.server import UnderSupply

        with pytest.raises(UnderSupply):
            run_scenario(self._island(shedding=False))


class TestRetryPath:
    def test_capacity_reject_retries_then_fails(self):
        grid = TimeGrid(epoch_start_min=0, slot_min=10, horizon=18)
        scenario = Scenario(
            grid=grid,
            feeder_capacity_w=5000.0,
            devices=(
                BatteryConfig(device_id="a", capacity_wh=15_000.0, p_max_w=5000.0,
                              arrival=0, deadline=18, initial_soc_wh=0.0, priority=1),
                BatteryConfig(device_id="b", capacity_wh=5000.0, p_max_w=5000.0,
                              arrival=0, deadline=18, initial_soc_wh=0.0, priority=2),
            ),
            renewable=RenewableConfig(kind="trace", values_w=(0.0,)),
            seed=12,
        )
        result = run_scenario(scenario)
        outcomes = {o.device_id: o for o in result.requests}
        assert outcomes["a"].accepted and outcomes["a"].deadline_met
        b = outcomes["b"]
        assert b.accepted is False
        assert b.retries >= 1
        assert b.service_failed

    def test_rejected_device_can_win_after_release(self):
        # the blocker finishes early opportunistically, freeing commitment
        grid = TimeGrid(epoch_start_min=0, slot_min=10, horizon=30)
        scenario = Scenario(
            grid=grid,
            feeder_capacity_w=5000.0,
            devices=(
                BatteryConfig(device_id="a", capacity_wh=5000.0, p_max_w=5000.0,
                              arrival=0, deadline=30, initial_soc_wh=0.0, priority=1),
                BatteryConfig(device_id="b", capacity_wh=5000.0, p_max_w=5000.0,
                              arrival=0, deadline=30, initial_soc_wh=0.0, priority=2),
            ),
            renewable=RenewableConfig(kind="trace", values_w=(5000.0,) * 30),
            seed=1,
        )
        result = run_scenario(scenario)
        outcomes = {o.device_id: o for o in result.requests}
        assert outcomes["a"].accepted and outcomes["a"].deadline_met
        assert outcomes["b"].accepted and outcomes["b"].deadline_met
        assert outcomes["b"].retries >= 1


class TestEmitWakeUps:
    def test_every_emit_call_sends_or_fails(self, monkeypatch):
        """Phase (2) wakes a job only from its next_emit (its first request,
        a retry after a capacity reject, or a re-ask once its wait is over),
        so each maybe_emit call sends a request or, with the window closed,
        fails the job; no call returns None to a job that lives on."""
        calls = []
        maybe_emit = _HouseholdJob.maybe_emit

        def recorded(job, now):
            request = maybe_emit(job, now)
            calls.append((request is not None, job.failed))
            return request

        monkeypatch.setattr(_HouseholdJob, "maybe_emit", recorded)
        scenarios = [scenario_from_dict(mixed_feeder_doc(n)) for n in range(1, 41)]
        for seed in range(1, 41):  # the reference evening over slow lossy channels
            scenario = three_household_scenario(seed=seed)
            slow = {
                name: replace(profile, mean_ms=profile.mean_ms * 20000, loss_prob=0.2)
                for name, profile in scenario.channels.items()
            }
            scenarios.append(replace(scenario, channels=slow))
        retried = 0
        for scenario in scenarios:
            result = run_scenario(scenario)
            retried += sum(o.retries > 0 for o in result.requests)
        assert calls.count((True, False)) + calls.count((False, True)) == len(calls)
        assert calls.count((False, True)) > 0 and retried > 0  # both paths fired

    def test_jobs_due_together_send_in_device_order(self, monkeypatch):
        """Jobs woken in one slot send their requests in device order, so
        their channel.csv message ids rise in device order. Each request is
        sent right after the maybe_emit call that returns it, so the run's
        requests pair up, in order, with its packet_request messages."""
        sent = []
        maybe_emit = _HouseholdJob.maybe_emit

        def recorded(job, now):
            request = maybe_emit(job, now)
            if request is not None:
                sent.append((now, job.device_id))
            return request

        monkeypatch.setattr(_HouseholdJob, "maybe_emit", recorded)
        together = 0
        for number in range(1, 11):
            scenario = _slowed(scenario_from_dict(mixed_feeder_doc(number)))
            order = {cfg.device_id: i for i, cfg in enumerate(scenario.devices)}
            sent.clear()
            result = run_scenario(scenario)
            messages = [m for m in result.channel if m.kind is MessageKind.PACKET_REQUEST]
            assert len(messages) == len(sent)
            slot_ms = scenario.grid.slot_ms
            by_slot = {}
            for message, (now, device_id) in zip(messages, sent):
                assert message.sent_at_ms == now * slot_ms
                by_slot.setdefault(now, []).append((message.msg_id, order[device_id]))
            for pairs in by_slot.values():
                positions = [i for _, i in sorted(pairs)]  # in message-id order
                assert positions == sorted(set(positions)), (number, pairs)
                together += len(pairs) > 1
        assert together > 0

    def test_job_filed_twice_under_a_slot_emits_once(self, monkeypatch):
        """A job is filed under its re-ask slot when it sends a request and
        under its retry slot when a capacity rejection reaches it; over slow
        channels the two can be the same slot. It still emits once there."""
        emitted, reask, twice = [], {}, []
        maybe_emit, on_decision = _HouseholdJob.maybe_emit, _HouseholdJob.on_decision

        def emit(job, now):
            request = maybe_emit(job, now)
            emitted.append((job.device_id, now))
            if request is not None:
                reask[job.device_id] = job.next_emit
            return request

        def decide(job, decision, slot):
            on_decision(job, decision, slot)
            if job.next_emit is not None and job.next_emit == reask.get(job.device_id):
                twice.append((job.device_id, job.next_emit))

        monkeypatch.setattr(_HouseholdJob, "maybe_emit", emit)
        monkeypatch.setattr(_HouseholdJob, "on_decision", decide)
        filed_twice = 0
        for number in range(1, 11):
            emitted.clear(), reask.clear(), twice.clear()
            run_scenario(_slowed(scenario_from_dict(mixed_feeder_doc(number))))
            assert len(set(emitted)) == len(emitted)
            # each such job woke at that slot, or settled before it
            filed_twice += sum(entry in emitted for entry in twice)
        assert filed_twice > 0


class TestLossyChannelRecovery:
    def test_dropped_decisions_recovered_by_reasking(self):
        # four-in-ten messages vanish outright; devices re-ask after their
        # wait and the ledger answers idempotently, so generous windows
        # still complete
        lossy = ChannelProfile(
            cls=ChannelClass.URLLC, offset_ms=1.0, mean_ms=5.0,
            loss_prob=0.4, retransmit_timeout_ms=10.0, max_attempts=1,
        )
        channels = {"request": lossy, "grant": lossy, "meter": lossy, "trip": lossy}
        completions = 0
        drops_seen = 0
        for seed in range(30):
            grid = TimeGrid(epoch_start_min=0, slot_min=10, horizon=48)
            scenario = Scenario(
                grid=grid,
                feeder_capacity_w=8000.0,
                devices=(
                    BatteryConfig(device_id="ev", capacity_wh=10_000.0, p_max_w=5000.0,
                                  arrival=0, deadline=48, initial_soc_wh=0.0),
                    CycleConfig(device_id="dw", profile_w=(1500.0,) * 3,
                                earliest_start=2, deadline=40),
                ),
                renewable=RenewableConfig(kind="trace", values_w=(4000.0,) * 48),
                channels=channels,
                seed=seed,
            )
            result = run_scenario(scenario)
            drops_seen += sum(1 for m in result.channel if m.delivered_at_ms is None)
            outcomes = {o.device_id: o for o in result.requests}
            for o in outcomes.values():
                if o.accepted and o.deadline_met:
                    completions += 1
                else:
                    # only a window that closed while every round trip was
                    # eaten may fail, and only after persistent re-asking
                    assert o.service_failed and o.retries >= 5
            assert audit_conservation(result) is None
        assert drops_seen > 50  # the loss path really fired
        assert completions >= 58  # rare persistent-loss failures only


class TestDeadlineGuarantee:
    def test_randomized_scenarios(self):
        # the central contract: every accepted job completes by its deadline,
        # for any seed, as long as imports can cover renewable shortfall
        checked_accepted = 0
        for seed in range(1000):
            scenario = random_household_scenario(seed, import_allowed=True)
            result = run_scenario(scenario)
            assert audit_conservation(result) is None, f"seed {seed}"
            for outcome in result.requests:
                if outcome.accepted:
                    checked_accepted += 1
                    assert outcome.deadline_met, (
                        f"seed {seed}: {outcome.device_id} missed its deadline"
                    )
            for granted in zip(*result.slots.granted_w.values()):
                assert math.fsum(granted) <= scenario.feeder_capacity_w + 1e-6
        assert checked_accepted > 800  # the sweep must actually exercise admissions

    # seeds of 1..3000 whose drawn charge made the saturating slot round one
    # ulp above capacity, which raised MalformedRequest mid-run
    OVERSHOOT_SEEDS = (
        5, 11, 30, 1002, 1135, 1373, 1473, 1673, 1710, 1719, 1786,
        1865, 2027, 2102, 2156, 2186, 2231, 2556, 2606, 2756, 2774, 2822,
    )

    @pytest.mark.parametrize("seed", OVERSHOOT_SEEDS)
    def test_battery_filling_in_one_slot_ends_at_capacity(self, seed):
        capacity = 1000 + 0.37 * seed
        scenario = Scenario(
            grid=TimeGrid(epoch_start_min=0, slot_min=10, horizon=12),
            feeder_capacity_w=10_000.0,
            devices=(
                BatteryConfig("ev", capacity_wh=capacity, p_max_w=7000.0,
                              packet_w=1000.0, arrival=0, deadline=12),
            ),
            renewable=RenewableConfig(kind="trace", values_w=(0.0,) * 12),
            seed=seed,
        )
        scenario.validate()
        drawn = _initial_soc_wh(scenario.devices[0], seed)
        assert drawn < capacity / 2  # the saturating slot starts below half
        result = run_scenario(scenario)
        (outcome,) = result.requests
        assert outcome.accepted and outcome.deadline_met
        assert result.final_states["ev"]["soc_wh"] == capacity
