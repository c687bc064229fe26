"""Device physics: thermal node against its closed-form oracle, battery and
storage saturation, cycle contiguity, renewable traces. The thermal node is
stepped by `reference_step_thermal`, which test_thermal_planning.py pins bit
for bit to the library's Euler step. A fixed cycle is stepped by the engine's
cycle job and the storage charge by the engine's supply side, which keep
them as plain numbers. The water-heater band and request rule are tested
with the fleet loop in test_fleet.py."""

import math
import random

import pytest

from test_thermal_planning import Node, reference_step_thermal

from pemsim.core import MalformedRequest, TimeGrid, substream
from pemsim.devices import (
    StorageAsset,
    _absorb,
    decay_temp,
    min_heating_slots,
    random_walk_trace,
)
from pemsim.engine import ContiguityViolation, RequestOutcome, _CycleJob, _Supply
from pemsim.scenario import CycleConfig, RenewableConfig, Scenario
from pemsim.server import CommitmentLedger

SAUNA = Node(
    temp_c=20.0, ambient_c=20.0, capacitance_wh_per_c=60.0,
    loss_w_per_c=10.0, rated_w=3600.0,
)


def analytic_temp(state: Node, power_w: float, minutes: float) -> float:
    """Closed-form solution of the continuous first-order node."""
    u, c = state.loss_w_per_c, state.capacitance_wh_per_c
    settle = state.ambient_c + state.efficiency * power_w / u
    return settle + (state.temp_c - settle) * math.exp(-u * minutes / 60.0 / c)


class TestThermal:
    def test_single_step_no_loss(self):
        # at ambient the loss term vanishes: one 10-min step adds 10 C
        after = reference_step_thermal(SAUNA, 3600.0, 10)
        assert after.temp_c == pytest.approx(30.0, abs=1e-12)

    def test_equilibrium(self):
        assert reference_step_thermal(SAUNA, 0.0, 10).temp_c == pytest.approx(20.0)

    def test_euler_tracks_analytic_over_one_hour(self):
        state = SAUNA
        for _ in range(6):
            state = reference_step_thermal(state, 3600.0, 10)
        exact = analytic_temp(SAUNA, 3600.0, 60.0)
        assert exact == pytest.approx(75.2666, abs=1e-3)
        assert abs(state.temp_c - exact) <= 2.0

    def test_euler_error_bounded_over_eight_hours(self):
        state = SAUNA
        for n in range(1, 49):
            state = reference_step_thermal(state, 3600.0, 10)
            exact = analytic_temp(SAUNA, 3600.0, n * 10.0)
            assert abs(state.temp_c - exact) <= 2.0

    def test_convergence_monotone(self):
        # |T_n - settle| shrinks every step while dt*U/C < 2
        settle = 20.0 + 3600.0 / 10.0
        state = SAUNA
        gap = abs(state.temp_c - settle)
        for _ in range(100):
            state = reference_step_thermal(state, 3600.0, 10)
            new_gap = abs(state.temp_c - settle)
            assert new_gap < gap
            gap = new_gap

    def test_power_clamped_to_rated(self):
        boosted = reference_step_thermal(SAUNA, 99_999.0, 10)
        assert boosted.temp_c == pytest.approx(30.0)

    def test_decay_temp_matches_iterated_step_thermal(self):
        # closed form and recursion round differently; they agree to 1e-12
        rng = random.Random(5)
        for _ in range(2000):
            state = Node(
                temp_c=rng.uniform(-20.0, 95.0), ambient_c=rng.uniform(-10.0, 35.0),
                capacitance_wh_per_c=rng.uniform(20.0, 400.0),
                loss_w_per_c=rng.uniform(0.0, 20.0), rated_w=1000.0,
            )
            dt_min, steps = rng.choice([1, 3, 5, 10, 15]), rng.randint(0, 100)
            iterated = state
            for _ in range(steps):
                iterated = reference_step_thermal(iterated, 0.0, dt_min)
            scale = max(abs(state.temp_c), abs(state.ambient_c))
            assert abs(decay_temp(state, state.temp_c, steps, dt_min) - iterated.temp_c) <= 1e-12 * scale

    def test_min_heating_slots(self):
        assert min_heating_slots(SAUNA, SAUNA.temp_c, 70.0, 10) == 6
        assert min_heating_slots(SAUNA, SAUNA.temp_c, 20.0, 10) == 0
        # unreachable: steady state is 20 + 3600/10 = 380
        assert min_heating_slots(SAUNA, SAUNA.temp_c, 500.0, 10) is None


class TestBattery:
    def test_linear_integration(self):
        soc_wh, absorbed = _absorb(0.0, 30_000.0, 5000.0, 5000.0, 10)
        assert absorbed == pytest.approx(5000.0 / 6.0)
        assert soc_wh == pytest.approx(833.3333, abs=1e-3)

    def test_saturation(self):
        soc_wh, absorbed = _absorb(30_000.0, 30_000.0, 5000.0, 5000.0, 10)
        assert absorbed == 0.0
        assert soc_wh == 30_000.0

    def test_full_power_fill_time(self):
        # an empty 30 kWh battery at 5 kW takes exactly 36 ten-minute slots
        soc_wh = 0.0
        for _ in range(35):
            soc_wh, _ = _absorb(soc_wh, 30_000.0, 5000.0, 5000.0, 10)
        assert 30_000.0 - soc_wh > 800.0
        soc_wh, _ = _absorb(soc_wh, 30_000.0, 5000.0, 5000.0, 10)
        assert 30_000.0 - soc_wh == pytest.approx(0.0, abs=1e-6)

    def test_step_rejects_a_charge_out_of_bounds(self):
        # the engine keeps the charge as a float, so the step keeps the bound
        with pytest.raises(MalformedRequest, match="state of charge"):
            _absorb(-1.0, 1000.0, 800.0, 0.0, 10)

    def test_soc_bounds_random_commands(self):
        rng = random.Random(12345)
        soc_wh = 500.0
        for _ in range(10_000):
            soc_wh, _ = _absorb(soc_wh, 1000.0, 800.0, rng.uniform(0.0, 800.0), 10)
            assert 0.0 <= soc_wh <= 1000.0


def _cycle_job(profile_w, started_at=None, progress=0):
    """An accepted cycle job over `profile_w`, started at `started_at` with
    `progress` profile slots run."""
    grid = TimeGrid(epoch_start_min=0, slot_min=10, horizon=24)
    cfg = CycleConfig("washer", tuple(profile_w), earliest_start=0, deadline=24)
    job = _CycleJob(cfg, grid, seed=1, backoff_max=4)
    job.outcome = RequestOutcome("washer", "cycle", issued_slot=0, accepted=True)
    job.started_at, job.progress = started_at, progress
    return job, CommitmentLedger(grid, 10_000.0)


class TestCycle:
    def test_not_started_unchanged(self):
        job, ledger = _cycle_job((2000.0,) * 6)
        assert job.apply(0.0, 3, ledger) == 0.0
        assert (job.started_at, job.progress, job.done) == (None, 0, False)

    def test_progress_consumes_profile(self):
        job, ledger = _cycle_job((1000.0, 2000.0, 3000.0, 4000.0, 5000.0, 6000.0),
                                 started_at=0, progress=3)
        assert job.apply(4000.0, 3, ledger) == 4000.0
        assert job.progress == 4 and job.trace_value() == 4.0

    def test_uniform_cycle_total_energy(self):
        # six 2000 W slots of 10 min consume 2000 Wh in total
        job, ledger = _cycle_job((2000.0,) * 6)
        total_wh, now = 0.0, 0
        while not job.done:
            total_wh += job.apply(2000.0, now, ledger) * 10 / 60.0
            now += 1
        assert now == 6 and job.started_at == 0
        assert total_wh == pytest.approx(2000.0)
        assert job.outcome.completion_slot == 5 and job.outcome.deadline_met

    def test_contiguity_enforced(self):
        job, ledger = _cycle_job((2000.0,) * 3, started_at=5, progress=1)
        with pytest.raises(ContiguityViolation, match="started at 5 denied power at slot 6"):
            job.apply(0.0, 6, ledger)


def _supply(storage, renewable_w=0.0, slot_min=10, horizon=1):
    """The supply side of a load-free run over a flat renewable trace."""
    scenario = Scenario(
        grid=TimeGrid(epoch_start_min=0, slot_min=slot_min, horizon=horizon),
        feeder_capacity_w=1e9,
        devices=(),
        renewable=RenewableConfig(kind="trace", values_w=(renewable_w,)),
        storage=storage,
    )
    return _Supply(scenario)


def _settle(supply, t, load_w):
    """Serve `load_w` at slot t; returns the slot table, which now holds t."""
    supply.settle(supply.view(t), load_w)
    return supply.table


class TestStorage:
    def test_empty_cannot_discharge(self):
        supply = _supply(StorageAsset(soc_wh=0.0, capacity_wh=5000.0,
                                      p_charge_max_w=2000.0, p_discharge_max_w=2000.0))
        assert supply.view(0).discharge_max_w == 0.0
        table = _settle(supply, 0, 1500.0)
        assert table.storage_flow_w[0] == 0.0 and table.imported_w[0] == 1500.0
        assert supply.soc_wh == 0.0

    def test_charge_efficiency_applied_on_the_way_in(self):
        supply = _supply(StorageAsset(soc_wh=0.0, capacity_wh=5000.0, p_charge_max_w=2000.0,
                                      p_discharge_max_w=2000.0, efficiency=0.9),
                         renewable_w=1000.0, slot_min=60)
        table = _settle(supply, 0, 0.0)
        assert table.storage_flow_w[0] == pytest.approx(1000.0)
        assert supply.soc_wh == pytest.approx(900.0) == table.storage_soc_wh[0]

    def test_charge_fills_the_headroom_through_the_efficiency(self):
        # 90 Wh of headroom at 0.9 efficiency takes 100 Wh from the grid side
        supply = _supply(StorageAsset(soc_wh=4910.0, capacity_wh=5000.0, p_charge_max_w=2000.0,
                                      p_discharge_max_w=2000.0, efficiency=0.9),
                         renewable_w=1000.0, slot_min=60)
        assert supply.view(0).charge_max_w == pytest.approx(100.0)
        table = _settle(supply, 0, 0.0)
        assert table.storage_flow_w[0] == pytest.approx(100.0)
        assert table.curtailed_w[0] == pytest.approx(900.0)
        assert supply.soc_wh == pytest.approx(5000.0) and supply.soc_wh <= 5000.0

    def test_full_cannot_charge(self):
        supply = _supply(StorageAsset(soc_wh=5000.0, capacity_wh=5000.0,
                                      p_charge_max_w=2000.0, p_discharge_max_w=2000.0),
                         renewable_w=1500.0)
        assert supply.view(0).charge_max_w == 0.0
        table = _settle(supply, 0, 0.0)
        assert table.storage_flow_w[0] == 0.0 and table.curtailed_w[0] == 1500.0
        assert supply.soc_wh == 5000.0

    def test_soc_bounds_random_commands(self):
        # a random load against a random renewable trace charges and
        # discharges the store; it never leaves [0, capacity] or its limits
        rng = random.Random(777)
        supply = _supply(StorageAsset(soc_wh=2500.0, capacity_wh=5000.0, p_charge_max_w=2000.0,
                                      p_discharge_max_w=2000.0, efficiency=0.92),
                         horizon=10_000)
        supply.trace = tuple(rng.uniform(0.0, 4000.0) for _ in range(10_000))
        flows = []
        for t in range(10_000):
            table = _settle(supply, t, rng.uniform(0.0, 4000.0))
            assert 0.0 <= supply.soc_wh <= 5000.0
            assert abs(table.storage_flow_w[t]) <= 2000.0 + 1e-9
            flows.append(table.storage_flow_w[t])
        assert min(flows) < -1000.0 and max(flows) > 1000.0


class TestRenewableTrace:
    def test_same_seed_bit_identical(self):
        a = random_walk_trace(200, 3000.0, 800.0, substream(9, "renewable"))
        b = random_walk_trace(200, 3000.0, 800.0, substream(9, "renewable"))
        assert a == b and len(a) == 200

    @pytest.mark.parametrize(
        "mean_w, volatility_w",
        [(0.0, 0.0), (0.0, 300.0), (-0.0, 5.0), (3000.0, 1e-300), (3000.0, 600.0), (1000.0, 1e6)],
    )
    def test_clamp_is_min_of_max(self, mean_w, volatility_w):
        """The walk clamps with two tests; they give min(max(level, 0.0),
        ceiling) bit for bit, the sign of a zero included."""
        def reference(n_slots, rng):
            ceiling, level, values = 2.0 * mean_w, mean_w, []
            for _ in range(n_slots):
                level = min(max(level + rng.gauss(0.0, volatility_w), 0.0), ceiling)
                values.append(level)
            return values

        got = random_walk_trace(300, mean_w, volatility_w, random.Random(7))
        want = reference(300, random.Random(7))
        assert list(map(float.hex, got)) == list(map(float.hex, want))

    def test_nonnegative_and_clipped(self):
        trace = random_walk_trace(500, 1000.0, 2000.0, random.Random(4))
        assert all(0.0 <= v <= 2000.0 for v in trace)

    def test_fixed_trace_holds_its_last_value_and_is_cut_at_the_horizon(self):
        config = RenewableConfig(kind="trace", values_w=(100.0, 200.0, 300.0))
        assert config.build(5, random.Random(1)) == (100.0, 200.0, 300.0, 300.0, 300.0)
        assert config.build(2, random.Random(1)) == (100.0, 200.0)
