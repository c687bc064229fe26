"""Device physics: thermal node against its closed-form oracle, battery and
storage saturation, cycle contiguity. The thermal node is stepped by
`reference_step_thermal`, which test_thermal_planning.py pins bit for bit to
the library's Euler step. The water-heater band and request rule are tested
with the fleet loop in test_fleet.py."""

import math
import random

import pytest

from test_thermal_planning import Node, reference_step_thermal

from pemsim.core import MalformedRequest, substream
from pemsim.devices import (
    ContiguityViolation,
    FixedCycleState,
    StorageAsset,
    _absorb,
    decay_temp,
    min_heating_slots,
    random_walk_trace,
    step_cycle,
    step_storage,
)

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


class TestCycle:
    def test_not_started_unchanged(self):
        state = FixedCycleState(profile_w=(2000.0,) * 6)
        after, consumed = step_cycle(state, granted=False, now=3)
        assert after == state and consumed == 0.0

    def test_progress_consumes_profile(self):
        state = FixedCycleState(profile_w=(1000.0, 2000.0, 3000.0, 4000.0, 5000.0, 6000.0),
                                started_at=0, progress=3)
        after, consumed = step_cycle(state, granted=True, now=3)
        assert consumed == 4000.0 and after.progress == 4

    def test_uniform_cycle_total_energy(self):
        # six 2000 W slots of 10 min consume 2000 Wh in total
        state = FixedCycleState(profile_w=(2000.0,) * 6)
        total_wh, now = 0.0, 0
        while not state.finished:
            state, consumed = step_cycle(state, granted=True, now=now)
            total_wh += consumed * 10 / 60.0
            now += 1
        assert now == 6
        assert total_wh == pytest.approx(2000.0)

    def test_contiguity_enforced(self):
        state = FixedCycleState(profile_w=(2000.0,) * 3, started_at=5, progress=1)
        with pytest.raises(ContiguityViolation):
            step_cycle(state, granted=False, now=6)


class TestStorage:
    def test_empty_cannot_discharge(self):
        asset = StorageAsset(soc_wh=0.0, capacity_wh=5000.0,
                             p_charge_max_w=2000.0, p_discharge_max_w=2000.0)
        after, actual = step_storage(asset, -1500.0, 10)
        assert actual == 0.0 and after.soc_wh == 0.0

    def test_charge_efficiency_applied_on_the_way_in(self):
        asset = StorageAsset(soc_wh=0.0, capacity_wh=5000.0, p_charge_max_w=2000.0,
                             p_discharge_max_w=2000.0, efficiency=0.9)
        after, actual = step_storage(asset, 1000.0, 60)
        assert actual == pytest.approx(1000.0)
        assert after.soc_wh == pytest.approx(900.0)

    def test_full_cannot_charge(self):
        asset = StorageAsset(soc_wh=5000.0, capacity_wh=5000.0,
                             p_charge_max_w=2000.0, p_discharge_max_w=2000.0)
        after, actual = step_storage(asset, 1500.0, 10)
        assert actual == 0.0 and after.soc_wh == 5000.0

    def test_soc_bounds_random_commands(self):
        rng = random.Random(777)
        asset = StorageAsset(soc_wh=2500.0, capacity_wh=5000.0, p_charge_max_w=2000.0,
                             p_discharge_max_w=2000.0, efficiency=0.92)
        for _ in range(10_000):
            command = rng.uniform(-2000.0, 2000.0)
            asset, actual = step_storage(asset, command, 10)
            assert 0.0 <= asset.soc_wh <= asset.capacity_wh
            assert abs(actual) <= 2000.0 + 1e-9


class TestRenewableTrace:
    def test_same_seed_bit_identical(self):
        a = random_walk_trace(200, 3000.0, 800.0, substream(9, "renewable"))
        b = random_walk_trace(200, 3000.0, 800.0, substream(9, "renewable"))
        assert a.values_w == b.values_w

    def test_nonnegative_and_clipped(self):
        trace = random_walk_trace(500, 1000.0, 2000.0, random.Random(4))
        assert all(0.0 <= v <= 2000.0 for v in trace.values_w)
