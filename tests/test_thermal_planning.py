"""Thermal planning and the thermal step against reference implementations.

The reference functions below are the straightforward forms: every Euler
step and every planning probe builds a new `Node` (a node's five constants
plus its temperature) with `dataclasses.replace`, `min_heating_slots` walks
nodes, and `plan_thermal_forced_start` scans every start from
`preheat_from` up with an unbounded search. The library steps floats
through one Euler expression, probes the force-check slot first, then scans
backwards from the service start and bounds each search by the slots left;
it must give bit-identical results on every state and request below. `reference_step_storage` is the storage
asset's step in the same straightforward form, the oracle of the engine's
storage charge in test_engine.py.
"""

import random
from dataclasses import dataclass, replace

import pytest

from pemsim.core import ThermalTargetRequest, TimeGrid, WindowInfeasible
from pemsim.devices import _euler_temp, decay_temp, min_heating_slots
from pemsim.scenario import ThermalConfig
from pemsim.server import plan_thermal_forced_start, thermal_forced_need


@dataclass(frozen=True)
class Node:
    """A thermal node at one temperature; the state reference_step_thermal
    steps. The library functions take it as a node, as they take a request."""

    temp_c: float
    ambient_c: float
    capacitance_wh_per_c: float
    loss_w_per_c: float
    rated_w: float
    efficiency: float = 1.0


def node_of(source, temp_c):
    """The node of `source` (a request, a ThermalConfig or heater params) at
    `temp_c`."""
    return Node(
        temp_c=temp_c,
        ambient_c=source.ambient_c,
        capacitance_wh_per_c=source.capacitance_wh_per_c,
        loss_w_per_c=source.loss_w_per_c,
        rated_w=source.rated_w,
        efficiency=source.efficiency,
    )


def reference_step_thermal(state, applied_w, dt_min):
    power = min(max(applied_w, 0.0), state.rated_w)
    dt_h = dt_min / 60.0
    gain = dt_h * state.efficiency * power / state.capacitance_wh_per_c
    loss_rate = dt_h * state.loss_w_per_c / state.capacitance_wh_per_c
    delta = gain - loss_rate * (state.temp_c - state.ambient_c)
    return replace(state, temp_c=state.temp_c + delta)


def reference_step_storage(storage, soc_wh, command_w, dt_min):
    """One slot of the storage asset `storage` (a StorageAsset, read for its
    limits) from `soc_wh` under a signed command (positive charges): the
    command is clamped to what the limits and the charge allow over the
    whole slot, then moves the charge. Returns (new charge, actual flow)."""
    dt_h = dt_min / 60.0
    if command_w >= 0:
        headroom = (storage.capacity_wh - soc_wh) / storage.efficiency
        flow = min(command_w, min(storage.p_charge_max_w, headroom / dt_h))
        return min(storage.capacity_wh, soc_wh + flow * dt_h * storage.efficiency), flow
    power = min(-command_w, min(storage.p_discharge_max_w, soc_wh / dt_h))
    return max(0.0, soc_wh - power * dt_h), -power


def reference_min_heating_slots(state, target_c, dt_min, max_steps=10_000):
    if state.temp_c >= target_c:
        return 0
    current = state
    for n in range(1, max_steps + 1):
        nxt = reference_step_thermal(current, current.rated_w, dt_min)
        if nxt.temp_c <= current.temp_c:
            return None
        current = nxt
        if current.temp_c >= target_c:
            return n
    return None


def reference_plan_thermal_forced_start(request, grid):
    snapshot = node_of(request, request.temp_c)
    latest_feasible = None
    for t in range(request.preheat_from, request.service_start + 1):
        cold = replace(
            snapshot,
            temp_c=decay_temp(
                snapshot, snapshot.temp_c, max(0, t - request.issued_at), grid.slot_min
            ),
        )
        need = reference_min_heating_slots(cold, request.target_c, grid.slot_min)
        if need is not None and need <= request.service_start - t:
            latest_feasible = t
    if latest_feasible is None:
        raise WindowInfeasible(
            f"target {request.target_c:.1f} C unreachable by slot {request.service_start}"
        )
    return min(request.force_check_at, latest_feasible)


def reference_thermal_forced_need(temp_c, request, now, grid):
    if now < request.preheat_from or now >= request.service_end:
        return 0.0
    state = node_of(request, temp_c)
    if now >= request.service_start:
        horizon = 1
    elif now >= request.force_check_at:
        horizon = request.service_start - now
    else:
        need = reference_min_heating_slots(state, request.target_c, grid.slot_min)
        if need is not None and need >= request.service_start - now:
            return request.rated_w
        return 0.0
    if decay_temp(state, state.temp_c, horizon, grid.slot_min) < request.target_c:
        return request.rated_w
    return 0.0


def config_of(request):
    """The ThermalConfig of the node that sent `request`, starting at an
    initial temperature of its own."""
    return ThermalConfig(
        device_id=request.device_id,
        rated_w=request.rated_w,
        target_c=request.target_c,
        service_start=request.service_start,
        service_end=request.service_end,
        preheat_from=request.preheat_from,
        force_check_at=request.force_check_at,
        priority=request.priority,
        capacitance_wh_per_c=request.capacitance_wh_per_c,
        loss_w_per_c=request.loss_w_per_c,
        ambient_c=request.ambient_c,
        initial_c=request.temp_c - 7.0,
        efficiency=request.efficiency,
    )


def random_state(rng):
    return Node(
        temp_c=rng.uniform(-10.0, 95.0),
        ambient_c=rng.uniform(-10.0, 35.0),
        capacitance_wh_per_c=rng.uniform(10.0, 500.0),
        loss_w_per_c=rng.choice([0.0, rng.uniform(0.0, 40.0)]),
        rated_w=rng.uniform(300.0, 6000.0),
        efficiency=rng.choice([1.0, rng.uniform(0.5, 1.0)]),
    )


def random_target(rng, state):
    """A target below, near or above what rated power can reach."""
    if state.loss_w_per_c > 0:
        settle = state.ambient_c + state.efficiency * state.rated_w / state.loss_w_per_c
    else:
        settle = state.temp_c + 200.0
    return rng.choice(
        [
            state.temp_c - rng.uniform(0.0, 10.0),
            state.temp_c,
            rng.uniform(state.temp_c, settle),
            settle + rng.uniform(-0.5, 0.5),
            settle + rng.uniform(0.0, 50.0),
        ]
    )


def random_request(rng):
    """(grid, request): a thermal request with a node like the ones the
    scenarios use, often one that cannot reach its target in time."""
    slot_min = rng.choice([5, 10, 15])
    horizon = rng.randint(8, 96)
    grid = TimeGrid(epoch_start_min=0, slot_min=slot_min, horizon=horizon)
    service_start = rng.randint(1, horizon - 1)
    service_end = rng.randint(service_start + 1, horizon)
    preheat = rng.randint(0, service_start)
    check = rng.randint(preheat, service_start)
    ambient = rng.uniform(0.0, 25.0)
    request = ThermalTargetRequest(
        device_id="th",
        target_c=rng.uniform(ambient - 5.0, 95.0),
        service_start=service_start,
        service_end=service_end,
        preheat_from=preheat,
        force_check_at=check,
        rated_w=rng.uniform(1000.0, 6000.0),
        priority=2,
        issued_at=rng.randint(0, service_start),
        temp_c=rng.uniform(ambient, 90.0),
        ambient_c=ambient,
        capacitance_wh_per_c=rng.uniform(30.0, 300.0),
        loss_w_per_c=rng.uniform(0.0, 25.0),
        efficiency=rng.choice([1.0, rng.uniform(0.6, 1.0)]),
    )
    return grid, request


def _planned(plan, request, grid):
    try:
        return plan(request, grid)
    except WindowInfeasible as exc:
        return ("infeasible", str(exc))


class TestEulerStep:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_step_thermal_is_the_scalar_step(self, seed):
        """reference_step_thermal, the oracle of the other test modules, is
        the library's one Euler step at the clamped power, bit for bit."""
        rng = random.Random(seed)
        for _ in range(2000):
            state = random_state(rng)
            applied = rng.choice([0.0, -50.0, state.rated_w, rng.uniform(0.0, 2 * state.rated_w)])
            dt_min = rng.choice([1, 3, 5, 10, 15, 30])
            stepped = reference_step_thermal(state, applied, dt_min)
            power = min(max(applied, 0.0), state.rated_w)
            assert stepped.temp_c == _euler_temp(state, state.temp_c, power, dt_min)


class TestMinHeatingSlots:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_reference(self, seed):
        rng = random.Random(seed)
        outcomes = set()
        for _ in range(1000):
            state = random_state(rng)
            target = random_target(rng, state)
            dt_min = rng.choice([1, 3, 5, 10, 15, 30])
            max_steps = rng.choice([10_000, rng.randint(0, 40)])
            got = min_heating_slots(state, state.temp_c, target, dt_min, max_steps)
            assert got == reference_min_heating_slots(state, target, dt_min, max_steps)
            outcomes.add("none" if got is None else "zero" if got == 0 else "some")
        assert outcomes == {"none", "zero", "some"}


class TestPlanning:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_forced_start_matches_reference(self, seed):
        rng = random.Random(seed)
        infeasible = planned = 0
        for _ in range(500):
            grid, request = random_request(rng)
            got = _planned(plan_thermal_forced_start, request, grid)
            assert got == _planned(reference_plan_thermal_forced_start, request, grid)
            if isinstance(got, tuple):
                infeasible += 1
            else:
                planned += 1
        assert infeasible > 25 and planned > 25

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_forced_need_matches_reference(self, seed):
        rng = random.Random(seed)
        forced = idle = 0
        for _ in range(1500):
            grid, request = random_request(rng)
            temp = rng.uniform(request.ambient_c - 5.0, request.target_c + 10.0)
            now = rng.randint(0, grid.horizon)
            got = thermal_forced_need(temp, request, now, grid)
            assert got == reference_thermal_forced_need(temp, request, now, grid)
            # a request's snapshot temperature and issue slot are never read,
            # so a resent request and the node's config give the same need:
            # the engine passes the config
            resent = replace(request, temp_c=request.target_c + 25.0, issued_at=0)
            assert thermal_forced_need(temp, resent, now, grid) == got
            assert thermal_forced_need(temp, config_of(request), now, grid) == got
            if got > 0:
                forced += 1
            else:
                idle += 1
        assert forced > 50 and idle > 50


def _evening_request(**changes):
    """A sauna-like request on a 10-minute grid: from 20 C it needs about
    four rated slots to reach 70 C by its service start, slot 18."""
    request = ThermalTargetRequest(
        device_id="sauna", target_c=70.0, service_start=18, service_end=24,
        preheat_from=0, force_check_at=12, rated_w=6000.0, priority=2, issued_at=0,
        temp_c=20.0, ambient_c=20.0, capacitance_wh_per_c=60.0, loss_w_per_c=10.0,
    )
    return replace(request, **changes)


class TestForceCheckProbe:
    """plan_thermal_forced_start probes force_check_at before it scans; each
    case below is checked against the plain scan of the reference."""

    GRID = TimeGrid(epoch_start_min=16 * 60, slot_min=10, horizon=24)

    def _plan(self, request):
        got = _planned(plan_thermal_forced_start, request, self.GRID)
        assert got == _planned(reference_plan_thermal_forced_start, request, self.GRID)
        return got

    def test_feasible_probe_is_the_answer(self):
        assert self._plan(_evening_request()) == 12

    def test_failed_probe_falls_back_to_the_scan(self):
        """At the service start no heating slot is left, so the probe fails
        and the scan finds the latest feasible start, before the check."""
        start = self._plan(_evening_request(force_check_at=18))
        assert start < 18
        assert start == self._plan(_evening_request(force_check_at=17))

    def test_check_at_preheat_from(self):
        assert self._plan(_evening_request(preheat_from=4, force_check_at=4)) == 4

    def test_check_at_service_start_of_a_warm_node(self):
        """A node already at its target is feasible with no slot left."""
        assert self._plan(_evening_request(force_check_at=18, temp_c=90.0, issued_at=18)) == 18

    def test_check_before_issue(self):
        """Before its issue slot the node has not cooled from its snapshot."""
        assert self._plan(_evening_request(force_check_at=6, issued_at=10)) == 6
        cold = _evening_request(force_check_at=17, issued_at=17, temp_c=25.0)
        assert self._plan(cold) < 17

    def test_unreachable_target_raises_as_the_scan(self):
        got = self._plan(_evening_request(target_c=700.0))
        assert got[0] == "infeasible"

    def test_random_requests_take_both_branches(self):
        rng = random.Random("force-check probe")
        branches = set()
        for _ in range(400):
            grid, request = random_request(rng)
            got = _planned(plan_thermal_forced_start, request, grid)
            assert got == _planned(reference_plan_thermal_forced_start, request, grid)
            if not isinstance(got, tuple):
                branches.add("probe" if got == request.force_check_at else "scan")
        assert branches == {"probe", "scan"}
