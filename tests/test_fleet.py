"""The heater-fleet epoch loop against a reference implementation.

`reference_fleet` is the straightforward form of the loop: classify every
heater with `local_override`, collect the requesters with
`fleet_request_probability`, let `track_reference` accept a subset, then
step the physics with `random.uniform` draws. The engine's loop does the
same work on struct-of-arrays state in one pass per heater and epoch, which
steps a heater through epoch e and then classifies it for epoch e+1; it must
give bit-identical results, draw for draw, on every parameter set below.
"""

import math
from collections import Counter
from dataclasses import replace
from enum import Enum

import pytest

from test_thermal_planning import node_of, reference_step_thermal

from pemsim.core import substream
from pemsim.devices import WaterHeaterParams
from pemsim.engine import FleetTable, _Supply, run_scenario, summarize_run
from pemsim.scenario import HeaterFleetConfig, fleet_scenario
from pemsim.server import ReferenceSignal, track_reference


class OverrideState(Enum):
    FORCE_ON = "force_on"
    FORCE_OFF = "force_off"
    NORMAL = "normal"


def local_override(temp_c: float, params: WaterHeaterParams) -> OverrideState:
    if temp_c < params.t_low_c - params.override_margin_c:
        return OverrideState.FORCE_ON
    if temp_c > params.t_high_c:
        return OverrideState.FORCE_OFF
    return OverrideState.NORMAL


def fleet_request_probability(temp_c: float, params: WaterHeaterParams) -> float:
    span = params.t_high_c - params.t_low_c
    urgency = (params.t_high_c - temp_c) / span
    return params.mu_max * min(max(urgency, 0.0), 1.0)


def reference_fleet(scenario, branches=None):
    """(fleet table, slot table) of a fleet scenario, computed heater by
    heater: one FleetTable row per epoch, transposed at the end, and the
    aggregate watts in the slot table's fleet column.

    A `branches` Counter, if given, counts the heater-epochs that reach the
    packet transitions the engine folds into its classification:
    "force_on_holding" (forced on while it still holds a packet),
    "force_off_abort" (a running packet aborted) and "requests_after_packet"
    (a packet that ran out at the end of the previous epoch, followed by a
    new request)."""
    if branches is None:
        branches = Counter()
    grid = scenario.grid
    cfg = scenario.devices[0]
    params = cfg.params
    n = cfg.count
    reference = scenario.reference
    supply_side = _Supply(scenario)

    init_rng = substream(scenario.seed, "fleet", "init")
    temps = [init_rng.uniform(params.t_low_c, params.t_high_c) for _ in range(n)]
    request_rng = substream(scenario.seed, "fleet", "requests")
    draw_rng = substream(scenario.seed, "fleet", "draws")
    server_rng = substream(scenario.seed, "server")
    packets_left = [0] * n

    dt_h = grid.slot_min / 60.0
    heat_gain = dt_h * params.efficiency * params.rated_w / params.capacitance_wh_per_c
    loss_rate = dt_h * params.loss_w_per_c / params.capacitance_wh_per_c

    rows = []
    ran_out = set()
    for e in range(grid.horizon):
        force_on = []
        force_off = 0
        for i in range(n):
            state = local_override(temps[i], params)
            if state is OverrideState.FORCE_ON:
                force_on.append(i)
                branches["force_on_holding"] += packets_left[i] > 0
            elif state is OverrideState.FORCE_OFF:
                force_off += 1
                branches["force_off_abort"] += packets_left[i] > 0
                packets_left[i] = 0

        carrying = {i for i in range(n) if packets_left[i] > 0}
        on_ids = set(force_on) | carrying
        on_power = params.rated_w * len(on_ids)

        requesters = [
            i
            for i in range(n)
            if i not in on_ids
            and local_override(temps[i], params) is OverrideState.NORMAL
            and request_rng.random() < fleet_request_probability(temps[i], params)
        ]
        branches["requests_after_packet"] += len(ran_out.intersection(requesters))
        accepted = track_reference(requesters, reference.at(e), on_power, params.rated_w, server_rng)
        for i in accepted:
            packets_left[i] = cfg.packet_epochs
        heating = on_ids | set(accepted)
        aggregate_w = params.rated_w * len(heating)

        for i in range(n):
            temp = temps[i]
            temp += (heat_gain if i in heating else 0.0) - loss_rate * (temp - params.ambient_c)
            if draw_rng.random() < params.draw_prob:
                temp -= draw_rng.uniform(params.draw_min_c, params.draw_max_c)
            temps[i] = temp
        ran_out = {i for i in range(n) if packets_left[i] == 1}
        for i in range(n):
            if packets_left[i] > 0:
                packets_left[i] -= 1

        supply_side.table.granted_w[cfg.device_id][e] = aggregate_w
        supply_side.table.consumed_w[cfg.device_id][e] = aggregate_w
        supply_side.settle(supply_side.view(e), aggregate_w)
        rows.append((
            reference.at(e), len(requesters), len(accepted), len(force_on), force_off,
            min(temps), max(temps), math.fsum(temps) / n,
        ))

    return FleetTable(*map(list, zip(*rows))), supply_side.table


def stepped_fleet(count, seed, params=WaterHeaterParams(), packet_epochs=8, hours=4.0,
                  low_w=1000.0, high_w=2500.0):
    """A fleet whose reference steps every hour between low_w and high_w
    per heater."""
    epochs = int(hours * 20)
    values = tuple(count * (high_w if (e // 20) % 2 else low_w) for e in range(epochs))
    base = fleet_scenario(count=count, reference_w=ReferenceSignal(values_w=values),
                          hours=hours, seed=seed)
    fleet = HeaterFleetConfig(device_id="fleet", count=count, params=params,
                              packet_epochs=packet_epochs)
    return replace(base, devices=(fleet,))


DEFAULT = WaterHeaterParams()
VARIANTS = {
    "default": dict(),
    "narrow_band": dict(
        params=replace(DEFAULT, t_low_c=54.0, t_high_c=55.0, override_margin_c=0.3)
    ),
    "no_margin": dict(params=replace(DEFAULT, t_low_c=54.0, t_high_c=56.0, override_margin_c=0.0)),
    "large_draws": dict(params=replace(DEFAULT, draw_prob=0.4, draw_min_c=0.5, draw_max_c=1.5)),
    "never_draws": dict(
        params=replace(DEFAULT, draw_prob=0.0, override_margin_c=0.0), low_w=0.0, high_w=4000.0
    ),
    "always_draws": dict(params=replace(DEFAULT, draw_prob=1.0)),
    "mu_max_one": dict(params=replace(DEFAULT, mu_max=1.0)),
    "one_epoch_packets": dict(packet_epochs=1),
    "three_epoch_packets": dict(packet_epochs=3),
    "long_packets_narrow": dict(
        params=replace(DEFAULT, t_low_c=55.0, t_high_c=56.0, mu_max=1.0), packet_epochs=12
    ),
}


SEEDS = [1, 2, 3, 42]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_engine_matches_reference_loop(variant, seed):
    scenario = stepped_fleet(count=120, seed=seed, **VARIANTS[variant])
    fleet, slots = reference_fleet(scenario)
    result = run_scenario(scenario)
    assert repr(result.fleet) == repr(fleet)
    assert repr(result.slots) == repr(slots)
    assert result.device_traces == result.final_states == {}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_summary_fleet_block_matches_reference_loop(variant):
    """The summary's fleet block equals the values recomputed from the
    reference loop's columns, exactly: the mean |aggregate - reference| in
    epoch order and the sum of the force-on counts."""
    scenario = stepped_fleet(count=120, seed=1, **VARIANTS[variant])
    fleet, slots = reference_fleet(scenario)
    errors = [abs(a - r) for a, r in zip(slots.granted_w["fleet"], fleet.reference_w)]
    assert summarize_run(run_scenario(scenario))["fleet"] == {
        "epochs": scenario.grid.horizon,
        "mean_abs_tracking_error_w": sum(errors) / len(errors),
        "force_on_epoch_count": sum(fleet.force_on),
    }


def test_cases_find_each_extreme_both_ways():
    """The engine takes an epoch's temp_min_c from its force-on heaters and
    its temp_max_c from its force-off heaters, and scans every heater only
    when there are none; the equivalence above covers both ways for each.
    An epoch's counts classify the heaters after the previous epoch's step,
    so the counts from epoch 1 on tell which way each epoch went."""
    seen = set()
    for variant in VARIANTS:
        for seed in SEEDS:
            result = run_scenario(stepped_fleet(count=120, seed=seed, **VARIANTS[variant]))
            for side in ("force_on", "force_off"):
                seen.update((side, count > 0) for count in getattr(result.fleet, side)[1:])
    assert seen == {(side, forced) for side in ("force_on", "force_off") for forced in (False, True)}


@pytest.mark.parametrize(
    "variant", ["narrow_band", "no_margin", "large_draws", "long_packets_narrow", "never_draws"]
)
def test_variants_reach_both_overrides(variant):
    """The equivalence above covers both override branches: these parameter
    sets drive heaters below and above the band."""
    fleet, _ = reference_fleet(stepped_fleet(count=120, seed=1, **VARIANTS[variant]))
    assert sum(fleet.force_on) > 0
    assert sum(fleet.force_off) > 0


@pytest.mark.parametrize("variant, branch", [
    ("large_draws", "force_on_holding"),
    ("default", "force_off_abort"),
    ("one_epoch_packets", "requests_after_packet"),
])
def test_variants_reach_packet_transitions(variant, branch):
    """The equivalence above covers each packet transition that the engine
    folds into its classification."""
    branches = Counter()
    reference_fleet(stepped_fleet(count=120, seed=1, **VARIANTS[variant]), branches)
    assert branches[branch] > 0


class TestWaterHeater:
    """The comfort band and request rule the reference loop encodes."""

    PARAMS = WaterHeaterParams()

    def test_request_probability_shape(self):
        p = self.PARAMS
        assert fleet_request_probability(p.t_high_c, p) == 0.0
        assert fleet_request_probability(p.t_low_c, p) == pytest.approx(p.mu_max)
        mid = (p.t_low_c + p.t_high_c) / 2
        assert fleet_request_probability(mid, p) == pytest.approx(p.mu_max / 2)
        assert fleet_request_probability(p.t_low_c - 30.0, p) == pytest.approx(p.mu_max)

    def test_override_boundaries(self):
        p = self.PARAMS
        assert local_override(p.t_low_c - p.override_margin_c - 0.1, p) is OverrideState.FORCE_ON
        assert local_override(p.t_high_c + 0.1, p) is OverrideState.FORCE_OFF
        assert local_override(55.0, p) is OverrideState.NORMAL
        assert local_override(p.t_low_c - p.override_margin_c, p) is OverrideState.NORMAL


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_inline_euler_step_tracks_step_thermal(seed):
    """The fleet inlines the Euler step with its gain and loss rate computed
    once; without draws, a lone heater's temperature equals iterated
    reference_step_thermal at the power the fleet applied, bit for bit."""
    params = replace(DEFAULT, draw_prob=0.0)
    scenario = stepped_fleet(count=1, seed=seed, params=params, hours=8.0,
                             low_w=0.0, high_w=params.rated_w)
    result = run_scenario(scenario)
    start_c = substream(seed, "fleet", "init").uniform(params.t_low_c, params.t_high_c)
    state = node_of(params, start_c)
    powers = result.slots.granted_w["fleet"]
    for watts, temp_c in zip(powers, result.fleet.temp_min_c, strict=True):
        state = reference_step_thermal(state, watts, scenario.grid.slot_min)
        assert temp_c == state.temp_c
    assert set(powers) == {0.0, params.rated_w}
