"""Device physics: the thermal Euler step, the battery charging step,
water-heater fleet parameters, the renewable random walk, and the storage
asset's validated config. Every changing quantity (a temperature, a charge,
a cycle's progress) is a plain number on the engine object that steps it.

A thermal node is five constants, `ambient_c`, `capacitance_wh_per_c` (C),
`loss_w_per_c` (U), `rated_w` and `efficiency` (eta). ThermalConfig,
ThermalTargetRequest and WaterHeaterParams carry them as flat fields, so
the functions below take any of them as the node and its temperature as a
float; core.check_thermal_node checks the constants. The node's temperature
is integrated with one explicit Euler step per slot:

    T' = T + (dt_h * eta * P / C - dt_h * U / C * (T - T_ambient)),   dt_h = dt_min / 60

which converges to T_ambient + eta*P/U and admits the closed-form solution
used as the test oracle. `_euler_temp` is the one implementation of that
step, evaluated left to right in exactly this grouping: the heat gain
dt_h * eta * P / C, less the loss rate dt_h * U / C times T - T_ambient,
added to T. min_heating_slots and the engine's household thermal job both
call it, so a heating run that min_heating_slots plans is exactly the run
the engine simulates at rated power. The heater fleet inlines it with the
gain at rated power and the loss rate computed once per run, and the
household thermal job's fill_trace inlines it for idle slots with the gain
at 0 W and the loss rate computed once per job; the grouping is the same,
so their temperatures are this step's bit for bit (tests/test_fleet.py and
tests/test_engine.py check both). `_absorb` is
likewise the one charging step of a battery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import MalformedRequest, check_finite, check_thermal_node


def _euler_temp(node, temp_c: float, power_w: float, dt_min: float) -> float:
    """Temperature after one Euler step of `node` from `temp_c` at
    `power_w` heating power (not clamped here)."""
    dt_h = dt_min / 60.0
    return temp_c + (
        dt_h * node.efficiency * power_w / node.capacitance_wh_per_c
        - dt_h * node.loss_w_per_c / node.capacitance_wh_per_c * (temp_c - node.ambient_c)
    )


def decay_temp(node, temp_c: float, steps: int, dt_min: float) -> float:
    """Temperature of `node` after `steps` zero-power slots from `temp_c`:
    the closed form of the `_euler_temp` recursion. It rounds differently
    from iterating `_euler_temp`, so the two agree to within rounding, not
    bit for bit."""
    a = 1.0 - (dt_min / 60.0) * node.loss_w_per_c / node.capacitance_wh_per_c
    return node.ambient_c + (temp_c - node.ambient_c) * a**steps


def min_heating_slots(
    node, temp_c: float, target_c: float, dt_min: float, max_steps: int = 10_000
) -> int | None:
    """Fewest consecutive rated-power slots that lift `node` from `temp_c`
    to `target_c`, stepped by `_euler_temp` as the engine steps it.

    None when the target is unreachable (steady state below target) or needs
    more than `max_steps` slots.
    """
    temp = temp_c
    if temp >= target_c:
        return 0
    for n in range(1, max_steps + 1):
        nxt = _euler_temp(node, temp, node.rated_w, dt_min)
        if nxt <= temp:
            return None
        temp = nxt
        if temp >= target_c:
            return n
    return None


def _absorb(
    soc_wh: float, capacity_wh: float, p_max_w: float, applied_w: float, dt_min: float
) -> tuple[float, float]:
    """(new state of charge, energy absorbed in Wh) after one slot of charging
    at `applied_w` (clamped to [0, p_max]). Raises MalformedRequest when the
    new charge leaves [0, capacity].

    A saturating slot adds `capacity - soc`, which can round one ulp above
    capacity; the new charge is clamped to capacity.

    Each min(a, b) is written `b if b < a else a` and each max(a, b)
    `b if b > a else a`, which return the operand the builtin returns, a
    NaN or a signed zero included, without its call
    (tests/test_comparison_forms.py checks them against the builtin form)."""
    power = 0.0 if 0.0 > applied_w else applied_w  # max(applied_w, 0.0)
    if p_max_w < power:  # min(power, p_max_w)
        power = p_max_w
    offered = power * dt_min / 60.0
    headroom = capacity_wh - soc_wh
    absorbed = headroom if headroom < offered else offered
    soc_wh += absorbed
    if capacity_wh < soc_wh:
        soc_wh = capacity_wh
    if not 0 <= soc_wh <= capacity_wh:
        raise MalformedRequest("state of charge out of [0, capacity]")
    return soc_wh, absorbed


@dataclass(frozen=True)
class WaterHeaterParams:
    """Deadband heater with local overrides and stochastic draw events.

    Each epoch a heater classifies itself against its comfort band:
    FORCE_ON below t_low_c - override_margin_c, FORCE_OFF above t_high_c
    (which aborts a running packet), NORMAL otherwise, boundaries included.
    Local overrides guarantee the comfort band regardless of what the server
    grants. A NORMAL heater that carries no packet requests one with
    probability mu_max * clamp((t_high_c - T) / (t_high_c - t_low_c), 0, 1):
    zero at the top of the band, mu_max at (or below) the bottom.

    A draw removes a random number of degrees in [draw_min_c, draw_max_c]
    with probability draw_prob per epoch.
    """

    t_low_c: float = 50.0
    t_high_c: float = 60.0
    override_margin_c: float = 2.0
    mu_max: float = 0.3
    rated_w: float = 4500.0
    capacitance_wh_per_c: float = 300.0
    loss_w_per_c: float = 5.0
    ambient_c: float = 20.0
    efficiency: float = 1.0
    draw_prob: float = 0.7
    draw_min_c: float = 0.2
    draw_max_c: float = 0.45

    def __post_init__(self) -> None:
        check_finite(self)
        if self.t_low_c >= self.t_high_c:
            raise MalformedRequest("deadband must have t_low < t_high")
        if not 0 < self.mu_max <= 1:
            raise MalformedRequest("request rate cap must lie in (0, 1]")
        if self.override_margin_c < 0:
            raise MalformedRequest("override margin must be non-negative")
        if not 0 <= self.draw_prob <= 1:
            raise MalformedRequest("draw probability must lie in [0, 1]")
        if not 0 <= self.draw_min_c <= self.draw_max_c:
            raise MalformedRequest("draw magnitudes out of order")
        check_thermal_node(self)


def random_walk_trace(
    n_slots: int, mean_w: float, volatility_w: float, rng: random.Random
) -> tuple[float, ...]:
    """Clipped random walk in [0, 2*mean] starting at the mean, one value per
    slot. Equal seeds give bit-identical traces. The parameters are checked
    by RenewableConfig.validate. The clamp is min(max(level, 0.0), ceiling)
    written as two tests, which keep a -0.0 level as that form does."""
    ceiling = 2.0 * mean_w
    gauss = rng.gauss
    values = []
    level = mean_w
    for _ in range(n_slots):
        level += gauss(0.0, volatility_w)
        if level < 0.0:
            level = 0.0
        elif level > ceiling:
            level = ceiling
        values.append(level)
    return tuple(values)


@dataclass(frozen=True)
class StorageAsset:
    """Micro-grid battery config: the initial charge `soc_wh` and the limits.
    The engine's supply side keeps the charge as it moves. Sign convention
    for flows: positive charges, negative discharges. Round-trip losses are
    applied on the way in so the conservation identity stays linear on the
    discharge side."""

    soc_wh: float
    capacity_wh: float
    p_charge_max_w: float
    p_discharge_max_w: float
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        check_finite(self, "storage")
        if not 0 <= self.soc_wh <= self.capacity_wh:
            raise MalformedRequest("storage soc out of [0, capacity]")
        if self.p_charge_max_w < 0 or self.p_discharge_max_w < 0:
            raise MalformedRequest("storage power limits must be non-negative")
        if not 0 < self.efficiency <= 1:
            raise MalformedRequest("storage efficiency must lie in (0, 1]")
