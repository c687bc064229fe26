"""The per-slot functions that write each min(a, b) as `b if b < a else a`
and each max(a, b) as `b if b > a else a`, against their builtin forms.

Each `reference_*` below is the function as it was written with the
builtins. Both run on a grid of values with signed zeros, NaN, infinities,
subnormals and ties, and their results are compared by float.hex, so a
rewrite that picks the other operand of a tie (0.0 for -0.0, one NaN for
another operand) fails even where == would pass. An input that makes one
raise must make the other raise the same exception.
"""

import math
import random
from types import SimpleNamespace

import pytest

from test_server import reference_allocate_slot

from pemsim.core import CAP_TOL_W, COMPLETION_TOL_WH, ENERGY_REL_TOL, MalformedRequest, TimeGrid
from pemsim.devices import _absorb, _euler_temp
from pemsim.engine import (
    AUDIT_REL_TOL,
    RequestOutcome,
    SlotTable,
    _BatteryJob,
    _Supply,
    _ThermalJob,
    audit_conservation,
)
from pemsim.server import (
    CapacityViolation,
    CommitmentLedger,
    DispatchPlan,
    SlotNeed,
    SupplyView,
    UnderSupply,
    allocate_slot,
    dispatch_supply,
    needed_full_slots,
)

NAN, INF = math.nan, math.inf
SUBNORMAL = 5e-324
LARGEST_SUBNORMAL = 2.2250738585072009e-308

# the grid: each value twice over in the products below, so every pair of
# equal operands (ties) is in it too
VALUES = (
    0.0, -0.0, NAN, INF, -INF, SUBNORMAL, -SUBNORMAL, LARGEST_SUBNORMAL,
    1e-9, 1.0, -1.0, 600.0, 1000.0, 3600.0,
)


def _hex(value):
    """float.hex of every float in `value`, recursively; other values as
    they are."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return type(value)(map(_hex, value))
    return value


def _outcome(fn, *args):
    """fn(*args) by float.hex, or the type and text of what it raised."""
    try:
        return ("returned", _hex(fn(*args)))
    except Exception as exc:  # both sides must raise alike
        return ("raised", type(exc).__name__, str(exc))


def _samples(dims: int, count: int, seed: str):
    """`count` tuples of `dims` values drawn from VALUES."""
    rng = random.Random(seed)
    return [tuple(rng.choice(VALUES) for _ in range(dims)) for _ in range(count)]


# ---------------------------------------------------------------------------
# devices._absorb and server.needed_full_slots
# ---------------------------------------------------------------------------

def reference_absorb(soc_wh, capacity_wh, p_max_w, applied_w, dt_min):
    power = min(max(applied_w, 0.0), p_max_w)
    offered = power * dt_min / 60.0
    absorbed = min(offered, capacity_wh - soc_wh)
    soc_wh = min(soc_wh + absorbed, capacity_wh)
    if not 0 <= soc_wh <= capacity_wh:
        raise MalformedRequest("state of charge out of [0, capacity]")
    return soc_wh, absorbed


def reference_needed_full_slots(remaining_wh, p_max_w, slot_hours):
    if remaining_wh <= COMPLETION_TOL_WH:
        return 0
    slack_wh = min(remaining_wh * ENERGY_REL_TOL, COMPLETION_TOL_WH)
    return math.ceil((remaining_wh - slack_wh) / (p_max_w * slot_hours))


def test_absorb_matches_builtin_form():
    returned = 0
    for soc_wh in VALUES:
        for capacity_wh in VALUES:
            for p_max_w in VALUES:
                for applied_w in VALUES:
                    args = (soc_wh, capacity_wh, p_max_w, applied_w, 10)
                    got = _outcome(_absorb, *args)
                    assert got == _outcome(reference_absorb, *args), args
                    returned += got[0] == "returned"
    assert returned > 1000


def test_absorb_keeps_a_negative_zero_grant_apart_from_zero():
    """max(-0.0, 0.0) is -0.0, so a -0.0 grant on an empty battery keeps
    the charge -0.0 + -0.0; the rewrite as `applied_w if applied_w > 0.0
    else 0.0` would give 0.0."""
    assert _absorb(-0.0, 1000.0, 800.0, -0.0, 10)[0].hex() == "-0x0.0p+0"
    assert _absorb(-0.0, 1000.0, 800.0, 0.0, 10)[0].hex() == "0x0.0p+0"


@pytest.mark.parametrize("slot_hours", [1 / 6, 1.0, 0.0, -0.0, NAN, INF])
def test_needed_full_slots_matches_builtin_form(slot_hours):
    for remaining_wh in VALUES + (2.0, 10_000.0, 50_000.0):
        for p_max_w in VALUES:
            args = (remaining_wh, p_max_w, slot_hours)
            assert _outcome(needed_full_slots, *args) == _outcome(
                reference_needed_full_slots, *args
            ), args


# ---------------------------------------------------------------------------
# server.dispatch_supply
# ---------------------------------------------------------------------------

def reference_dispatch_supply(total_granted_w, supply):
    if total_granted_w > supply.feeder_capacity_w + CAP_TOL_W:
        raise CapacityViolation("dispatch asked to serve more than feeder capacity")
    renewable_used = min(total_granted_w, supply.renewable_w)
    deficit = total_granted_w - renewable_used
    discharge = 0.0
    if deficit > 0:
        discharge = min(deficit, supply.discharge_max_w)
    deficit -= discharge
    imported = 0.0
    if deficit > CAP_TOL_W:
        if not supply.import_allowed:
            raise UnderSupply(deficit)
        imported = deficit
    else:
        renewable_used += deficit
        deficit = 0.0
    surplus = supply.renewable_w - renewable_used
    charge = 0.0
    if surplus > 0 and discharge == 0:
        charge = min(surplus, supply.charge_max_w)
    curtailed = surplus - charge
    return DispatchPlan(renewable_used, charge - discharge, imported, curtailed)


def _plan(plan):
    return (plan.renewable_used_w, plan.storage_flow_w, plan.imported_w, plan.curtailed_w)


@pytest.mark.parametrize("import_allowed", [True, False])
def test_dispatch_supply_matches_builtin_form(import_allowed):
    for total_w, renewable_w, discharge_max_w, charge_max_w in _samples(4, 20_000, "dispatch"):
        supply = SupplyView(renewable_w, discharge_max_w, charge_max_w, import_allowed, INF)
        got = _outcome(lambda: _plan(dispatch_supply(total_w, supply)))
        want = _outcome(lambda: _plan(reference_dispatch_supply(total_w, supply)))
        assert got == want, (total_w, supply)


# ---------------------------------------------------------------------------
# engine._Supply.view and settle
# ---------------------------------------------------------------------------

def reference_view(side, t):
    storage = side.storage
    discharge_max_w = charge_max_w = 0.0
    if storage is not None:
        slot_h = side.slot_hours
        discharge_max_w = min(storage.p_discharge_max_w, side.soc_wh / slot_h)
        headroom = (storage.capacity_wh - side.soc_wh) / storage.efficiency
        charge_max_w = min(storage.p_charge_max_w, headroom / slot_h)
    return SupplyView(
        side.trace[t], discharge_max_w, charge_max_w, side.import_allowed, side.feeder_capacity_w
    )


def reference_settle(side, supply, consumed_w, emergency=False):
    plan = reference_dispatch_supply(consumed_w, supply)
    flow = plan.storage_flow_w
    if flow > 0.0:
        storage = side.storage
        side.soc_wh = min(
            storage.capacity_wh, side.soc_wh + flow * side.slot_hours * storage.efficiency
        )
    elif flow < 0.0:
        side.soc_wh = max(0.0, side.soc_wh + flow * side.slot_hours)
    table = side.table
    table.renewable_used_w.append(plan.renewable_used_w)
    table.storage_soc_wh.append(side.soc_wh)
    table.storage_flow_w.append(flow)
    table.imported_w.append(plan.imported_w)
    table.curtailed_w.append(plan.curtailed_w)
    table.consumed_total_w.append(consumed_w)
    table.emergency.append(emergency)


def _supply_side(soc_wh, capacity_wh, p_discharge_max_w, p_charge_max_w, efficiency, slot_hours):
    """A _Supply holding a storage of any floats, the checks of
    StorageAsset bypassed."""
    side = _Supply.__new__(_Supply)
    side.slot_hours = slot_hours
    side.trace = (500.0, 0.0, -0.0, NAN)
    side.storage = SimpleNamespace(
        capacity_wh=capacity_wh, p_discharge_max_w=p_discharge_max_w,
        p_charge_max_w=p_charge_max_w, efficiency=efficiency,
    )
    side.soc_wh = soc_wh
    side.import_allowed = True
    side.feeder_capacity_w = INF
    side.table = SlotTable({}, {}, side.trace)
    return side


def _view(view):
    return (view.renewable_w, view.discharge_max_w, view.charge_max_w)


def test_supply_view_matches_builtin_form():
    for args in _samples(5, 20_000, "view"):
        side = _supply_side(*args, 1 / 6)
        for t in range(len(side.trace)):
            got = _outcome(lambda: _view(side.view(t)))
            assert got == _outcome(lambda: _view(reference_view(side, t))), args


def test_supply_settle_matches_builtin_form():
    for values in _samples(8, 20_000, "settle"):
        soc_wh, capacity_wh, efficiency, slot_hours, renewable_w, discharge_max_w, charge_max_w, consumed_w = values
        sides = [
            _supply_side(soc_wh, capacity_wh, 0.0, 0.0, efficiency, slot_hours) for _ in range(2)
        ]
        supply = SupplyView(renewable_w, discharge_max_w, charge_max_w, True, INF)
        got = _outcome(lambda: sides[0].settle(supply, consumed_w))
        assert got == _outcome(lambda: reference_settle(sides[1], supply, consumed_w)), values
        assert _hex(sides[0].soc_wh) == _hex(sides[1].soc_wh), values
        assert repr(sides[0].table) == repr(sides[1].table), values


def test_settle_keeps_the_charge_operand_of_a_tie():
    """min(capacity, charged) returns capacity on a tie: with capacity -0.0
    and a charge that reaches 0.0, the charge is -0.0."""
    side = _supply_side(-1.0, -0.0, 0.0, 0.0, 1.0, 1.0)
    side.settle(SupplyView(1.0, 0.0, 1.0, True, INF), 0.0)
    assert side.soc_wh.hex() == "-0x0.0p+0"


# ---------------------------------------------------------------------------
# engine._BatteryJob._plan and _ThermalJob.apply
# ---------------------------------------------------------------------------

def reference_plan(job):
    """_BatteryJob._plan, a method of `job`."""
    cfg = job.cfg
    remaining = cfg.capacity_wh - job.soc_wh
    if remaining <= COMPLETION_TOL_WH:
        job.want_w = 0.0
        job.need_until = 0
        return
    job.want_w = min(cfg.p_max_w, remaining / job.slot_hours)
    job.need_until = cfg.deadline
    job.forced_from = cfg.deadline - reference_needed_full_slots(
        remaining, cfg.p_max_w, job.slot_hours
    )
    job._forced_need = job._willing_need = None


def _battery_job(soc_wh, capacity_wh, p_max_w, slot_hours):
    """A battery job of any floats, the config checks bypassed."""
    job = _BatteryJob.__new__(_BatteryJob)
    job.cfg = SimpleNamespace(capacity_wh=capacity_wh, p_max_w=p_max_w, deadline=36)
    job.soc_wh, job.slot_hours = soc_wh, slot_hours
    return job


@pytest.mark.parametrize("slot_hours", [1 / 6, 1.0, -0.0, INF])
def test_battery_plan_matches_builtin_form(slot_hours):
    """The plan, compared also where needed_full_slots raises after want_w
    is set (a NaN or an infinite need)."""
    for soc_wh in VALUES:
        for capacity_wh in VALUES + (30_000.0,):
            for p_max_w in VALUES:
                args = (soc_wh, capacity_wh, p_max_w, slot_hours)
                plans = []
                for plan in (_BatteryJob._plan, reference_plan):
                    job = _battery_job(*args)
                    raised = _outcome(plan, job)
                    planned = [getattr(job, name, None) for name in ("want_w", "need_until", "forced_from")]
                    plans.append((raised, _hex(planned)))
                assert plans[0] == plans[1], args


def _thermal_job(rated_w):
    """A thermal job far from its service window, heating a node at 40 C of
    rated power `rated_w`, any float, the config checks bypassed."""
    job = _ThermalJob.__new__(_ThermalJob)
    job.cfg = SimpleNamespace(
        rated_w=rated_w, efficiency=1.0, capacitance_wh_per_c=60.0, loss_w_per_c=10.0,
        ambient_c=20.0, service_start=100, service_end=110, target_c=70.0,
    )
    job.temp_c, job.slot_min, job.trace = 40.0, 10, []
    job.outcome = RequestOutcome("sauna", "thermal", issued_slot=0, accepted=True)
    return job


def test_thermal_apply_matches_builtin_form():
    ledger = CommitmentLedger(TimeGrid(epoch_start_min=0, slot_min=10, horizon=120), 10_000.0)
    for granted_w in VALUES:
        for rated_w in VALUES:
            job = _thermal_job(rated_w)
            consumed_w = job.apply(granted_w, 0, ledger)
            want_w = min(max(granted_w, 0.0), rated_w)
            want_temp = _euler_temp(job.cfg, 40.0, want_w, 10)
            assert _hex((consumed_w, job.temp_c)) == _hex((want_w, want_temp)), (granted_w, rated_w)
            assert job.outcome.first_service_slot == (0 if want_w > 0 else None)


# ---------------------------------------------------------------------------
# server.allocate_slot's grants
# ---------------------------------------------------------------------------

def test_allocate_slot_grants_match_builtin_form():
    """Random slots whose needs and supply hold grid values: the grants,
    their order, the rng state and any raise match the reference's, which
    uses min, max and random.shuffle."""
    rng = random.Random("allocate_slot grid")
    grid = TimeGrid(epoch_start_min=0, slot_min=10, horizon=8)
    granted = 0
    for trial in range(20_000):
        needs = []
        for i in range(rng.randint(1, 5)):
            needs.append(SlotNeed(
                f"j{i}", rng.randint(0, 1),
                forced_w=rng.choice(VALUES) if rng.random() < 0.3 else 0.0,
                willing_w=rng.choice(VALUES), packet_w=rng.choice(VALUES + (250.0,) * 6),
            ))
        supply = SupplyView(
            rng.choice(VALUES), rng.choice(VALUES), 0.0, rng.random() < 0.5,
            rng.choice(VALUES + (10_000.0,) * 4),
        )
        renewable_first = rng.random() < 0.5
        runs = []
        for allocate in (allocate_slot, reference_allocate_slot):
            ledger = CommitmentLedger(grid, 10_000.0)
            draws = random.Random(trial)
            got = _outcome(
                lambda: list(allocate(ledger, needs, supply, draws, 0, renewable_first).items())
            )
            runs.append((got, draws.getstate()))
        assert runs[0] == runs[1], (needs, supply, renewable_first)
        granted += runs[0][0][0] == "returned" and len(runs[0][0][1]) > 1
    assert granted > 1000


# ---------------------------------------------------------------------------
# engine.audit_conservation
# ---------------------------------------------------------------------------

def reference_audit_conservation(result):
    slot_h = result.grid.slot_hours
    table = result.slots
    consumed_terms = []
    supplied_terms = []
    for t, (consumed_w, used_w, flow_w, imported_w, curtailed_w) in enumerate(zip(
        table.consumed_total_w, table.renewable_used_w, table.storage_flow_w,
        table.imported_w, table.curtailed_w,
    )):
        consumed_wh = consumed_w * slot_h
        supplied_wh = (used_w - min(flow_w, 0.0) + imported_w) * slot_h
        scale = max(1.0, abs(consumed_wh))
        if not abs(consumed_wh - supplied_wh) <= AUDIT_REL_TOL * scale:
            return t
        if not curtailed_w >= -CAP_TOL_W:
            return t
        consumed_terms.append(consumed_wh)
        supplied_terms.append(supplied_wh)
    total_consumed = math.fsum(consumed_terms)
    total_supplied = math.fsum(supplied_terms)
    if not abs(total_consumed - total_supplied) <= AUDIT_REL_TOL * max(1.0, abs(total_consumed)):
        return len(consumed_terms) - 1
    return None


def test_audit_conservation_matches_builtin_form():
    """One-slot runs, and runs of three slots whose first two balance, so
    each slot's terms reach the test."""
    found = set()
    for consumed_w, used_w, flow_w, imported_w in _samples(4, 20_000, "audit"):
        for prefix in ((), ((1.0, 1.0, 0.0, 0.0),) * 2):
            rows = [*prefix, (consumed_w, used_w, flow_w, imported_w)]
            slots = SimpleNamespace(
                consumed_total_w=[r[0] for r in rows], renewable_used_w=[r[1] for r in rows],
                storage_flow_w=[r[2] for r in rows], imported_w=[r[3] for r in rows],
                curtailed_w=[0.0] * len(rows),
            )
            result = SimpleNamespace(grid=SimpleNamespace(slot_hours=1 / 6), slots=slots)
            got = audit_conservation(result)
            assert got == reference_audit_conservation(result), rows
            found.add(got)
    assert found == {None, 0, 2}
