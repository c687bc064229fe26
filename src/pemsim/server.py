"""The energy server: admission control, forced-regime scheduling, per-slot
packet allocation under feeder capacity, supply dispatch, and fleet
reference tracking.

Admission rule ("latest-start feasibility"): a job is admitted iff its
forced profile, superposed on every already-committed forced profile, never
exceeds the feeder capacity. The forced profile is the full-power schedule
the job would follow if it received nothing opportunistically:

  - flexible-total jobs run at p_max from their latest feasible start;
  - fixed cycles run anchored at their latest admissible start;
  - thermal jobs run at rated power from the earlier of the configured
    force-check slot and the latest slot from which worst-case (unheated)
    temperature can still reach the target, through the end of service.

Because imports cover any renewable shortfall, capacity is the only hard
constraint, which makes the deadline guarantee provable and gives the
admission check a brute-force oracle. The rule is sufficient, not
necessary: it can reject sets a clairvoyant packer would fit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

from .core import (
    Accept,
    CAP_TOL_W,
    COMPLETION_TOL_WH,
    ENERGY_REL_TOL,
    FixedProfileRequest,
    FlexibleTotalRequest,
    GrantDecision,
    InfeasibleDeadline,
    LoadRequest,
    MalformedRequest,
    Reject,
    RejectReason,
    ThermalTargetRequest,
    TimeGrid,
    WindowInfeasible,
    check_finite,
    validate_request,
)
from .devices import decay_temp, min_heating_slots


class CapacityViolation(RuntimeError):
    """Total granted or committed power exceeded feeder capacity. Impossible
    while the admission invariant holds; raised as an internal failure."""


class UnderSupply(RuntimeError):
    """Local supply cannot cover committed power and imports are disallowed."""

    def __init__(self, deficit_w: float):
        super().__init__(f"supply short by {deficit_w:.1f} W")
        self.deficit_w = deficit_w


def needed_full_slots(remaining_wh: float, p_max_w: float, slot_hours: float) -> int:
    """Whole slots of full-power service needed to finish `remaining_wh`,
    short of it by at most COMPLETION_TOL_WH."""
    if remaining_wh <= COMPLETION_TOL_WH:
        return 0
    slack_wh = remaining_wh * ENERGY_REL_TOL  # min(slack_wh, COMPLETION_TOL_WH)
    if COMPLETION_TOL_WH < slack_wh:
        slack_wh = COMPLETION_TOL_WH
    return math.ceil((remaining_wh - slack_wh) / (p_max_w * slot_hours))


def compute_forced_start(
    remaining_wh: float,
    p_max_w: float,
    deadline: int,
    grid: TimeGrid,
    now: int = 0,
) -> int:
    """Latest slot from which full-power service still finishes by `deadline`.

    Rounds the start earlier, never later, apart from the slack of
    needed_full_slots (at most COMPLETION_TOL_WH) which absorbs
    decimal-rounded inputs.
    """
    if remaining_wh < 0 or p_max_w <= 0:
        raise MalformedRequest("forced start needs remaining >= 0 and p_max > 0")
    start = deadline - needed_full_slots(remaining_wh, p_max_w, grid.slot_hours)
    if start < now:
        raise InfeasibleDeadline(
            f"{remaining_wh:.1f} Wh cannot finish by slot {deadline} from slot {now}"
        )
    return start


def _thermal_start_feasible(request: ThermalTargetRequest, t: int, slot_min: int) -> bool:
    """Whether rated heating from slot `t` lifts the job, cooled unheated
    from its snapshot to `t`, to its target by the service start."""
    cold = decay_temp(request, request.temp_c, max(0, t - request.issued_at), slot_min)
    left = request.service_start - t
    return min_heating_slots(request, cold, request.target_c, slot_min, left) is not None


def plan_thermal_forced_start(request: ThermalTargetRequest, grid: TimeGrid) -> int:
    """First slot of the guaranteed heating window for a thermal job.

    Worst case assumes the job receives nothing before the window, so its
    temperature decays freely from the issue-time snapshot. The window opens
    at the configured force-check slot or at the latest still-feasible start
    under that worst case, whichever comes first.

    The force-check slot is probed first, and when it is a feasible start
    it is the answer. That needs no monotonicity of feasibility in t:
    validate_request keeps force_check_at within [preheat_from,
    service_start], the range of the scan below, so the scan's latest
    feasible start t* is at or after it and min(force_check_at, t*) is
    force_check_at. Otherwise the scan runs from the service start
    backwards and stops at the first feasible start, which is the latest;
    each probe searches only as many heating slots as are left before the
    service start.
    """
    if _thermal_start_feasible(request, request.force_check_at, grid.slot_min):
        return request.force_check_at
    for t in range(request.service_start, request.preheat_from - 1, -1):
        if _thermal_start_feasible(request, t, grid.slot_min):
            return min(request.force_check_at, t)
    raise WindowInfeasible(
        f"target {request.target_c:.1f} C unreachable by slot {request.service_start}"
    )


def thermal_forced_need(
    temp_c: float, request: ThermalTargetRequest, now: int, grid: TimeGrid
) -> float:
    """Forced heating power for a thermal job this slot, re-evaluated against
    the node's actual temperature `temp_c`. `request` is the node's
    ThermalConfig or any request the node sent: only the node constants and
    the schedule are read, never a request's snapshot temp_c or issued_at,
    so each gives the same answer.

    Inside [force_check, service_end): heat at rated iff coasting from here
    would drop below target at the next checkpoint (service start before
    service, the next slot during it). Before the force check: heat at rated
    iff the remaining slots only just suffice to reach target (the safety
    net that keeps the admission guarantee honest when preheating was
    starved).
    """
    if now < request.preheat_from or now >= request.service_end:
        return 0.0
    if now >= request.service_start:
        horizon = 1
    elif now >= request.force_check_at:
        horizon = request.service_start - now
    else:
        need = min_heating_slots(request, temp_c, request.target_c, grid.slot_min)
        if need is not None and need >= request.service_start - now:
            return request.rated_w
        return 0.0
    if decay_temp(request, temp_c, horizon, grid.slot_min) < request.target_c:
        return request.rated_w
    return 0.0


def forced_profile(
    request: LoadRequest, grid: TimeGrid, now: int = 0
) -> tuple[int, tuple[float, ...]]:
    """(start, watts) of a job's forced profile: one run of slots, where
    watts[i] is the committed power at slot start + i and nothing is
    committed outside the run. For a request that passes validate_request,
    every entry is positive."""
    if isinstance(request, FlexibleTotalRequest):
        start = compute_forced_start(
            request.energy_needed_wh,
            request.p_max_w,
            request.deadline,
            grid,
            now=max(now, request.available_from),
        )
        return start, (request.p_max_w,) * (request.deadline - start)
    if isinstance(request, FixedProfileRequest):
        start = request.latest_start
        if start < now:
            raise InfeasibleDeadline(f"latest start {start} already passed")
        return start, request.profile_w
    if isinstance(request, ThermalTargetRequest):
        start = plan_thermal_forced_start(request, grid)
        if start < now:
            raise InfeasibleDeadline(f"forced heating window {start} already passed")
        return start, (request.rated_w,) * (request.service_end - start)
    raise MalformedRequest(f"unknown request type {type(request).__name__}")


@dataclass
class JobCommitment:
    """An admitted job's forced run: profile_w[i] watts at slot start + i.
    Re-anchoring a cycle moves `start`; a released job leaves the ledger."""

    request: LoadRequest
    decision: Accept
    start: int
    profile_w: tuple[float, ...]


class CommitmentLedger:
    """The server's record of admitted jobs and their committed forced power.

    Invariants: the committed superposition never exceeds feeder capacity,
    and every admitted job's committed profile finishes it by its deadline.
    """

    def __init__(self, grid: TimeGrid, feeder_capacity_w: float):
        if feeder_capacity_w <= 0:
            raise MalformedRequest("feeder capacity must be positive")
        self.grid = grid
        self.feeder_capacity_w = feeder_capacity_w
        self.jobs: dict[str, JobCommitment] = {}
        self.committed_w = [0.0] * grid.horizon

    def admit(self, request: LoadRequest, now: int = 0) -> GrantDecision:
        """Admission decision; extends the ledger on acceptance.

        Re-requests from a device whose job is already admitted return the
        original acceptance (grant delivery may have been lost).
        """
        existing = self.jobs.get(request.device_id)
        if existing is not None:
            return existing.decision
        try:
            validate_request(request, self.grid)
            start, profile = forced_profile(request, self.grid, now=now)
        except MalformedRequest:
            return Reject(RejectReason.MALFORMED_REQUEST)
        except WindowInfeasible:
            return Reject(RejectReason.WINDOW_INFEASIBLE)
        committed, limit = self.committed_w, self.feeder_capacity_w + CAP_TOL_W
        for t, watts in enumerate(profile, start):
            if committed[t] + watts > limit:
                return Reject(RejectReason.CAPACITY_EXCEEDED, at_slot=t)
        for t, watts in enumerate(profile, start):
            committed[t] += watts
        decision = Accept(start)
        self.jobs[request.device_id] = JobCommitment(request, decision, start, profile)
        return decision

    def release(self, device_id: str, from_slot: int) -> None:
        """Free a finished (or failed) job's commitments from `from_slot` on;
        the job leaves the ledger."""
        job = self.jobs.pop(device_id, None)
        if job is None:
            return
        for t, watts in enumerate(job.profile_w, job.start):
            if t >= from_slot:
                self.committed_w[t] -= watts

    def reanchor_cycle(self, device_id: str, start_slot: int) -> bool:
        """Move a pending cycle's commitment from its latest start to an
        earlier actual start `start_slot`, if the re-anchored run breaks no
        committed slot. Returns whether it moved."""
        job = self.jobs.get(device_id)
        if job is None:
            return False
        request = job.request
        if not isinstance(request, FixedProfileRequest):
            return False
        if not request.earliest_start <= start_slot <= request.latest_start:
            return False
        old = dict(enumerate(job.profile_w, job.start))
        committed, limit = self.committed_w, self.feeder_capacity_w + CAP_TOL_W
        for t, watts in enumerate(job.profile_w, start_slot):
            if committed[t] - old.get(t, 0.0) + watts > limit:
                return False
        for t, watts in old.items():
            committed[t] -= watts
        for t, watts in enumerate(job.profile_w, start_slot):
            committed[t] += watts
        job.start = start_slot
        return True


@dataclass(slots=True)
class SlotNeed:
    """One job's appetite in a single slot, as collected by the engine.

    forced_w must be served in full; willing_w may be served opportunistically
    in whole multiples of packet_w. Pending cycles set cycle_start: their
    grant is all-or-nothing and re-anchors the ledger commitment.

    Slotted and not frozen, so it builds about four times faster. The
    engine builds a job's needs when its state moves and hands the same
    objects to allocate_slot slot after slot. That relies on an invariant:
    only allocate_slot reads them, and it writes none (tested).
    """

    job_id: str
    priority: int
    forced_w: float = 0.0
    willing_w: float = 0.0
    packet_w: float = 1.0
    cycle_start: bool = False


@dataclass(slots=True)
class SupplyView:
    """What the server can see about this slot's supply side: the renewable
    power and the most storage can discharge or absorb over the whole slot
    (0.0 without storage). Slotted and not frozen, as SlotNeed says; the
    engine builds one a slot."""

    renewable_w: float
    discharge_max_w: float
    charge_max_w: float
    import_allowed: bool
    feeder_capacity_w: float


_PRIORITY = attrgetter("priority")
_FORCED_W = attrgetter("forced_w")


def allocate_slot(
    ledger: CommitmentLedger,
    needs: Sequence[SlotNeed],
    supply: SupplyView,
    rng: random.Random,
    now: int = 0,
    renewable_first: bool = True,
) -> dict[str, float]:
    """Grant watts to jobs for one slot.

    Forced needs are served first and in full. Remaining capacity is offered
    in priority order with a seeded uniform shuffle among equal priorities;
    each opportunistic grant is a whole number of the job's packets. When
    imports are barred, opportunistic power is only handed out up to the
    local supply (renewable plus storage discharge) left after forced needs,
    so only forced grants can outrun it. With renewable_first, it is only
    handed out up to the renewable surplus left after forced needs, which
    concentrates flexible consumption under renewable availability.

    A grant's packet count is rounded up when within 1e-9 of a whole packet,
    so the opportunistic total can pass either limit by at most 1e-9 of a
    packet (within CAP_TOL_W for packets up to 1 kW).

    The forced total stays the builtin sum of the needs' forced watts in
    needs order: from Python 3.12 that sum is compensated, so a running
    `+=` would differ. One loop over the needs then takes the forced grants
    and the willing needs, in needs order.

    Each min(a, b) is written `b if b < a else a` and each max(a, b)
    `b if b > a else a`: the operand the builtin returns, a NaN or a signed
    zero included, without its call. The willing needs are shuffled inline
    with exactly random.shuffle's draws: Fisher-Yates from the end, each
    index drawn as random's _randbelow_with_getrandbits draws it, k bits at
    a time for a bound of bit length k until one falls below the bound.
    tests/test_comparison_forms.py checks the comparisons against min and
    max, and tests/test_server.py the shuffle against random.shuffle.
    """
    if not needs:  # nothing to grant, and no shuffle to draw
        return {}
    cap = supply.feeder_capacity_w
    forced_total = sum(map(_FORCED_W, needs))
    if forced_total > cap + CAP_TOL_W:
        raise CapacityViolation(
            f"forced needs {forced_total:.1f} W exceed capacity {cap:.1f} W at slot {now}"
        )
    grants = {}
    willing = []
    for need in needs:
        forced_w = need.forced_w
        if forced_w > 0:
            grants[need.job_id] = forced_w
        elif need.willing_w > 0 and forced_w <= 0:  # a NaN forced_w is neither
            willing.append(need)
    spare = cap - forced_total
    if not supply.import_allowed:  # min(spare, local supply left)
        local_w = supply.renewable_w + supply.discharge_max_w - forced_total
        if local_w < spare:
            spare = local_w
    if renewable_first:  # min(spare, max(0.0, renewable surplus))
        surplus_w = supply.renewable_w - forced_total
        if not surplus_w > 0.0:
            surplus_w = 0.0
        if surplus_w < spare:
            spare = surplus_w
    count = len(willing)
    if count > 1:  # shuffling fewer draws nothing from rng
        getrandbits = rng.getrandbits
        for i in range(count - 1, 0, -1):
            bound = i + 1
            bits = bound.bit_length()
            j = getrandbits(bits)
            while j >= bound:
                j = getrandbits(bits)
            willing[i], willing[j] = willing[j], willing[i]
        willing.sort(key=_PRIORITY)  # stable: keeps the shuffle within ties
    for need in willing:
        if spare < need.packet_w:
            continue
        if need.cycle_start:
            if not ledger.reanchor_cycle(need.job_id, now):
                continue
            grants[need.job_id] = grants.get(need.job_id, 0.0) + need.packet_w
            spare -= need.packet_w
            continue
        offer_w = spare if spare < need.willing_w else need.willing_w
        packets = math.floor(offer_w / need.packet_w + 1e-9)
        if packets <= 0:
            continue
        amount = packets * need.packet_w
        grants[need.job_id] = grants.get(need.job_id, 0.0) + amount
        spare -= amount
    total = sum(grants.values())
    if total > cap + CAP_TOL_W:
        raise CapacityViolation(f"granted {total:.1f} W over capacity {cap:.1f} W")
    return grants


@dataclass(slots=True)
class DispatchPlan:
    """Supply-side split for one slot. renewable_used_w is renewable power
    serving load; storage_flow_w is signed (positive charges). The identity
    renewable_used + storage discharge + imported == total served holds
    exactly. Slotted and not frozen, as SlotNeed says."""

    renewable_used_w: float
    storage_flow_w: float
    imported_w: float
    curtailed_w: float


def dispatch_supply(total_granted_w: float, supply: SupplyView) -> DispatchPlan:
    """Merit order renewable -> storage discharge -> import. Surplus renewable
    charges storage, the rest is curtailed. Storage flows stay within the
    view's discharge_max_w and charge_max_w.

    Raises UnderSupply when imports are disallowed and a deficit remains.
    The engine never lets that happen: with imports barred, it sheds grants
    before dispatch until local supply covers them (emergency mode), or
    raises UnderSupply itself when emergency shedding is off.
    """
    if total_granted_w > supply.feeder_capacity_w + CAP_TOL_W:
        raise CapacityViolation("dispatch asked to serve more than feeder capacity")
    # each min(a, b) below is `b if b < a else a`, the operand the builtin
    # returns, a NaN or a signed zero included
    renewable_w = supply.renewable_w
    renewable_used = renewable_w if renewable_w < total_granted_w else total_granted_w
    deficit = total_granted_w - renewable_used
    discharge = 0.0
    if deficit > 0:
        discharge_max_w = supply.discharge_max_w
        discharge = discharge_max_w if discharge_max_w < deficit else deficit
    deficit -= discharge
    imported = 0.0
    if deficit > CAP_TOL_W:
        if not supply.import_allowed:
            raise UnderSupply(deficit)
        imported = deficit
    else:
        renewable_used += deficit  # absorb watt-level epsilon into renewables
        deficit = 0.0
    surplus = renewable_w - renewable_used
    charge = 0.0
    if surplus > 0 and discharge == 0:
        charge_max_w = supply.charge_max_w
        charge = charge_max_w if charge_max_w < surplus else surplus
    curtailed = surplus - charge
    return DispatchPlan(renewable_used, charge - discharge, imported, curtailed)


@dataclass(frozen=True)
class ReferenceSignal:
    """Per-epoch target aggregate power for the fleet mode."""

    values_w: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values_w:
            raise MalformedRequest("reference signal must be non-empty")
        check_finite(self, "reference")
        if not all(v >= 0 for v in self.values_w):
            raise MalformedRequest("reference power must be non-negative")

    def at(self, epoch: int) -> float:
        return self.values_w[min(epoch, len(self.values_w) - 1)]

    @classmethod
    def constant(cls, watts: float, epochs: int = 1) -> "ReferenceSignal":
        return cls(values_w=(watts,) * max(epochs, 1))


def track_reference(
    request_ids: Sequence[str],
    reference_w: float,
    currently_on_w: float,
    packet_w: float,
    rng: random.Random,
) -> list[str]:
    """Accept a uniformly random subset of fleet requests, each a packet of
    `packet_w` watts, sized to close the gap to the reference without
    overshooting it from below.

    Force-on devices are part of currently_on_w and are never rejected;
    force-off devices never request in the first place.
    """
    if not request_ids:
        return []
    budget = reference_w - currently_on_w
    if budget <= 0:
        return []
    count = min(len(request_ids), math.floor(budget / packet_w + 1e-9))
    if count <= 0:
        return []
    return rng.sample(list(request_ids), count)


def handle_rejection_retry(now: int, backoff_max: int, rng: random.Random) -> int:
    """Slot at which a rejected device asks again: uniform backoff in
    [1, backoff_max] avoids synchronized retry storms."""
    if backoff_max < 1:
        raise MalformedRequest("backoff bound must be at least 1")
    return now + rng.randint(1, backoff_max)
