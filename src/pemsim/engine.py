"""Deterministic slot-driven simulation loop.

Each slot runs a fixed phase order: (1) deliver due messages, (2) devices
emit requests and retries, (3) the server admits, (4) the server allocates
the slot, (5) supply capability check with emergency shedding, (6) device
physics, (7) metrics. Admission before allocation lets a request issued at
slot t start at slot t when the channel is instantaneous. Identical seeds
give bit-identical results; all randomness flows through per-purpose
substreams of the scenario seed.

Per-slot work touches only the jobs whose state can change. A household job
is in one of two roles:

- stepping: a battery or cycle that is accepted and not yet done or failed,
  and a thermal job from min(preheat_from, service_start - 1) until it is
  done or fails, accepted or not, since its step records the service-window
  temperatures and finishes it. Phase (4) asks these jobs for their needs
  in device order (a thermal job has none until it is accepted), and phase
  (6) runs `apply` on them in device order, because a finishing job
  releases its ledger commitment;
- idle: any other job, which draws 0 W. A battery or cycle holds its state,
  so its trace repeats the held value; a thermal node cools by the unheated
  Euler step, so its trace iterates that step. Either way the trace, and a
  node's temperature, are filled in only when the job next steps, sends a
  request, or the run ends.

The stepping list is rebuilt only when a role can change: a delivered
decision accepts or fails a job, a job finishes, a shed cycle fails, or a
thermal job reaches its first stepping slot. A capacity reject only moves a
retry slot, and a decision that reaches an accepted job is ignored. Phase
(2) wakes jobs from a slot index: a job is filed under its `next_emit` slot
(its first request, a retry or a re-ask) each time that slot is set, and a
slot's entries that no longer match are skipped, so each wake sends or
fails.

Household battery and thermal jobs keep their evolving state as one float
(`soc_wh`, `temp_c`) and read their constants from the device's config,
which Scenario.validate has checked. A battery steps through devices._absorb
and a thermal node through devices._euler_temp with the config as the node,
so a trace iterates that one step at the granted (clamped) watts, bit for
bit. A fixed cycle keeps `started_at` and `progress` as ints and steps its
own profile; the supply side keeps the storage charge as the float `soc_wh`.

A job's needs are re-planned only when its state moves. A battery plans its
watts and its forced window from its charge at construction and after each
step that takes the _absorb path; a step with no grant appends the held
charge, exactly as _absorb at 0 W would, and keeps the plan. A thermal job
builds its two needs (rated forced, rated willing in packets) once, and a
cycle its forced need per profile slot and its start need. The SlotNeeds
are handed to allocate_slot again slot after slot, which is sound because
allocate_slot writes none of them.

Each min(a, b) and max(a, b) on the per-slot path is written as the
comparison that the builtin makes, `b if b < a else a` and `b if b > a
else a`, which returns the builtin's operand, a NaN or a signed zero
included, without the call (tests/test_comparison_forms.py checks each
against the builtin form).

A run records its slots once, in the SlotTable its _Supply owns: phase (6)
writes each stepping job's grant and consumption into the job's columns in
place, and phase (7) appends the slot's supply to the scalar columns. The
audit, the summary and slots.csv read those columns. A fleet run writes its
aggregate watts into the table's one device column and keeps the rest of
each epoch as one row, transposed into its FleetTable at the end.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .comms import (
    AggregatedReport,
    Delivered,
    MessageKind,
    MessageRecord,
    aggregate_reports,
    audit_budget,
    transmit,
)
from .core import (
    Accept,
    CAP_TOL_W,
    COMPLETION_TOL_WH,
    FlexibleTotalRequest,
    GrantDecision,
    LoadRequest,
    MalformedRequest,
    RejectReason,
    TimeGrid,
    substream,
)
from .devices import _absorb, _euler_temp
from .scenario import (
    BatteryConfig,
    CycleConfig,
    DeviceConfig,
    HeaterFleetConfig,
    Scenario,
    ThermalConfig,
    _cycle_request,
    _thermal_request,
)
from .server import (
    CommitmentLedger,
    SlotNeed,
    SupplyView,
    UnderSupply,
    dispatch_supply,
    handle_rejection_retry,
    needed_full_slots,
    allocate_slot,
    thermal_forced_need,
    track_reference,
)

# Tolerance the conservation auditor enforces, relative per slot and on the
# whole-run integral.
AUDIT_REL_TOL = 1e-6


class ContiguityViolation(RuntimeError):
    """An in-progress fixed cycle was denied power. Signals a server bug,
    never a device decision."""


@dataclass(slots=True)
class SlotTable:
    """A run's slots as columns indexed by slot: one granted and one
    consumed column per device id, preallocated at 0.0 (a fleet's aggregate
    column is both), the renewable trace, and the columns that each settled
    slot appends to. `consumed_total_w` is the fsum of the slot's device
    consumption, which dispatch served."""

    granted_w: dict[str, list[float]]
    consumed_w: dict[str, list[float]]
    renewable_available_w: tuple[float, ...]
    renewable_used_w: list[float] = field(default_factory=list)
    storage_soc_wh: list[float] = field(default_factory=list)
    storage_flow_w: list[float] = field(default_factory=list)
    imported_w: list[float] = field(default_factory=list)
    curtailed_w: list[float] = field(default_factory=list)
    consumed_total_w: list[float] = field(default_factory=list)
    emergency: list[bool] = field(default_factory=list)


@dataclass
class RequestOutcome:
    """Life of one request: decision, retries, service and completion."""

    device_id: str
    kind: str
    issued_slot: int
    deadline_slot: int | None = None
    decided_slot: int | None = None
    accepted: bool | None = None
    reject_reason: str | None = None
    retries: int = 0
    forced_start: int | None = None
    first_service_slot: int | None = None
    completion_slot: int | None = None
    deadline_met: bool | None = None
    service_failed: bool = False
    shed: bool = False

    @property
    def waiting_slots(self) -> int | None:
        if self.first_service_slot is None:
            return None
        return self.first_service_slot - self.issued_slot


@dataclass
class ShedEvent:
    slot: int
    device_id: str
    watts: float


@dataclass(slots=True)
class FleetTable:
    """A fleet run's epochs as columns indexed by epoch: the reference, the
    request and acceptance counts, the override counts as classified at the
    epoch's start, and the temperatures over all heaters after its step
    (`temp_mean_c` is their fsum over the count). The aggregate watts are
    the run's SlotTable fleet column."""

    reference_w: list[float]
    requests: list[int]
    accepted: list[int]
    force_on: list[int]
    force_off: list[int]
    temp_min_c: list[float]
    temp_max_c: list[float]
    temp_mean_c: list[float]


@dataclass
class RunResult:
    """One run. A household run fills every field but `fleet`, and
    `device_traces` and `final_states` hold one entry per household device.
    A fleet run fills `slots`, whose one device column is the aggregate
    watts, and `fleet`; its request, channel, meter and shed lists and its
    two device dicts are empty."""

    seed: int
    grid: TimeGrid
    slots: SlotTable
    requests: list[RequestOutcome]
    channel: list[MessageRecord]
    aggregated: list[AggregatedReport]
    shed_events: list[ShedEvent]
    device_traces: dict[str, tuple[float, ...]]
    final_states: dict[str, dict]
    fleet: FleetTable | None = None


_KIND_KEY = {
    MessageKind.PACKET_REQUEST: "request",
    MessageKind.GRANT: "grant",
    MessageKind.REJECT: "grant",
    MessageKind.METER_REPORT: "meter",
    MessageKind.TRIP_SIGNAL: "trip",
}


class _ChannelLayer:
    """Routes protocol messages through their configured channel profile.

    Per-message RNG substreams are derived from (seed, message id), so one
    message's outcome never perturbs any other draw in the run. With channels
    disabled, messages pass through instantaneously and unlogged.
    """

    def __init__(self, profiles, grid: TimeGrid, seed: int):
        self.enabled = profiles is not None
        # kind -> profile, resolved once instead of per message
        self.profile_of = (
            {kind: profiles[key] for kind, key in _KIND_KEY.items()} if self.enabled else None
        )
        self.slot_ms = grid.slot_ms
        self.seed = seed
        self.records: list[MessageRecord] = []
        self._next_id = 0

    def send_at(self, kind: MessageKind, sent_ms: float) -> float | None:
        """Transmit now; returns delivery time in ms, or None when dropped."""
        if self.profile_of is None:
            return sent_ms
        profile = self.profile_of[kind]
        msg_id = self._next_id
        self._next_id = msg_id + 1
        outcome = transmit(sent_ms, profile, substream(self.seed, "msg", msg_id))
        at_ms = outcome.at_ms if isinstance(outcome, Delivered) else None
        self.records.append(
            MessageRecord(msg_id, kind, profile.cls, sent_ms, at_ms, outcome.attempts)
        )
        return at_ms

    def send_slot(self, kind: MessageKind, slot: int) -> int | None:
        """Transmit at a slot boundary; returns the first slot boundary at or
        after delivery (the same slot only for zero end-to-end time)."""
        slot_ms = self.slot_ms
        sent_ms = slot * slot_ms
        delivered_ms = self.send_at(kind, sent_ms)
        if delivered_ms is None:
            return None
        return slot + math.ceil((delivered_ms - sent_ms) / slot_ms)


class _Supply:
    """The supply side of a run: the renewable trace and the storage charge
    `soc_wh` (0.0 without storage), settled slot by slot into the run's
    SlotTable, `table`, whose device columns the run writes itself."""

    def __init__(self, scenario: Scenario):
        grid = scenario.grid
        self.slot_hours = grid.slot_hours
        self.trace = scenario.renewable_trace()
        self.storage = scenario.storage
        self.soc_wh = self.storage.soc_wh if self.storage is not None else 0.0
        self.import_allowed = scenario.import_allowed
        self.feeder_capacity_w = scenario.feeder_capacity_w
        ids = [device.device_id for device in scenario.devices]
        granted = {i: [0.0] * grid.horizon for i in ids}
        consumed = granted if scenario.is_fleet else {i: [0.0] * grid.horizon for i in ids}
        self.table = SlotTable(granted, consumed, self.trace)

    def view(self, t: int) -> SupplyView:
        """Slot t's supply, with the storage power that the charge and the
        limits allow for the whole slot."""
        storage = self.storage
        discharge_max_w = charge_max_w = 0.0
        if storage is not None:
            slot_h = self.slot_hours
            # min(p_discharge_max_w, soc / slot_h) and
            # min(p_charge_max_w, headroom / slot_h)
            discharge_max_w = storage.p_discharge_max_w
            energy_w = self.soc_wh / slot_h
            if energy_w < discharge_max_w:
                discharge_max_w = energy_w
            charge_max_w = storage.p_charge_max_w
            headroom_w = (storage.capacity_wh - self.soc_wh) / storage.efficiency / slot_h
            if headroom_w < charge_max_w:
                charge_max_w = headroom_w
        return SupplyView(
            self.trace[t], discharge_max_w, charge_max_w, self.import_allowed, self.feeder_capacity_w
        )

    def settle(self, supply: SupplyView, consumed_w: float, emergency: bool = False) -> None:
        """Serve the next slot's `consumed_w` watts from its supply view,
        move the storage charge by the dispatched flow, and append the slot
        to the table's scalar columns. The flow is within the view's limits,
        so the charge stays in [0, capacity]."""
        plan = dispatch_supply(consumed_w, supply)
        flow = plan.storage_flow_w
        if flow > 0.0:  # min(capacity, charged)
            capacity_wh = self.storage.capacity_wh
            charged = self.soc_wh + flow * self.slot_hours * self.storage.efficiency
            self.soc_wh = charged if charged < capacity_wh else capacity_wh
        elif flow < 0.0:  # discharging: max(0.0, soc - (-flow) * slot_h), the
            # difference written as a sum
            left = self.soc_wh + flow * self.slot_hours
            self.soc_wh = left if left > 0.0 else 0.0
        table = self.table
        table.renewable_used_w.append(plan.renewable_used_w)
        table.storage_soc_wh.append(self.soc_wh)
        table.storage_flow_w.append(flow)
        table.imported_w.append(plan.imported_w)
        table.curtailed_w.append(plan.curtailed_w)
        table.consumed_total_w.append(consumed_w)
        table.emergency.append(emergency)


# ---------------------------------------------------------------------------
# Household device runtimes
# ---------------------------------------------------------------------------

class _HouseholdJob:
    """Shared request/retry/decision plumbing for household devices."""

    kind_name = "job"

    def __init__(self, device_id: str, priority: int, grid: TimeGrid, seed: int, backoff_max: int):
        self.device_id = device_id
        self.priority = priority
        self.slot_min = grid.slot_min
        self.slot_hours = grid.slot_hours
        self.backoff_max = backoff_max
        self.seed = seed
        self.retry_rng: random.Random | None = None  # drawn on the first capacity rejection
        # the slot of the next request, retry or re-ask; None while none is due
        self.next_emit: int | None = None
        self.active_from: int | None = None
        self.done = False
        self.failed = False
        self.outcome: RequestOutcome | None = None
        # the state after each slot the job has recorded; an idle job's
        # slots are filled in later, by fill_trace
        self.trace: list[float] = []

    def steps_at(self, now: int) -> bool:
        """Whether slot `now` asks the job for its need and runs `apply`;
        otherwise the job is idle and draws 0 W. A battery or cycle steps
        while it is accepted and not yet done or failed."""
        return self.active_from is not None and not self.done and not self.failed

    def fill_trace(self, upto: int) -> None:
        """Record the idle slots before slot `upto` that the trace lacks:
        the held state, repeated."""
        self.trace.extend([self.trace_value()] * (upto - len(self.trace)))

    # subclass hooks -------------------------------------------------------
    def build_request(self, now: int) -> LoadRequest:
        raise NotImplementedError

    def window_closed(self, now: int) -> bool:
        raise NotImplementedError

    def deadline_slot(self) -> int:
        raise NotImplementedError

    def slot_need(self, now: int) -> SlotNeed | None:
        """This slot's need, None for none; called only where steps_at
        holds, once the trace is filled up to the slot."""
        raise NotImplementedError

    def apply(self, granted_w: float, now: int, ledger: CommitmentLedger) -> float:
        """Step one slot at the granted watts, append the state after it to
        the trace, and return the watts consumed. Called only at a slot
        where steps_at holds, once the trace is filled up to it."""
        raise NotImplementedError

    def trace_value(self) -> float:
        """The held state that fill_trace repeats for an idle battery or
        cycle; a thermal node fills its idle slots by stepping instead."""
        raise NotImplementedError

    # protocol plumbing ------------------------------------------------------
    def maybe_emit(self, now: int) -> LoadRequest | None:
        """The request to send at `now`, or None if the job fails instead.
        Called only from `next_emit` on, on a job that is not yet done,
        failed or accepted: such a job never emits again."""
        if self.window_closed(now):
            self._fail(now)
            return None
        request = self.build_request(now)
        if self.outcome is None:
            self.outcome = RequestOutcome(
                device_id=self.device_id,
                kind=self.kind_name,
                issued_slot=now,
                deadline_slot=self.deadline_slot(),
            )
        else:
            self.outcome.retries += 1
        self.next_emit = now + self.backoff_max + 1  # re-ask if no answer came by then
        return request

    def on_decision(self, decision: GrantDecision, slot: int) -> None:
        """Take a decision. One that reaches an accepted, done or failed job
        is ignored: over a slow channel a Reject of an earlier request can
        arrive after the Accept of the job's re-ask."""
        if self.done or self.failed or self.active_from is not None:
            return
        self.next_emit = None
        if self.outcome is not None and self.outcome.decided_slot is None:
            self.outcome.decided_slot = slot
        if isinstance(decision, Accept):
            self.active_from = slot
            self.outcome.accepted = True
            self.outcome.forced_start = decision.forced_start
            return
        self.outcome.accepted = False
        self.outcome.reject_reason = decision.reason.value
        if decision.reason is RejectReason.CAPACITY_EXCEEDED:
            if self.retry_rng is None:
                # keyed by the device, so when it is drawn moves no other draw
                self.retry_rng = substream(self.seed, "device", self.device_id, "retry")
            self.next_emit = handle_rejection_retry(slot, self.backoff_max, self.retry_rng)
        else:
            self._fail(slot)

    def on_forced_shed(self, slot: int, ledger: CommitmentLedger) -> None:
        if self.outcome is not None:
            self.outcome.shed = True

    def _fail(self, slot: int) -> None:
        self.failed = True
        if self.outcome is None:
            self.outcome = RequestOutcome(
                device_id=self.device_id, kind=self.kind_name, issued_slot=slot,
                deadline_slot=self.deadline_slot(),
            )
        self.outcome.service_failed = True

    def _mark_service(self, now: int, consumed_w: float) -> None:
        if consumed_w > 0 and self.outcome.first_service_slot is None:
            self.outcome.first_service_slot = now


class _BatteryJob(_HouseholdJob):
    """A charging job; its state is the charge `soc_wh`, stepped by
    devices._absorb. Its need is a function of the charge, planned by _plan
    at construction and after each apply that calls _absorb."""

    kind_name = "battery"

    def __init__(self, cfg: BatteryConfig, grid: TimeGrid, seed: int, backoff_max: int):
        super().__init__(cfg.device_id, cfg.priority, grid, seed, backoff_max)
        self.cfg = cfg
        self.soc_wh = cfg.initial_soc_wh
        if self.soc_wh is None:
            init = substream(seed, "device", cfg.device_id, "init")
            self.soc_wh = init.uniform(0.0, cfg.capacity_wh / 2.0)
        self.next_emit = cfg.arrival
        self._plan()

    def _plan(self) -> None:
        """Plan the need for the current charge. Before `need_until` (the
        deadline, or 0 for a battery within COMPLETION_TOL_WH of full, which
        needs nothing) the battery asks for `want_w`: in packets before
        `forced_from`, in full from it on. Each SlotNeed is built when
        slot_need first asks for it."""
        cfg = self.cfg
        remaining = cfg.capacity_wh - self.soc_wh
        if remaining <= COMPLETION_TOL_WH:
            self.want_w = 0.0
            self.need_until = 0
            return
        want_w = remaining / self.slot_hours  # min(p_max_w, want_w)
        self.want_w = want_w if want_w < cfg.p_max_w else cfg.p_max_w
        self.need_until = cfg.deadline
        self.forced_from = cfg.deadline - needed_full_slots(remaining, cfg.p_max_w, self.slot_hours)
        self._forced_need = self._willing_need = None

    def deadline_slot(self) -> int:
        return self.cfg.deadline

    def window_closed(self, now: int) -> bool:
        remaining = self.cfg.capacity_wh - self.soc_wh
        if remaining <= COMPLETION_TOL_WH:
            return False
        window_h = (self.cfg.deadline - max(now, self.cfg.arrival)) * self.slot_hours
        return remaining > self.cfg.p_max_w * window_h * (1 + 1e-9)

    def build_request(self, now: int) -> LoadRequest:
        cfg = self.cfg
        return FlexibleTotalRequest(
            self.device_id, cfg.capacity_wh - self.soc_wh, cfg.p_max_w, max(now, cfg.arrival),
            cfg.deadline, cfg.packet_w, self.priority, now,
        )

    def slot_need(self, now: int) -> SlotNeed | None:
        if now >= self.need_until:
            return None
        if now >= self.forced_from:
            need = self._forced_need
            if need is None:
                need = self._forced_need = SlotNeed(
                    self.device_id, self.priority, forced_w=self.want_w
                )
            return need
        need = self._willing_need
        if need is None:
            need = self._willing_need = SlotNeed(
                self.device_id, self.priority, willing_w=self.want_w, packet_w=self.cfg.packet_w
            )
        return need

    def apply(self, granted_w: float, now: int, ledger: CommitmentLedger) -> float:
        if granted_w <= 0.0 and self.want_w > 0.0:
            # what _absorb gives at 0 W short of full: the charge plus 0.0
            # (a -0.0 charge reads 0.0 after it) and nothing absorbed
            self.soc_wh += 0.0
            self.trace.append(self.soc_wh)
            return 0.0
        cfg = self.cfg
        self.soc_wh, absorbed_wh = _absorb(
            self.soc_wh, cfg.capacity_wh, cfg.p_max_w, granted_w, self.slot_min
        )
        self.trace.append(self.soc_wh)
        consumed_w = absorbed_wh / self.slot_hours
        self._mark_service(now, consumed_w)
        self._plan()
        if self.want_w == 0.0:  # within COMPLETION_TOL_WH of full
            self.done = True
            self.outcome.completion_slot = now
            self.outcome.deadline_met = now < cfg.deadline
            ledger.release(self.device_id, now + 1)
        return consumed_w

    def trace_value(self) -> float:
        return self.soc_wh

    def final_state(self) -> dict:
        return {"soc_wh": self.soc_wh}


class _ThermalJob(_HouseholdJob):
    """A temperature-target job; its state is the node temperature `temp_c`,
    stepped by devices._euler_temp with the config as the node."""

    kind_name = "thermal"

    def __init__(self, cfg: ThermalConfig, grid: TimeGrid, seed: int, backoff_max: int):
        super().__init__(cfg.device_id, cfg.priority, grid, seed, backoff_max)
        self.cfg = cfg
        self.grid = grid
        self.temp_c = cfg.initial_c
        self.next_emit = cfg.preheat_from
        # from here on apply records the service-window temperatures and
        # finishes the job, accepted or not; before it, and once the job is
        # done or failed, the node is idle and fill_trace steps it unheated
        self.step_from = min(cfg.preheat_from, cfg.service_start - 1)
        self.temp_at_service_start: float | None = None
        self.service_min_c: float | None = None
        # _euler_temp's heat gain at 0 W and its loss rate, for fill_trace
        dt_h = self.slot_min / 60.0
        self.idle_gain = dt_h * cfg.efficiency * 0.0 / cfg.capacitance_wh_per_c
        self.loss_rate = dt_h * cfg.loss_w_per_c / cfg.capacitance_wh_per_c
        # the only two needs the job states: thermal_forced_need forces 0 W
        # or rated_w
        self.forced_need = SlotNeed(self.device_id, self.priority, forced_w=cfg.rated_w)
        self.willing_need = SlotNeed(
            self.device_id, self.priority, willing_w=cfg.rated_w, packet_w=cfg.quantum_w
        )

    def deadline_slot(self) -> int:
        return self.cfg.service_start

    def window_closed(self, now: int) -> bool:
        return now >= self.cfg.service_end

    def build_request(self, now: int) -> LoadRequest:
        # an idle node's temperature lags; its first request can come at its
        # step_from, before phase (4) fills the stepping jobs
        self.fill_trace(now)
        return _thermal_request(self.cfg, now, self.temp_c)

    def steps_at(self, now: int) -> bool:
        return now >= self.step_from and not self.done and not self.failed

    def fill_trace(self, upto: int) -> None:
        """Step the node unheated through the idle slots before slot `upto`
        that the trace lacks, as apply takes a slot at 0 W, and record each
        temperature. The step is devices._euler_temp's at 0 W, inlined with
        its gain and loss rate computed once: the same grouping, so the same
        temperatures bit for bit."""
        temp_c, trace = self.temp_c, self.trace
        gain, loss_rate, ambient = self.idle_gain, self.loss_rate, self.cfg.ambient_c
        for _ in range(upto - len(trace)):
            temp_c += gain - loss_rate * (temp_c - ambient)
            trace.append(temp_c)
        self.temp_c = temp_c

    def slot_need(self, now: int) -> SlotNeed | None:
        if self.active_from is None:  # stepping, but not accepted
            return None
        if thermal_forced_need(self.temp_c, self.cfg, now, self.grid) > 0:
            return self.forced_need
        if (
            self.cfg.preheat_from <= now < self.cfg.service_start
            and self.temp_c < self.cfg.target_c
        ):
            return self.willing_need
        return None

    def apply(self, granted_w: float, now: int, ledger: CommitmentLedger) -> float:
        cfg = self.cfg
        # min(max(granted_w, 0.0), rated_w)
        consumed_w = 0.0 if 0.0 > granted_w else granted_w
        if cfg.rated_w < consumed_w:
            consumed_w = cfg.rated_w
        temp_c = self.temp_c = _euler_temp(cfg, self.temp_c, consumed_w, self.slot_min)
        self.trace.append(temp_c)
        self._mark_service(now, consumed_w)
        # post-step temperature is the boundary value at slot now+1
        if now + 1 == cfg.service_start:
            self.temp_at_service_start = temp_c
        if cfg.service_start <= now + 1 <= cfg.service_end:
            if self.service_min_c is None or temp_c < self.service_min_c:
                self.service_min_c = temp_c
        if now + 1 == cfg.service_end:
            self.done = True
            if self.outcome is not None and self.outcome.accepted:
                self.outcome.completion_slot = cfg.service_end
                reached = self.temp_at_service_start
                if reached is None:  # service started at slot 0
                    reached = cfg.initial_c
                self.outcome.deadline_met = reached >= cfg.target_c - 0.5
            ledger.release(self.device_id, cfg.service_end)
        return consumed_w

    def final_state(self) -> dict:
        return {
            "temp_c": self.temp_c,
            "temp_at_service_start_c": self.temp_at_service_start,
            "service_min_c": self.service_min_c,
        }


class _CycleJob(_HouseholdJob):
    """A fixed profile that, once started at `started_at`, advances one slot
    per slot; `progress` counts the profile slots run. Its needs are built
    at construction: profile slot i's forced need, and the start need."""

    kind_name = "cycle"

    def __init__(self, cfg: CycleConfig, grid: TimeGrid, seed: int, backoff_max: int):
        super().__init__(cfg.device_id, cfg.priority, grid, seed, backoff_max)
        self.cfg = cfg
        self.started_at: int | None = None
        self.progress = 0
        self.next_emit = cfg.earliest_start
        self.run_needs = [SlotNeed(cfg.device_id, cfg.priority, w) for w in cfg.profile_w]
        first_w = cfg.profile_w[0]
        self.start_need = SlotNeed(cfg.device_id, cfg.priority, 0.0, first_w, first_w, True)

    def deadline_slot(self) -> int:
        return self.cfg.deadline

    def window_closed(self, now: int) -> bool:
        return self.started_at is None and now > self.cfg.latest_start

    def build_request(self, now: int) -> LoadRequest:
        return _cycle_request(self.cfg, now)

    def slot_need(self, now: int) -> SlotNeed | None:
        if self.started_at is not None:  # running, as a finished cycle is done
            return self.run_needs[self.progress]
        latest_start = self.cfg.latest_start
        if now > latest_start:
            return None
        if now == latest_start:
            return self.run_needs[0]
        if now >= self.cfg.earliest_start:
            return self.start_need
        return None

    def apply(self, granted_w: float, now: int, ledger: CommitmentLedger) -> float:
        if self.failed:  # shed earlier in this slot
            self.trace.append(float(self.progress))
            return 0.0
        if granted_w <= CAP_TOL_W:
            if self.started_at is None:
                self.trace.append(0.0)  # no progress yet
                return 0.0
            raise ContiguityViolation(
                f"cycle started at {self.started_at} denied power at slot {now}"
            )
        if self.started_at is None:
            self.started_at = now
        profile_w = self.cfg.profile_w
        consumed_w = profile_w[self.progress]
        self.progress += 1
        self.trace.append(float(self.progress))
        self._mark_service(now, consumed_w)
        if self.progress == len(profile_w):
            self.done = True
            self.outcome.completion_slot = now
            self.outcome.deadline_met = now < self.cfg.deadline
            ledger.release(self.device_id, now + 1)
        return consumed_w

    def on_forced_shed(self, slot: int, ledger: CommitmentLedger) -> None:
        super().on_forced_shed(slot, ledger)
        # a broken cycle cannot resume; the job dies with its commitment
        self.failed = True
        self.outcome.service_failed = True
        ledger.release(self.device_id, slot)

    def trace_value(self) -> float:
        return float(self.progress)

    def final_state(self) -> dict:
        return {"progress": self.progress, "started_at": self.started_at}


def _make_job(cfg: DeviceConfig, grid: TimeGrid, seed: int, backoff_max: int) -> _HouseholdJob:
    if isinstance(cfg, BatteryConfig):
        return _BatteryJob(cfg, grid, seed, backoff_max)
    if isinstance(cfg, ThermalConfig):
        return _ThermalJob(cfg, grid, seed, backoff_max)
    if isinstance(cfg, CycleConfig):
        return _CycleJob(cfg, grid, seed, backoff_max)
    raise MalformedRequest(f"unsupported household device {type(cfg).__name__}")


# ---------------------------------------------------------------------------
# Household run
# ---------------------------------------------------------------------------

def _shed_grants(
    grants: dict[str, float],
    total_w: float,
    capability_w: float,
    ledger: CommitmentLedger,
    jobs_by_id: dict[str, _HouseholdJob],
    slot: int,
    shed_events: list[ShedEvent],
) -> None:
    """Emergency mode: cut whole grants of `total_w` in all, least important
    job first (then by id), until local supply covers the rest, logging
    every cut. allocate_slot keeps an islanded slot's opportunistic grants
    within local supply, so only forced grants outrun it: each cut job is
    shed."""
    granted = [j for j in grants if grants[j] > CAP_TOL_W]
    for job_id in sorted(granted, key=lambda j: (-jobs_by_id[j].priority, j)):
        if total_w <= capability_w + CAP_TOL_W:
            return
        cut = grants.pop(job_id)
        total_w -= cut
        jobs_by_id[job_id].on_forced_shed(slot, ledger)
        shed_events.append(ShedEvent(slot, job_id, cut))


def _emit_trip_traffic(channels: _ChannelLayer, rate_per_hour: float, grid: TimeGrid, seed: int) -> None:
    """Synthetic protection-class traffic: Poisson arrivals, log-only."""
    rng = substream(seed, "trip")
    rate_per_ms = rate_per_hour / 3_600_000.0
    horizon_ms = grid.horizon * grid.slot_ms
    t_ms = rng.expovariate(rate_per_ms)
    while t_ms < horizon_ms:
        channels.send_at(MessageKind.TRIP_SIGNAL, t_ms)
        t_ms += rng.expovariate(rate_per_ms)


def _run_household(scenario: Scenario) -> RunResult:
    grid = scenario.grid
    policy = scenario.policy
    supply_side = _Supply(scenario)
    ledger = CommitmentLedger(grid, scenario.feeder_capacity_w)
    channels = _ChannelLayer(scenario.channels, grid, scenario.seed)
    slot_ms = channels.slot_ms
    server_rng = substream(scenario.seed, "server")
    jobs = [
        _make_job(cfg, grid, scenario.seed, policy.backoff_max)
        for cfg in scenario.devices
    ]
    jobs_by_id = {job.device_id: job for job in jobs}
    table = supply_side.table
    granted_of, consumed_of = table.granted_w, table.consumed_w
    thermal_entries = {job.step_from for job in jobs if isinstance(job, _ThermalJob)}
    position = {job: i for i, job in enumerate(jobs)}
    # slot -> the jobs filed under it as their next_emit; an entry goes stale
    # when the job's next_emit moves on or the job settles
    wake: dict[int, list[_HouseholdJob]] = {}

    def file_wake(job: _HouseholdJob) -> None:
        if job.next_emit is not None and not (job.done or job.failed):
            wake.setdefault(job.next_emit, []).append(job)

    for job in jobs:
        file_wake(job)

    request_inbox: dict[int, list[tuple[_HouseholdJob, LoadRequest]]] = {}
    decision_outbox: dict[int, list[tuple[_HouseholdJob, GrantDecision]]] = {}
    delivered_meters: list[tuple[float, float]] = []
    shed_events: list[ShedEvent] = []
    # phase (7)'s meter reports: one per job and slot, in device order
    send_at, meter = channels.send_at, MessageKind.METER_REPORT
    meter_columns = [consumed_of[job.device_id] for job in jobs]

    # the jobs' roles, rebuilt only when one changes: a delivered decision
    # accepts or fails a job, a job finishes, a shed cycle fails, or a
    # thermal job reaches its step_from. A job that fails at emit was never
    # accepted, so a battery or cycle stays idle; a thermal job's window
    # closes at its service end, and apply finishes the job first (slot 0
    # rebuilds after its emits anyway).
    changed = True
    for t in range(grid.horizon):
        # (1) deliver messages due at this boundary
        for job, decision in decision_outbox.pop(t, ()):
            job.on_decision(decision, t)
            file_wake(job)
            changed = changed or job.active_from == t or job.failed

        # (2) devices emit requests, retries, and lost-response re-asks: the
        # jobs filed under slot t that still have it as their next_emit and
        # are not done, failed or accepted, in device order. A job filed
        # twice under t emits once: its second entry is stale by then
        due = wake.pop(t, ())
        if len(due) > 1:
            due.sort(key=position.__getitem__)
        for job in due:
            if job.next_emit != t or job.done or job.failed or job.active_from is not None:
                continue
            request = job.maybe_emit(t)
            if request is None:
                continue
            file_wake(job)  # its re-ask
            delivery = channels.send_slot(MessageKind.PACKET_REQUEST, t)
            if delivery is not None:  # else dropped; device asks again after its wait
                request_inbox.setdefault(delivery, []).append((job, request))

        # (3) server admits the requests delivered by now: those filed under
        # slot t in earlier slots, then this slot's
        for job, request in request_inbox.pop(t, ()):
            decision = ledger.admit(request, now=t)
            kind = MessageKind.GRANT if isinstance(decision, Accept) else MessageKind.REJECT
            delivery = channels.send_slot(kind, t)
            if delivery is None:
                continue  # dropped decision; the ledger answer is idempotent
            if delivery == t:
                job.on_decision(decision, t)
                file_wake(job)
                changed = changed or job.active_from == t or job.failed
            else:
                decision_outbox.setdefault(delivery, []).append((job, decision))

        # (4) per-slot allocation among the stepping jobs' needs, in device
        # order, which allocate_slot's sums and shuffle depend on
        if changed or t in thermal_entries:
            changed = False
            stepping = [job for job in jobs if job.steps_at(t)]
            for job in stepping:
                job.fill_trace(t)
        needs = [n for job in stepping if (n := job.slot_need(t)) is not None]
        supply = supply_side.view(t)
        grants = allocate_slot(
            ledger, needs, supply, server_rng, now=t,
            renewable_first=policy.renewable_first,
        )

        # (5) capability check; emergency shedding when imports are barred.
        # allocate_slot kept opportunistic power within local supply (up to
        # its 1e-9-of-a-packet rounding), so only forced grants can outrun it
        emergency = False
        if not scenario.import_allowed:
            capability = supply.renewable_w + supply.discharge_max_w
            total = math.fsum(grants.values())
            if total > capability + CAP_TOL_W:
                if not policy.emergency_shedding:
                    raise UnderSupply(total - capability)
                emergency = True
                first_cut = len(shed_events)
                _shed_grants(grants, total, capability, ledger, jobs_by_id, t, shed_events)
                # a shed cycle fails; a shed battery or thermal job steps on
                changed = changed or any(
                    jobs_by_id[event.device_id].failed for event in shed_events[first_cut:]
                )

        # (6) device physics, in device order, since finishing jobs release
        # their commitments; each step appends the state after it to the
        # trace. Only stepping jobs hold grants (allocate_slot grants needs
        # alone), and an idle job's columns keep their 0.0
        served = []
        for job in stepping:
            device_id = job.device_id
            granted_w = grants.get(device_id, 0.0)
            consumed_w = job.apply(granted_w, t, ledger)
            granted_of[device_id][t] = granted_w
            consumed_of[device_id][t] = consumed_w
            served.append(consumed_w)
            changed = changed or job.done

        # (7) supply dispatch, storage and metrics
        supply_side.settle(supply, math.fsum(served), emergency)
        if channels.enabled:
            meter_ms = (t + 1) * slot_ms
            for column in meter_columns:
                delivered = send_at(meter, meter_ms)
                if delivered is not None:
                    delivered_meters.append((delivered, column[t]))

    if channels.enabled and scenario.trip_rate_per_hour > 0:
        _emit_trip_traffic(channels, scenario.trip_rate_per_hour, grid, scenario.seed)

    outcomes: list[RequestOutcome] = []
    final_states: dict[str, dict] = {}
    frozen_traces: dict[str, tuple[float, ...]] = {}
    for job in jobs:
        job.fill_trace(grid.horizon)
        frozen_traces[job.device_id] = tuple(job.trace)
        final_states[job.device_id] = job.final_state()
        if job.outcome is not None:
            if job.outcome.accepted and job.outcome.deadline_met is None:
                job.outcome.deadline_met = False
            outcomes.append(job.outcome)

    return RunResult(
        seed=scenario.seed,
        grid=grid,
        slots=table,
        requests=outcomes,
        channel=channels.records,
        aggregated=aggregate_reports(delivered_meters, slot_ms),
        shed_events=shed_events,
        device_traces=frozen_traces,
        final_states=final_states,
    )


# ---------------------------------------------------------------------------
# Fleet run
# ---------------------------------------------------------------------------

def _run_fleet(scenario: Scenario) -> RunResult:
    grid = scenario.grid
    cfg = next(d for d in scenario.devices if isinstance(d, HeaterFleetConfig))
    params = cfg.params
    n = cfg.count
    reference = scenario.reference
    supply_side = _Supply(scenario)

    init_rng = substream(scenario.seed, "fleet", "init")
    temps = [init_rng.uniform(params.t_low_c, params.t_high_c) for _ in range(n)]
    request_random = substream(scenario.seed, "fleet", "requests").random
    draw_random = substream(scenario.seed, "fleet", "draws").random
    server_rng = substream(scenario.seed, "server")
    # the last epoch a heater's packet heats it, -1 for none: a force-on leaves
    # it to run out, a force-off aborts it
    packet_last = [-1] * n

    dt_h = grid.slot_min / 60.0
    heat_gain = dt_h * params.efficiency * params.rated_w / params.capacitance_wh_per_c
    loss_rate = dt_h * params.loss_w_per_c / params.capacitance_wh_per_c
    ambient = params.ambient_c
    force_on_below = params.t_low_c - params.override_margin_c
    t_low, t_high = params.t_low_c, params.t_high_c
    span = t_high - t_low
    mu_max = params.mu_max
    draw_prob = params.draw_prob
    draw_min = params.draw_min_c
    draw_width = params.draw_max_c - params.draw_min_c
    rated_w = params.rated_w
    gain = [0.0] * n  # heat_gain for a heater that heats in the coming epoch

    power = supply_side.table.granted_w[cfg.device_id]  # also the consumed column
    rows = []  # one FleetTable row per epoch

    # Before each epoch a heater is classified against the comfort band (see
    # WaterHeaterParams) and, if free and NORMAL, draws its request. The
    # streams fleet/requests, fleet/draws and server are independent and each
    # is drawn in heater-index order, so one pass can step a heater through
    # epoch e and then classify it for e+1 with every draw unchanged
    # (test_engine_matches_reference_loop in tests/test_fleet.py checks it
    # against a loop that steps all heaters, then classifies all). Epoch 0's
    # classification runs alone, before any heater holds a packet.
    requesters: list[int] = []
    force_on = force_off = carrying = 0
    for i, temp in enumerate(temps):
        if temp < force_on_below:
            force_on += 1
            gain[i] = heat_gain
        elif temp > t_high:
            force_off += 1
        elif request_random() < (mu_max if temp < t_low else mu_max * ((t_high - temp) / span)):
            requesters.append(i)

    for e in range(grid.horizon):
        reference_w = reference.at(e)
        on_power = rated_w * (force_on + carrying)
        accepted = track_reference(requesters, reference_w, on_power, rated_w, server_rng)
        for i in accepted:
            packet_last[i] = e + cfg.packet_epochs - 1
            gain[i] = heat_gain
        aggregate_w = rated_w * (force_on + carrying + len(accepted))
        requests, forced_on, forced_off = len(requesters), force_on, force_off

        requesters = []
        force_on = force_off = carrying = 0
        # The epoch's temperature extremes fall out of the forced branches:
        # every force-on temperature is below force_on_below and no other one
        # is, so the coldest force-on heater is the coldest heater; likewise
        # the hottest force-off heater (above t_high) is the hottest. Strict
        # comparisons in index order keep the element min() and max() return.
        # Only an epoch with no force-on (no force-off) heater leaves its bound
        # unbeaten, and only then does the row scan temps with min() (max()).
        coldest, hottest = force_on_below, t_high
        for i, temp in enumerate(temps):
            # devices._euler_temp's step, inlined for the n*epochs loop with
            # its gain and loss rate computed once (the same grouping, so the
            # same temperature bit for bit), then a random.uniform draw inlined
            temp += gain[i] - loss_rate * (temp - ambient)
            if draw_random() < draw_prob:
                temp -= draw_min + draw_width * draw_random()
            temps[i] = temp
            if temp < force_on_below:
                force_on += 1
                gain[i] = heat_gain
                if temp < coldest:
                    coldest = temp
            elif temp > t_high:
                force_off += 1
                gain[i] = 0.0
                packet_last[i] = -1
                if temp > hottest:
                    hottest = temp
            elif packet_last[i] > e:  # heated through epoch e, so gain[i] is heat_gain
                carrying += 1
            else:
                gain[i] = 0.0
                # the clamped urgency: (t_high - temp) / span rounds to at
                # least 1 below t_low and to at most 1 from t_low up
                if request_random() < (mu_max if temp < t_low else mu_max * ((t_high - temp) / span)):
                    requesters.append(i)

        power[e] = aggregate_w
        supply_side.settle(supply_side.view(e), aggregate_w)
        rows.append((
            reference_w, requests, len(accepted), forced_on, forced_off,
            coldest if force_on else min(temps), hottest if force_off else max(temps),
            math.fsum(temps) / n,
        ))

    return RunResult(
        seed=scenario.seed,
        grid=grid,
        slots=supply_side.table,
        requests=[],
        channel=[],
        aggregated=[],
        shed_events=[],
        device_traces={},
        final_states={},
        fleet=FleetTable(*map(list, zip(*rows))),
    )


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def run_scenario(scenario: Scenario) -> RunResult:
    """Execute one scenario end to end. A pure function of the scenario,
    seed included."""
    scenario.validate()
    if scenario.is_fleet:
        return _run_fleet(scenario)
    return _run_household(scenario)


def audit_conservation(result: RunResult) -> int | None:
    """Verify the per-slot supply identity and the whole-run integral.

    renewable_used + storage discharge + imported must equal the slot's
    `consumed_total_w` in every slot (relative 1e-6), and the same must hold
    for the compensated whole-run sums. Returns None when clean, else the
    first violating slot.
    """
    slot_h = result.grid.slot_hours
    table = result.slots
    consumed_terms = []
    supplied_terms = []
    # each test is written to pass only a number within bounds, so a NaN
    # anywhere in a slot fails it
    for t, (consumed_w, used_w, flow_w, imported_w, curtailed_w) in enumerate(zip(
        table.consumed_total_w, table.renewable_used_w, table.storage_flow_w,
        table.imported_w, table.curtailed_w,
    )):
        consumed_wh = consumed_w * slot_h
        # min(flow_w, 0.0) and max(1.0, abs(consumed_wh))
        outflow_w = 0.0 if 0.0 < flow_w else flow_w
        supplied_wh = (used_w - outflow_w + imported_w) * slot_h
        scale = abs(consumed_wh)
        if not scale > 1.0:
            scale = 1.0
        if not abs(consumed_wh - supplied_wh) <= AUDIT_REL_TOL * scale:
            return t
        if not curtailed_w >= -CAP_TOL_W:
            return t
        consumed_terms.append(consumed_wh)
        supplied_terms.append(supplied_wh)
    total_consumed = math.fsum(consumed_terms)
    total_supplied = math.fsum(supplied_terms)
    if not abs(total_consumed - total_supplied) <= AUDIT_REL_TOL * max(1.0, abs(total_consumed)):
        return len(consumed_terms) - 1  # the last slot; a run without slots passes
    return None


def summarize_run(result: RunResult) -> dict:
    """Roll a run up into the summary the CLI writes: accounting integrals,
    request outcomes, channel audit."""
    slot_h = result.grid.slot_hours
    table = result.slots
    consumed_wh = math.fsum(table.consumed_total_w) * slot_h
    renewable_wh = math.fsum(table.renewable_used_w) * slot_h
    imported_wh = math.fsum(table.imported_w) * slot_h
    curtailed_wh = math.fsum(table.curtailed_w) * slot_h
    # the sums of max(0.0, -flow) and max(0.0, flow): fsum is exact, so the
    # zero terms, dropped here, add nothing
    flows = table.storage_flow_w
    discharge_wh = math.fsum([-flow for flow in flows if flow < 0.0]) * slot_h
    charge_wh = math.fsum([flow for flow in flows if flow > 0.0]) * slot_h

    accepted = sum(1 for o in result.requests if o.accepted)
    rejected = sum(1 for o in result.requests if o.accepted is False and o.service_failed)
    failed = sum(1 for o in result.requests if o.service_failed)
    misses = sum(1 for o in result.requests if o.accepted and o.deadline_met is False)
    waits = [o.waiting_slots for o in result.requests if o.waiting_slots is not None]
    violation_rates = audit_budget(result.channel)

    summary = {
        "seed": result.seed,
        "slots": len(table.emergency),
        "accepted": accepted,
        "rejected_final": rejected,
        "service_failed": failed,
        "deadline_misses": misses,
        "mean_waiting_slots": (sum(waits) / len(waits)) if waits else None,
        "total_consumed_wh": consumed_wh,
        "renewable_used_wh": renewable_wh,
        "imported_wh": imported_wh,
        "curtailed_wh": curtailed_wh,
        "storage_discharge_wh": discharge_wh,
        "storage_charge_wh": charge_wh,
        "emergency_slots": sum(table.emergency),
        "shed_events": len(result.shed_events),
        "messages_sent": len(result.channel),
        "messages_dropped": sum(1 for m in result.channel if m.delivered_at_ms is None),
        "budget_violation_rates": {k.value: v for k, v in violation_rates.items()},
    }
    fleet = result.fleet
    if fleet is not None:
        (aggregate_w,) = table.granted_w.values()
        errors = [abs(a - r) for a, r in zip(aggregate_w, fleet.reference_w)]
        summary["fleet"] = {
            "epochs": len(fleet.reference_w),
            "mean_abs_tracking_error_w": sum(errors) / len(errors),  # a grid has a slot
            "force_on_epoch_count": sum(fleet.force_on),
        }
    return summary

