"""The household slot loop against a plain reference loop.

`reference_household` drives the engine's own job classes, supply side,
channel layer, shedding and trip traffic through the seven phases of the
engine module docstring, the plain way: every slot it scans all jobs in
device order, emits where `next_emit` is due, lets every accepted, live job
state a need (a battery's recomputed from its charge by
`reference_battery_need`, a cycle's from its progress by
`reference_cycle_need`), steps every job for which `steps_at` holds, and
records every other job's idle slot at once. It writes every job's granted
and consumed watts into the slot table and settles each slot on the fsum of
every job's consumption. Its ledger scans the whole horizon on each
admission. `run_scenario` must give the same bundle bytes and the same
`repr(RunResult)`: the engine's wake index, cached roles, cached battery and
cycle needs, lazily filled idle slots, sum over stepping jobs alone and
admission from the forced start change no output.
"""

import math
from dataclasses import replace
from pathlib import Path

import pytest

from identity import mixed, slow_lossy, thermal_start  # puts src/ and bench/ on sys.path
from scenario_gen import random_household_scenario
from test_server import reference_admit
from workloads import fault_scenario

from pemsim.cli import write_bundle
from pemsim.comms import MessageKind, aggregate_reports
from pemsim.core import CAP_TOL_W, COMPLETION_TOL_WH, Accept, substream
from pemsim.engine import (
    RunResult,
    _BatteryJob,
    _ChannelLayer,
    _CycleJob,
    _emit_trip_traffic,
    _make_job,
    _shed_grants,
    _Supply,
    run_scenario,
)
from pemsim.scenario import three_household_scenario
from pemsim.server import (
    CommitmentLedger,
    JobCommitment,
    SlotNeed,
    UnderSupply,
    allocate_slot,
    needed_full_slots,
)


def reference_battery_need(cfg, soc_wh, now, slot_hours):
    """A battery's need at slot `now` with charge `soc_wh`, computed afresh:
    none from the deadline on or within COMPLETION_TOL_WH of full, else the
    watts that finish it, forced once only the full-power slots it needs
    are left before the deadline and willing in packets before that."""
    if now >= cfg.deadline:
        return None
    remaining = cfg.capacity_wh - soc_wh
    if remaining <= COMPLETION_TOL_WH:
        return None
    want_w = min(cfg.p_max_w, remaining / slot_hours)
    if cfg.deadline - now <= needed_full_slots(remaining, cfg.p_max_w, slot_hours):
        return SlotNeed(cfg.device_id, cfg.priority, forced_w=want_w)
    return SlotNeed(cfg.device_id, cfg.priority, willing_w=want_w, packet_w=cfg.packet_w)


def reference_cycle_need(cfg, started_at, progress, now):
    """A cycle's need at slot `now`, built afresh: a running cycle's current
    profile slot forced; before it starts, none after its latest start, the
    first profile slot forced at the latest start, and before that, from its
    earliest start, the first profile slot willing as one all-or-nothing
    packet that starts the cycle."""
    profile_w = cfg.profile_w
    if started_at is not None:
        return SlotNeed(cfg.device_id, cfg.priority, forced_w=profile_w[progress])
    if now > cfg.latest_start:
        return None
    if now == cfg.latest_start:
        return SlotNeed(cfg.device_id, cfg.priority, forced_w=profile_w[0])
    if now >= cfg.earliest_start:
        return SlotNeed(
            cfg.device_id, cfg.priority,
            willing_w=profile_w[0], packet_w=profile_w[0], cycle_start=True,
        )
    return None


def _reference_need(job, now):
    if isinstance(job, _BatteryJob):
        return reference_battery_need(job.cfg, job.soc_wh, now, job.slot_hours)
    if isinstance(job, _CycleJob):
        return reference_cycle_need(job.cfg, job.started_at, job.progress, now)
    return job.slot_need(now)


class ScanningLedger(CommitmentLedger):
    """A ledger whose admission is `reference_admit`: the capacity check and
    the commit scan the whole horizon."""

    def admit(self, request, now=0):
        existing = self.jobs.get(request.device_id)
        if existing is not None:
            return existing.decision
        decision, start, run = reference_admit(
            self.committed_w, self.feeder_capacity_w, request, self.grid, now
        )
        if isinstance(decision, Accept):
            self.jobs[request.device_id] = JobCommitment(request, decision, start, run)
        return decision


def reference_household(scenario):
    scenario.validate()
    grid, policy = scenario.grid, scenario.policy
    supply_side = _Supply(scenario)
    ledger = ScanningLedger(grid, scenario.feeder_capacity_w)
    channels = _ChannelLayer(scenario.channels, grid, scenario.seed)
    server_rng = substream(scenario.seed, "server")
    jobs = [_make_job(cfg, grid, scenario.seed, policy.backoff_max) for cfg in scenario.devices]
    jobs_by_id = {job.device_id: job for job in jobs}
    table = supply_side.table
    requests_at, decisions_at = {}, {}
    meters, shed_events = [], []
    for t in range(grid.horizon):
        # (1) deliver the decisions due at this boundary
        for job, decision in decisions_at.pop(t, ()):
            job.on_decision(decision, t)
        # (2) every due job that has not settled emits, in device order
        for job in jobs:
            if job.next_emit != t or job.done or job.failed or job.active_from is not None:
                continue
            request = job.maybe_emit(t)
            if request is None:
                continue
            delivery = channels.send_slot(MessageKind.PACKET_REQUEST, t)
            if delivery is not None:
                requests_at.setdefault(delivery, []).append((job, request))
        # (3) the server admits every request delivered by now
        for job, request in requests_at.pop(t, ()):
            decision = ledger.admit(request, now=t)
            kind = MessageKind.GRANT if isinstance(decision, Accept) else MessageKind.REJECT
            delivery = channels.send_slot(kind, t)
            if delivery == t:
                job.on_decision(decision, t)
            elif delivery is not None:
                decisions_at.setdefault(delivery, []).append((job, decision))
        # (4) every accepted, live job states its need
        needs = [
            need for job in jobs
            if job.active_from is not None and not job.done and not job.failed
            and (need := _reference_need(job, t)) is not None
        ]
        supply = supply_side.view(t)
        grants = allocate_slot(
            ledger, needs, supply, server_rng, now=t, renewable_first=policy.renewable_first
        )
        # (5) capability check
        emergency = False
        if not scenario.import_allowed:
            capability = supply.renewable_w + supply.discharge_max_w
            total = math.fsum(grants.values())
            if total > capability + CAP_TOL_W:
                if not policy.emergency_shedding:
                    raise UnderSupply(total - capability)
                emergency = True
                _shed_grants(grants, total, capability, ledger, jobs_by_id, t, shed_events)
        # (6) every job that steps now applies its grant; every other job
        # records its idle slot
        granted = {job.device_id: grants.get(job.device_id, 0.0) for job in jobs}
        consumed = dict.fromkeys(jobs_by_id, 0.0)
        for job in jobs:
            if job.steps_at(t):
                consumed[job.device_id] = job.apply(granted[job.device_id], t, ledger)
            else:
                job.fill_trace(t + 1)
        # (7) the slot's row, supply, storage and meter reports
        for device_id in jobs_by_id:
            table.granted_w[device_id][t] = granted[device_id]
            table.consumed_w[device_id][t] = consumed[device_id]
        supply_side.settle(supply, math.fsum(consumed.values()), emergency)
        if channels.enabled:
            for job in jobs:
                delivered = channels.send_at(MessageKind.METER_REPORT, (t + 1) * grid.slot_ms)
                if delivered is not None:
                    meters.append((delivered, consumed[job.device_id]))
    if channels.enabled and scenario.trip_rate_per_hour > 0:
        _emit_trip_traffic(channels, scenario.trip_rate_per_hour, grid, scenario.seed)

    outcomes = []
    for job in jobs:
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
        aggregated=aggregate_reports(meters, grid.slot_ms),
        shed_events=shed_events,
        device_traces={job.device_id: tuple(job.trace) for job in jobs},
        final_states={job.device_id: job.final_state() for job in jobs},
    )


def _output(result, out_dir):
    write_bundle(result, out_dir)
    files = {path.name: path.read_bytes() for path in sorted(Path(out_dir).iterdir())}
    return files, repr(result)


def _unheard(seed):
    """The reference evening whose requests all arrive after the run ends:
    no decision ever comes, so only a thermal job's own schedule starts its
    steps."""
    scenario = three_household_scenario(seed)
    late_ms = scenario.grid.horizon * scenario.grid.slot_ms
    request = replace(scenario.channels["request"], offset_ms=late_ms, mean_ms=late_ms)
    return replace(scenario, channels={**scenario.channels, "request": request})


def _lossy(scenario):
    """The scenario over the reference evening's channels with every loss
    probability 0.2."""
    return replace(scenario, channels={
        name: replace(profile, loss_prob=0.2)
        for name, profile in three_household_scenario().channels.items()
    })


def _renewable_first_off(scenario):
    """The scenario with the server's renewable_first switch off."""
    return replace(scenario, policy=replace(scenario.policy, renewable_first=False))


SETS = {
    "generated_imports_allowed": lambda: [random_household_scenario(s) for s in range(1, 61)],
    "generated_islanded": lambda: [
        random_household_scenario(s, import_allowed=False) for s in range(1, 61)
    ],
    # opportunistic power beyond the renewable surplus, capped by local supply
    "generated_islanded_renewable_first_off": lambda: [
        _renewable_first_off(random_household_scenario(s, import_allowed=False))
        for s in range(1, 31)
    ],
    "mixed_feeders": lambda: [mixed(n) for n in range(1, 11)],
    "mixed_feeders_at_80c": lambda: [thermal_start(mixed(n), 80.0) for n in range(1, 6)],
    # lost requests make two jobs wake in one slot out of device order
    "lossy_mixed_feeders": lambda: [_lossy(mixed(n)) for n in (16, 18, 19)],
    "slow_lossy_evenings": lambda: [slow_lossy(s) for s in range(150, 174)],
    "unheard_evenings": lambda: [_unheard(s) for s in (1, 2)],
    "fault_evening": lambda: [fault_scenario()],
}


@pytest.mark.parametrize("name", sorted(SETS))
def test_engine_matches_reference_loop(tmp_path, name):
    for scenario in SETS[name]():
        want = _output(reference_household(scenario), tmp_path / "reference")
        got = _output(run_scenario(scenario), tmp_path / "engine")
        assert got == want, (name, scenario.seed)
