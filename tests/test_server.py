"""Server logic: forced-start arithmetic, admission against the brute-force
superposition oracle, per-slot allocation fairness, supply dispatch, fleet
reference tracking, and retry backoff."""

import math
import random
from dataclasses import replace
from operator import attrgetter

import pytest

from scenario_gen import random_admission_instance

from pemsim.core import (
    Accept,
    CAP_TOL_W,
    COMPLETION_TOL_WH,
    ENERGY_REL_TOL,
    FixedProfileRequest,
    FlexibleTotalRequest,
    InfeasibleDeadline,
    MalformedRequest,
    Reject,
    RejectReason,
    ThermalTargetRequest,
    TimeGrid,
    WindowInfeasible,
    validate_request,
)
from pemsim.server import (
    CapacityViolation,
    CommitmentLedger,
    SlotNeed,
    SupplyView,
    UnderSupply,
    allocate_slot,
    compute_forced_start,
    dispatch_supply,
    forced_profile,
    handle_rejection_retry,
    needed_full_slots,
    track_reference,
)

GRID = TimeGrid(epoch_start_min=16 * 60, slot_min=10, horizon=48)


def flexible(device_id, energy, p_max, available, deadline, priority=2, packet=500.0):
    return FlexibleTotalRequest(
        device_id=device_id, energy_needed_wh=energy, p_max_w=p_max,
        available_from=available, deadline=deadline, packet_w=packet,
        priority=priority, issued_at=0,
    )


class TestComputeForcedStart:
    def test_ev_forced_charge_time(self):
        # 9166.7 Wh at 5 kW needs 110 min: forced start lands on 22:10
        start = compute_forced_start(9166.7, 5000.0, GRID.slot_of("24:00"), GRID)
        assert GRID.clock_of(start) == "22:10"

    def test_nothing_left_starts_at_deadline(self):
        assert compute_forced_start(0.0, 5000.0, 30, GRID) == 30

    def test_full_battery_six_hours(self):
        start = compute_forced_start(30_000.0, 5000.0, GRID.slot_of("24:00"), GRID)
        assert GRID.clock_of(start) == "18:00"

    def test_full_power_plan_never_short_beyond_tolerance(self):
        # above 10 kWh a relative 1e-4 slack exceeds the completion tolerance
        slot_h = GRID.slot_hours
        assert needed_full_slots(20_001.5, 5000.0, slot_h) == 25
        rng = random.Random(17)
        for _ in range(5000):
            p_max = rng.choice([1000.0, 3500.0, 5000.0, 11_000.0])
            slots = rng.randint(1, 48)
            remaining = slots * p_max * slot_h + rng.uniform(-3.0, 3.0)
            planned = needed_full_slots(remaining, p_max, slot_h) * p_max * slot_h
            assert planned >= remaining - COMPLETION_TOL_WH

    def test_infeasible_deadline(self):
        with pytest.raises(InfeasibleDeadline):
            compute_forced_start(10_000.0, 5000.0, 10, GRID, now=0)

    def test_one_hour_cycle_latest_start(self):
        # a one-hour fixed cycle due at 24:00 must start by 23:00
        ledger = CommitmentLedger(GRID, 10_000.0)
        request = FixedProfileRequest(
            device_id="dw", profile_w=(2000.0,) * 6,
            earliest_start=GRID.slot_of("20:00"),
            latest_start=GRID.slot_of("24:00") - 6,
            priority=1, issued_at=0,
        )
        decision = ledger.admit(request)
        assert isinstance(decision, Accept)
        assert GRID.clock_of(decision.forced_start) == "23:00"


# ---------------------------------------------------------------------------
# Brute-force admission oracle: rebuild every forced profile from the raw
# request fields with independent arithmetic and scan every slot.
# ---------------------------------------------------------------------------

def _oracle_heat_steps(temp, target, rated, eta, loss, cap_c, amb, dt_h, limit=2000):
    steps = 0
    while temp < target and steps < limit:
        nxt = temp + dt_h * (eta * rated - loss * (temp - amb)) / cap_c
        if nxt <= temp:
            return None
        temp = nxt
        steps += 1
    return steps if temp >= target else None


def oracle_forced_profile(request, grid):
    """Per-slot committed watts, or None when no feasible forced schedule."""
    slot_h = grid.slot_min / 60.0
    profile = [0.0] * grid.horizon
    if isinstance(request, FlexibleTotalRequest):
        remaining = request.energy_needed_wh
        if remaining <= COMPLETION_TOL_WH:
            return profile
        start = None
        slack = min(remaining * ENERGY_REL_TOL, COMPLETION_TOL_WH)
        for t in range(request.deadline, -1, -1):
            covered = request.p_max_w * (request.deadline - t) * slot_h
            if covered >= remaining - slack:
                start = t
                break
        if start is None:
            return None
        for t in range(start, request.deadline):
            profile[t] = request.p_max_w
        return profile
    if isinstance(request, FixedProfileRequest):
        for i, watts in enumerate(request.profile_w):
            profile[request.latest_start + i] = watts
        return profile
    if isinstance(request, ThermalTargetRequest):
        dt_h = slot_h
        best = None
        for t in range(request.preheat_from, request.service_start + 1):
            temp = request.temp_c
            for _ in range(max(0, t - request.issued_at)):
                temp += dt_h * (-request.loss_w_per_c * (temp - request.ambient_c)) / request.capacitance_wh_per_c
            need = _oracle_heat_steps(
                temp, request.target_c, request.rated_w, request.efficiency,
                request.loss_w_per_c, request.capacitance_wh_per_c,
                request.ambient_c, dt_h,
            )
            if need is not None and need <= request.service_start - t:
                best = t
        if best is None:
            return None
        start = min(request.force_check_at, best)
        for t in range(start, request.service_end):
            profile[t] = request.rated_w
        return profile
    raise AssertionError(f"unexpected request {request!r}")


def oracle_admit_sequence(requests, capacity, grid):
    """Sequential accept/reject verdicts by exhaustive slot scanning."""
    accepted_profiles = []
    verdicts = []
    for request in requests:
        profile = oracle_forced_profile(request, grid)
        if profile is None:
            verdicts.append(False)
            continue
        ok = all(
            sum(p[t] for p in accepted_profiles) + profile[t] <= capacity + 1e-6
            for t in range(grid.horizon)
        )
        verdicts.append(ok)
        if ok:
            accepted_profiles.append(profile)
    return verdicts


def dense_profile(start, run, grid):
    """A forced run (watts from slot `start` on) as per-slot watts over the
    whole horizon, 0.0 outside the run."""
    profile = [0.0] * grid.horizon
    profile[start:start + len(run)] = run
    return profile


def reference_admit(committed, capacity, request, grid, now):
    """CommitmentLedger.admit for a new device, with the capacity check and
    the commit scanning the whole horizon; extends `committed` on acceptance.
    Returns (decision, forced start, forced run), both None for a request
    that has no forced profile."""
    try:
        validate_request(request, grid)
        start, run = forced_profile(request, grid, now=now)
    except MalformedRequest:
        return Reject(RejectReason.MALFORMED_REQUEST), None, None
    except WindowInfeasible:
        return Reject(RejectReason.WINDOW_INFEASIBLE), None, None
    profile = dense_profile(start, run, grid)
    for t in range(grid.horizon):
        if profile[t] > 0 and committed[t] + profile[t] > capacity + CAP_TOL_W:
            return Reject(RejectReason.CAPACITY_EXCEEDED, at_slot=t), start, run
    for t in range(grid.horizon):
        committed[t] += profile[t]
    return Accept(forced_start=start), start, run


class TestAdmission:
    def test_single_job_under_capacity(self):
        ledger = CommitmentLedger(GRID, 8000.0)
        decision = ledger.admit(flexible("ev", 30_000.0, 5000.0, 0, 48))
        assert isinstance(decision, Accept)

    def test_capacity_clash_reports_first_violating_slot(self):
        # 5 kW forced over 22:00-24:00 plus 5 kW forced over 23:00-24:00
        # exceeds an 8 kW feeder exactly at 23:00
        ledger = CommitmentLedger(GRID, 8000.0)
        first = flexible("a", 10_000.0, 5000.0, 0, GRID.slot_of("24:00"))
        assert isinstance(ledger.admit(first), Accept)
        second = flexible("b", 5000.0, 5000.0, 0, GRID.slot_of("24:00"))
        decision = ledger.admit(second)
        assert isinstance(decision, Reject)
        assert decision.reason is RejectReason.CAPACITY_EXCEEDED
        assert GRID.clock_of(decision.at_slot) == "23:00"

    def test_reference_triple_fits_ten_kilowatts(self):
        ledger = CommitmentLedger(GRID, 10_000.0)
        sauna = ThermalTargetRequest(
            device_id="sauna", target_c=70.0,
            service_start=GRID.slot_of("19:00"), service_end=GRID.slot_of("20:00"),
            preheat_from=GRID.slot_of("16:30"), force_check_at=GRID.slot_of("18:20"),
            rated_w=3600.0, priority=2, issued_at=GRID.slot_of("16:30"),
            temp_c=20.0, ambient_c=20.0, capacitance_wh_per_c=60.0, loss_w_per_c=10.0,
        )
        ev = flexible("ev", 30_000.0, 5000.0, 0, GRID.slot_of("24:00"), priority=3)
        dishwasher = FixedProfileRequest(
            device_id="dw", profile_w=(2000.0,) * 6,
            earliest_start=GRID.slot_of("20:00"), latest_start=GRID.slot_of("23:00"),
            priority=1, issued_at=0,
        )
        decisions = [ledger.admit(r) for r in (sauna, ev, dishwasher)]
        assert all(isinstance(d, Accept) for d in decisions)
        # worst superposed forced power is EV + dishwasher late in the evening
        assert max(ledger.committed_w) <= 10_000.0
        assert ledger.committed_w[GRID.slot_of("23:00")] == pytest.approx(7000.0)

    @pytest.mark.parametrize("kind, field, bad", [
        ("flexible", "energy_needed_wh", math.nan),
        ("flexible", "p_max_w", math.inf),
        ("thermal", "ambient_c", math.nan),
        ("thermal", "loss_w_per_c", math.nan),
        ("thermal", "capacitance_wh_per_c", math.inf),
        ("thermal", "rated_w", math.inf),
    ])
    def test_non_finite_field_is_malformed(self, kind, field, bad):
        """A NaN or an infinity passes range checks such as `x <= 0`:
        unless refused first, each of these raises ValueError, is refused for
        its window or its capacity, or (p_max_w) is accepted with an empty
        forced run."""
        sauna = ThermalTargetRequest(
            device_id="sauna", target_c=70.0, service_start=18, service_end=24,
            preheat_from=3, force_check_at=14, rated_w=3600.0, priority=2, issued_at=3,
            temp_c=20.0, ambient_c=20.0, capacitance_wh_per_c=60.0, loss_w_per_c=10.0,
        )
        request = flexible("ev", 20_000.0, 5000.0, 0, 48) if kind == "flexible" else sauna
        assert isinstance(CommitmentLedger(GRID, 10_000.0).admit(request), Accept)
        decision = CommitmentLedger(GRID, 10_000.0).admit(replace(request, **{field: bad}))
        assert decision == Reject(RejectReason.MALFORMED_REQUEST)

    def test_readmission_is_idempotent(self):
        ledger = CommitmentLedger(GRID, 8000.0)
        request = flexible("ev", 20_000.0, 5000.0, 0, 48)
        first = ledger.admit(request)
        committed = list(ledger.committed_w)
        again = ledger.admit(request)
        assert first == again
        assert ledger.committed_w == committed

    def test_release_frees_capacity(self):
        ledger = CommitmentLedger(GRID, 5000.0)
        assert isinstance(ledger.admit(flexible("a", 20_000.0, 5000.0, 0, 48)), Accept)
        blocked = flexible("b", 20_000.0, 5000.0, 0, 48)
        assert isinstance(ledger.admit(blocked), Reject)
        ledger.release("a", 0)
        assert isinstance(ledger.admit(blocked), Accept)

    def test_oracle_equivalence_sample(self):
        for seed in range(200):
            grid, capacity, requests = random_admission_instance(seed)
            expected = oracle_admit_sequence(requests, capacity, grid)
            ledger = CommitmentLedger(grid, capacity)
            got = [isinstance(ledger.admit(r), Accept) for r in requests]
            assert got == expected, f"instance {seed} disagrees"

    def test_admit_scans_from_the_forced_start(self):
        """admit checks and commits only the forced run, release frees the
        run from a slot on, and reanchor_cycle moves a cycle's run to an
        earlier start: the whole-horizon scans of the dense oracle give the
        same decisions, the same first violating slot and the same
        committed watts, sign of zero included. A refused re-anchor changes
        nothing, and a released job can be admitted again."""
        rng = random.Random(15)
        outcomes, reanchored, readmitted = set(), set(), set()
        for seed in range(300):
            grid, capacity, requests = random_admission_instance(seed, max_jobs=8, max_slots=30)
            limit = capacity + CAP_TOL_W
            ledger = CommitmentLedger(grid, capacity)
            committed = [0.0] * grid.horizon
            for request in requests:
                now = rng.randint(0, grid.horizon // 3)
                want = reference_admit(committed, capacity, request, grid, now)[0]
                assert ledger.admit(request, now=now) == want
                outcomes.add(getattr(want, "reason", None))
                if not isinstance(want, Accept):
                    continue
                job = ledger.jobs[request.device_id]
                if isinstance(request, FixedProfileRequest):
                    slot = rng.randint(request.earliest_start, request.latest_start)
                    old = dense_profile(job.start, job.profile_w, grid)
                    new = dense_profile(slot, job.profile_w, grid)
                    fits = all(
                        new[t] == 0.0 or committed[t] - old[t] + new[t] <= limit
                        for t in range(grid.horizon)
                    )
                    if fits:
                        for t in range(grid.horizon):
                            committed[t] = committed[t] - old[t] + new[t]
                    before = [repr(w) for w in ledger.committed_w]
                    assert ledger.reanchor_cycle(request.device_id, slot) == fits
                    assert job.start == (slot if fits else request.latest_start)
                    assert fits or [repr(w) for w in ledger.committed_w] == before
                    reanchored.add(fits)
                if rng.random() < 0.3:
                    from_slot = rng.randint(0, grid.horizon)
                    profile = dense_profile(job.start, job.profile_w, grid)
                    for t in range(from_slot, grid.horizon):
                        committed[t] -= profile[t]
                    ledger.release(request.device_id, from_slot)
                    assert request.device_id not in ledger.jobs
                    if rng.random() < 0.5:
                        again = reference_admit(committed, capacity, request, grid, now)[0]
                        assert ledger.admit(request, now=now) == again
                        readmitted.add(isinstance(again, Accept))
                assert [repr(w) for w in ledger.committed_w] == [repr(w) for w in committed]
        assert {None, RejectReason.CAPACITY_EXCEEDED, RejectReason.WINDOW_INFEASIBLE} <= outcomes
        assert reanchored == {True, False} and True in readmitted

    def test_scheduled_requests_always_validate(self):
        # validation is a necessary condition for admission
        for seed in range(100):
            grid, capacity, requests = random_admission_instance(seed)
            ledger = CommitmentLedger(grid, capacity)
            for request in requests:
                if isinstance(ledger.admit(request), Accept):
                    validate_request(request, grid)

    def test_ledger_commitment_invariants(self):
        # committed superposition never tops capacity, and every admitted
        # job's committed profile can finish it by its deadline
        slot_h = 10 / 60.0
        for seed in range(150):
            grid, capacity, requests = random_admission_instance(seed)
            ledger = CommitmentLedger(grid, capacity)
            for request in requests:
                ledger.admit(request)
            assert max(ledger.committed_w, default=0.0) <= capacity + 1e-6
            for job in ledger.jobs.values():
                request = job.request
                profile = dense_profile(job.start, job.profile_w, grid)
                if isinstance(request, FlexibleTotalRequest):
                    committed_wh = sum(profile[: request.deadline]) * slot_h
                    need = request.energy_needed_wh
                    assert committed_wh >= need - COMPLETION_TOL_WH
                    assert all(w == 0.0 for w in profile[request.deadline:])
                elif isinstance(request, FixedProfileRequest):
                    anchored = profile[request.latest_start:request.deadline]
                    assert tuple(anchored) == request.profile_w
                    assert all(w == 0.0 for w in profile[request.deadline:])
                else:
                    assert all(w == 0.0 for w in profile[request.service_end:])

    def test_admission_monotone_in_capacity(self):
        rng = random.Random(2024)
        checked = 0
        for seed in range(400):
            grid, capacity, requests = random_admission_instance(seed)
            ledger = CommitmentLedger(grid, capacity)
            verdicts = [isinstance(ledger.admit(r), Accept) for r in requests]
            if not all(verdicts):
                continue
            bigger = CommitmentLedger(grid, capacity * rng.uniform(1.01, 3.0))
            assert all(isinstance(bigger.admit(r), Accept) for r in requests)
            checked += 1
        assert checked > 50


def _supply(cap=10_000.0, renewable=None, storage=None, import_allowed=True):
    """A supply view; `storage` is its (discharge_max_w, charge_max_w)."""
    discharge_max_w, charge_max_w = storage or (0.0, 0.0)
    return SupplyView(
        renewable_w=cap if renewable is None else renewable,
        discharge_max_w=discharge_max_w, charge_max_w=charge_max_w,
        import_allowed=import_allowed, feeder_capacity_w=cap,
    )


def reference_allocate_slot(ledger, needs, supply, rng, now=0, renewable_first=True):
    """allocate_slot in three passes over the needs: the forced total, the
    forced grants and the willing needs each take one."""
    if not needs:
        return {}
    cap = supply.feeder_capacity_w
    forced_total = sum(n.forced_w for n in needs)
    if forced_total > cap + CAP_TOL_W:
        raise CapacityViolation(
            f"forced needs {forced_total:.1f} W exceed capacity {cap:.1f} W at slot {now}"
        )
    grants = {n.job_id: n.forced_w for n in needs if n.forced_w > 0}
    spare = cap - forced_total
    if not supply.import_allowed:
        spare = min(spare, supply.renewable_w + supply.discharge_max_w - forced_total)
    if renewable_first:
        spare = min(spare, max(0.0, supply.renewable_w - forced_total))
    willing = [n for n in needs if n.willing_w > 0 and n.forced_w <= 0]
    if len(willing) > 1:
        rng.shuffle(willing)
        willing.sort(key=attrgetter("priority"))
    for need in willing:
        if spare < need.packet_w:
            continue
        if need.cycle_start:
            if not ledger.reanchor_cycle(need.job_id, now):
                continue
            grants[need.job_id] = grants.get(need.job_id, 0.0) + need.packet_w
            spare -= need.packet_w
            continue
        packets = math.floor(min(need.willing_w, spare) / need.packet_w + 1e-9)
        if packets <= 0:
            continue
        amount = packets * need.packet_w
        grants[need.job_id] = grants.get(need.job_id, 0.0) + amount
        spare -= amount
    total = sum(grants.values())
    if total > cap + CAP_TOL_W:
        raise CapacityViolation(f"granted {total:.1f} W over capacity {cap:.1f} W")
    return grants


def _random_slot(rng):
    """(capacity, needs, supply, cycle requests, now) of one random slot:
    forced, willing and cycle-start needs at a few priorities, at times
    with more forced power than the feeder holds."""
    cap = rng.choice([3000.0, 6000.0, 10_000.0])
    now = rng.randint(0, 5)
    needs, cycles = [], []
    for i in range(rng.randint(0, 8)):
        kind = rng.choice(["forced", "willing", "willing", "cycle", "idle"])
        priority = rng.randint(0, 3)
        if kind == "forced":
            needs.append(SlotNeed(f"j{i}", priority, forced_w=rng.choice([0.1, 700.0, 2500.0])))
        elif kind == "willing":
            needs.append(SlotNeed(
                f"j{i}", priority, willing_w=rng.uniform(0.0, 4000.0),
                packet_w=rng.choice([250.0, 1000.0, 3000.0]),
            ))
        elif kind == "cycle":
            watts = rng.choice([500.0, 2000.0])
            cycles.append(FixedProfileRequest(f"j{i}", (watts,) * 3, 0, 8, priority, 0))
            needs.append(SlotNeed(f"j{i}", priority, 0.0, watts, watts, True))
        else:
            needs.append(SlotNeed(f"j{i}", priority))
    supply = SupplyView(
        renewable_w=rng.choice([0.0, rng.uniform(0.0, cap)]),
        discharge_max_w=rng.choice([0.0, 1500.0]), charge_max_w=0.0,
        import_allowed=rng.random() < 0.7, feeder_capacity_w=cap,
    )
    return cap, needs, supply, cycles, now


class TestAllocateSlotEquivalence:
    def test_matches_the_three_pass_reference(self):
        """The one-pass allocate_slot gives the reference's grants in the
        reference's order, leaves the rng and the ledger as it does, and
        raises its CapacityViolation."""
        rng = random.Random("allocate_slot one pass")
        outcomes = set()
        for trial in range(3000):
            cap, needs, supply, cycles, now = _random_slot(rng)
            renewable_first = rng.random() < 0.5
            runs = []
            for allocate in (allocate_slot, reference_allocate_slot):
                ledger = CommitmentLedger(GRID, cap)
                for request in cycles:
                    ledger.admit(request)
                draws = random.Random(trial)
                try:
                    got = list(allocate(ledger, needs, supply, draws, now, renewable_first).items())
                except CapacityViolation as exc:
                    got = ("violation", str(exc))
                runs.append((got, draws.getstate(), ledger.committed_w))
            assert runs[0] == runs[1]
            got = runs[0][0]
            if isinstance(got, tuple):
                outcomes.add(got[1].split()[0])  # "forced" or "granted"
            elif any(job_id == c.device_id for job_id, _ in got for c in cycles):
                outcomes.add("cycle started")
            elif len(got) > 1:
                outcomes.add("several grants")
        assert outcomes == {"forced", "cycle started", "several grants"}


class TestInlineShuffle:
    def test_matches_random_shuffle(self):
        """allocate_slot's inline shuffle draws what random.shuffle draws:
        equal-priority willing needs, each granted one packet, come out in
        the order random.shuffle leaves their ids, and the rng ends in the
        same state."""
        supply = SupplyView(1e9, 0.0, 0.0, True, 1e9)
        ledger = CommitmentLedger(GRID, 1e9)
        for length in range(9):
            ids = [f"j{i}" for i in range(length)]
            needs = [SlotNeed(i, 1, willing_w=1.0, packet_w=1.0) for i in ids]
            for seed in range(2000):
                rng, shuffled = random.Random(seed), random.Random(seed)
                order = list(ids)
                shuffled.shuffle(order)
                grants = allocate_slot(ledger, needs, supply, rng, renewable_first=False)
                assert list(grants) == order, (length, seed)
                assert rng.getstate() == shuffled.getstate(), (length, seed)


class TestAllocateSlot:
    def _ledger(self, cap=10_000.0):
        return CommitmentLedger(GRID, cap)

    def test_forced_preempts_flexible(self):
        needs = [
            SlotNeed("forced", 1, forced_w=5000.0),
            SlotNeed("f1", 1, willing_w=2000.0, packet_w=500.0),
            SlotNeed("f2", 2, willing_w=2000.0, packet_w=500.0),
            SlotNeed("f3", 3, willing_w=2000.0, packet_w=500.0),
        ]
        grants = allocate_slot(self._ledger(5000.0), needs, _supply(5000.0), random.Random(1))
        assert grants == {"forced": 5000.0}

    def test_equal_priority_uniform_tiebreak(self):
        wins = {"a": 0, "b": 0}
        for trial in range(1000):
            needs = [
                SlotNeed("a", 2, willing_w=3000.0, packet_w=3000.0),
                SlotNeed("b", 2, willing_w=3000.0, packet_w=3000.0),
            ]
            grants = allocate_slot(
                self._ledger(3000.0), needs, _supply(3000.0), random.Random(trial)
            )
            winner = [k for k, v in grants.items() if v > 0]
            assert winner in (["a"], ["b"])
            wins[winner[0]] += 1
        assert 450 <= wins["a"] <= 550

    def test_priority_served_first(self):
        # the more important job takes the whole 2 kW of spare every time
        for trial in range(200):
            needs = [
                SlotNeed("ev", 2, willing_w=2000.0, packet_w=1000.0),
                SlotNeed("dishwasher", 1, willing_w=2000.0, packet_w=2000.0),
            ]
            grants = allocate_slot(
                self._ledger(2000.0), needs, _supply(2000.0), random.Random(trial)
            )
            assert grants.get("dishwasher", 0.0) == 2000.0
            assert grants.get("ev", 0.0) == 0.0

    def test_grants_are_whole_packets(self):
        needs = [SlotNeed("j", 1, willing_w=3500.0, packet_w=1000.0)]
        grants = allocate_slot(self._ledger(), needs, _supply(), random.Random(0))
        assert grants["j"] == 3000.0

    def test_renewable_first_limits_opportunistic_power(self):
        needs = [SlotNeed("j", 1, willing_w=4000.0, packet_w=1000.0)]
        grants = allocate_slot(
            self._ledger(), needs, _supply(renewable=2500.0), random.Random(0),
            renewable_first=True,
        )
        assert grants.get("j", 0.0) == 2000.0
        grants = allocate_slot(
            self._ledger(), needs, _supply(renewable=2500.0), random.Random(0),
            renewable_first=False,
        )
        assert grants["j"] == 4000.0
        # without imports, local supply (renewable plus discharge) caps it
        islanded = _supply(renewable=2500.0, storage=(500.0, 0.0), import_allowed=False)
        grants = allocate_slot(
            self._ledger(), needs, islanded, random.Random(0), renewable_first=False,
        )
        assert grants["j"] == 3000.0

    def test_forced_always_backed_by_import(self):
        needs = [SlotNeed("j", 1, forced_w=4000.0)]
        grants = allocate_slot(
            self._ledger(), needs, _supply(renewable=0.0), random.Random(0),
            renewable_first=True,
        )
        assert grants["j"] == 4000.0

    def test_overcommitted_forced_raises(self):
        needs = [SlotNeed("a", 1, forced_w=6000.0), SlotNeed("b", 1, forced_w=6000.0)]
        with pytest.raises(CapacityViolation):
            allocate_slot(self._ledger(10_000.0), needs, _supply(), random.Random(0))

    def test_priority_dominance_randomized(self):
        # a lower-priority job never receives spare while a higher-priority
        # job that could still fit one of its packets got nothing
        rng = random.Random(555)
        for _ in range(300):
            cap = rng.uniform(2000.0, 9000.0)
            needs = [
                SlotNeed(
                    f"j{i}", rng.randint(1, 3),
                    willing_w=rng.uniform(500.0, 4000.0),
                    packet_w=rng.choice([250.0, 500.0, 1000.0]),
                )
                for i in range(rng.randint(2, 5))
            ]
            grants = allocate_slot(
                self._ledger(cap), needs, _supply(cap), random.Random(rng.random())
            )
            total = sum(grants.values())
            assert total <= cap + 1e-6
            spare_left = cap - total
            for high in needs:
                if grants.get(high.job_id, 0.0) > 0:
                    continue
                if high.willing_w < high.packet_w:
                    continue  # cannot absorb even one of its own packets
                for low in needs:
                    if low.priority > high.priority and grants.get(low.job_id, 0.0) > 0:
                        # high got nothing although it wanted a whole packet,
                        # so no packet can fit in what is left
                        assert high.packet_w > spare_left + 1e-9


class TestDispatchSupply:
    # 500 Wh of a 5 kWh store behind 2 kW charge and 3 kW discharge limits,
    # over a 10-minute slot: it can discharge 3 kW and absorb 2 kW
    STORAGE = (3000.0, 2000.0)

    def test_pure_surplus_charges_storage(self):
        plan = dispatch_supply(0.0, _supply(renewable=2000.0, storage=self.STORAGE))
        assert plan.storage_flow_w == pytest.approx(2000.0)
        assert plan.renewable_used_w == 0.0 and plan.imported_w == 0.0

    def test_merit_order_reaches_import(self):
        plan = dispatch_supply(4000.0, _supply(renewable=1000.0))
        assert plan.renewable_used_w == pytest.approx(1000.0)
        assert plan.imported_w == pytest.approx(3000.0)

    def test_storage_energy_bound(self):
        # 500 Wh covers 3 kW for a 10-minute slot exactly
        plan = dispatch_supply(4000.0, _supply(renewable=1000.0, storage=self.STORAGE))
        assert plan.storage_flow_w == pytest.approx(-3000.0)
        assert plan.imported_w == pytest.approx(0.0)

    def test_identity_exact(self):
        rng = random.Random(99)
        for _ in range(500):
            total = rng.uniform(0.0, 9000.0)
            supply = _supply(renewable=rng.uniform(0.0, 6000.0), storage=self.STORAGE)
            plan = dispatch_supply(total, supply)
            discharge = max(0.0, -plan.storage_flow_w)
            assert plan.renewable_used_w + discharge + plan.imported_w == pytest.approx(total, abs=1e-9)
            assert plan.curtailed_w >= -1e-9

    def test_undersupply_raises_when_imports_barred(self):
        with pytest.raises(UnderSupply):
            dispatch_supply(4000.0, _supply(renewable=500.0, import_allowed=False))


class TestTrackReference:
    PACKET_W = 4500.0

    def test_zero_reference_accepts_none(self):
        assert track_reference(["a", "b"], 0.0, 0.0, self.PACKET_W, random.Random(1)) == []

    def test_slack_accepts_all(self):
        ids = [f"h{i}" for i in range(10)]
        accepted = track_reference(ids, 1e9, 0.0, self.PACKET_W, random.Random(1))
        assert sorted(accepted) == sorted(ids)

    def test_floor_of_fractional_budget(self):
        ids = [f"h{i}" for i in range(7)]
        budget = 2.5 * 4500.0
        counts = {i: 0 for i in ids}
        trials = 10_000
        for seed in range(trials):
            accepted = track_reference(ids, budget, 0.0, self.PACKET_W, random.Random(seed))
            assert len(accepted) == 2
            for i in accepted:
                counts[i] += 1
        for i in ids:  # uniform subsets pick each id with probability 2/7
            assert counts[i] / trials == pytest.approx(2 / 7, abs=0.02)

    def test_on_power_reduces_budget(self):
        ids = [f"h{i}" for i in range(7)]
        accepted = track_reference(ids, 10 * 4500.0, 8.2 * 4500.0, self.PACKET_W, random.Random(5))
        assert len(accepted) == 1


class TestRetry:
    def test_backoff_within_bounds(self):
        rng = random.Random(0)
        draws = {handle_rejection_retry(10, 3, rng) for _ in range(1000)}
        assert draws == {11, 12, 13}

    def test_retry_count_bounded_by_window(self):
        # with one-slot backoff a persistent block yields at most window retries
        rng = random.Random(1)
        now, window_end, retries = 0, 20, 0
        while True:
            now = handle_rejection_retry(now, 1, rng)
            if now >= window_end:
                break
            retries += 1
        assert retries <= 20
