"""Channel model: shifted-exponential delay statistics, retransmission,
latency-budget audit, report aggregation."""

import math
import random

import pytest

from pemsim.comms import (
    AggregatedReport,
    ChannelClass,
    ChannelProfile,
    Delivered,
    Dropped,
    MessageKind,
    MessageRecord,
    aggregate_reports,
    audit_budget,
    sample_delay,
    transmit,
)
from pemsim.core import MalformedRequest

URLLC_TEST = ChannelProfile(
    cls=ChannelClass.URLLC, offset_ms=1.0, mean_ms=5.0, loss_prob=0.001,
    retransmit_timeout_ms=20.0, max_attempts=7,
)


class TestSampleDelay:
    def test_tail_probability(self):
        # P(delay > offset + 2 * (mean - offset)) = e^-2 for the shifted exponential
        rng = random.Random(101)
        n = 100_000
        threshold = 1.0 + 2 * 4.0
        hits = sum(1 for _ in range(n) if sample_delay(URLLC_TEST, rng) > threshold)
        assert hits / n == pytest.approx(math.exp(-2), abs=0.01)

    def test_degenerate_constant(self):
        profile = ChannelProfile(cls=ChannelClass.URLLC, offset_ms=3.0, mean_ms=3.0,
                                 loss_prob=0.0, retransmit_timeout_ms=10.0, max_attempts=1)
        rng = random.Random(5)
        assert all(sample_delay(profile, rng) == 3.0 for _ in range(100))

    def test_empirical_mean(self):
        rng = random.Random(77)
        n = 100_000
        mean = sum(sample_delay(URLLC_TEST, rng) for _ in range(n)) / n
        assert mean == pytest.approx(5.0, rel=0.02)

    def test_never_below_offset(self):
        rng = random.Random(3)
        assert all(sample_delay(URLLC_TEST, rng) >= 1.0 for _ in range(10_000))


class TestTransmit:
    def test_lossless_single_attempt(self):
        profile = ChannelProfile(cls=ChannelClass.URLLC, offset_ms=1.0, mean_ms=5.0,
                                 loss_prob=0.0, retransmit_timeout_ms=20.0, max_attempts=3)
        outcome = transmit(0.0, profile, random.Random(1))
        assert isinstance(outcome, Delivered) and outcome.attempts == 1

    def test_certain_loss_drops_after_max_attempts(self):
        profile = ChannelProfile(cls=ChannelClass.URLLC, offset_ms=1.0, mean_ms=5.0,
                                 loss_prob=0.999999, retransmit_timeout_ms=20.0, max_attempts=3)
        rng = random.Random(2)
        drops = [transmit(0.0, profile, rng) for _ in range(200)]
        assert all(isinstance(o, Dropped) and o.attempts == 3 for o in drops)

    def test_geometric_mean_attempts(self):
        # with p = 0.5 and effectively unlimited retries, mean attempts = 2
        profile = ChannelProfile(cls=ChannelClass.MMTC, offset_ms=0.0, mean_ms=1.0,
                                 loss_prob=0.5, retransmit_timeout_ms=1.0, max_attempts=1000)
        rng = random.Random(11)
        n = 100_000
        total = 0
        for _ in range(n):
            outcome = transmit(0.0, profile, rng)
            assert isinstance(outcome, Delivered)
            total += outcome.attempts
        assert total / n == pytest.approx(2.0, rel=0.02)

    def test_delivery_time_accounts_timeouts(self):
        profile = ChannelProfile(cls=ChannelClass.URLLC, offset_ms=2.0, mean_ms=2.0,
                                 loss_prob=0.5, retransmit_timeout_ms=20.0, max_attempts=50)
        rng = random.Random(9)
        for _ in range(500):
            outcome = transmit(0.0, profile, rng)
            assert outcome.at_ms == pytest.approx((outcome.attempts - 1) * 20.0 + 2.0)


def reference_transmit(sent_at_ms, profile, rng):
    """transmit as one loop over every attempt, the first included."""
    elapsed = 0.0
    for attempt in range(1, profile.max_attempts + 1):
        if rng.random() < profile.loss_prob:
            elapsed += profile.retransmit_timeout_ms
            continue
        return Delivered(sent_at_ms + elapsed + sample_delay(profile, rng), attempt)
    return Dropped(profile.max_attempts)


def _sent(outcome):
    """A transmit outcome's type, attempts and delivery time by float.hex."""
    at_ms = outcome.at_ms.hex() if isinstance(outcome, Delivered) else None
    return type(outcome).__name__, outcome.attempts, at_ms


class TestTransmitMatchesLoop:
    @pytest.mark.parametrize("max_attempts", [1, 3, 7])
    @pytest.mark.parametrize("loss_prob", [0.0, 0.001, 0.5, 0.99])
    @pytest.mark.parametrize("offset_ms, mean_ms, timeout_ms", [
        (1.0, 5.0, 20.0),  # a shifted exponential
        (2.0, 2.0, 20.0),  # mean == offset: a fixed delay
        (-0.0, -0.0, -0.0),  # signed zeros throughout
    ], ids=["exponential", "fixed", "signed_zeros"])
    def test_outcomes_and_draws(self, loss_prob, max_attempts, offset_ms, mean_ms, timeout_ms):
        profile = ChannelProfile(
            cls=ChannelClass.URLLC, offset_ms=offset_ms, mean_ms=mean_ms,
            loss_prob=loss_prob, retransmit_timeout_ms=timeout_ms, max_attempts=max_attempts,
        )
        kinds = set()
        for seed in range(400):
            for sent_at_ms in (0.0, -0.0, 1234.5):
                rng, loop_rng = random.Random(seed), random.Random(seed)
                got = _sent(transmit(sent_at_ms, profile, rng))
                assert got == _sent(reference_transmit(sent_at_ms, profile, loop_rng)), seed
                assert rng.getstate() == loop_rng.getstate(), seed
                kinds.add((got[0], got[1] > 1))
        if loss_prob == 0.0:
            assert kinds == {("Delivered", False)}
        elif loss_prob == 0.99:
            assert ("Dropped", max_attempts > 1) in kinds


class TestAuditBudget:
    def _record(self, msg_id, kind, e2e):
        return MessageRecord(msg_id=msg_id, kind=kind, cls=ChannelClass.URLLC,
                             sent_at_ms=0.0, delivered_at_ms=e2e, attempts=1)

    def test_empty_log(self):
        assert audit_budget([]) == {}

    def test_kinds_without_delivered_budgeted_traffic_are_absent(self):
        # meter reports have no budget, and a dropped message has no latency
        records = [self._record(0, MessageKind.METER_REPORT, 500.0)] + [
            self._record(i, kind, None)
            for i, kind in enumerate(
                [MessageKind.PACKET_REQUEST, MessageKind.GRANT, MessageKind.TRIP_SIGNAL], start=1
            )
        ]
        assert audit_budget(records) == {}

    def test_trip_budget_violation_rate(self):
        rng = random.Random(42)
        records = []
        for i in range(100_000):
            outcome = transmit(0.0, URLLC_TEST, rng)
            if isinstance(outcome, Delivered):
                records.append(self._record(i, MessageKind.TRIP_SIGNAL, outcome.at_ms))
        rates = audit_budget(records)
        assert rates[MessageKind.TRIP_SIGNAL] < 1e-3

    def test_impossible_budget(self):
        # every grant lands just past the 10 ms control budget
        records = [self._record(i, MessageKind.GRANT, 10.5) for i in range(100)]
        assert audit_budget(records)[MessageKind.GRANT] == 1.0


class TestAggregation:
    def test_single_report_identity(self):
        [report] = aggregate_reports([(10.0, 150.0)], 1000.0)
        assert (report.count, report.sum_value, report.min_value, report.max_value) == (1, 150.0, 150.0, 150.0)

    def test_equal_reports(self):
        [report] = aggregate_reports([(float(i), 100.0) for i in range(8)], 1000.0)
        assert report.count == 8 and report.sum_value == 800.0
        assert report.min_value == report.max_value == 100.0

    def test_sums_conserved(self):
        rng = random.Random(31)
        samples = [(i * 37.0, rng.uniform(0.0, 500.0)) for i in range(400)]
        out = aggregate_reports(samples, 100.0)
        assert sum(r.sum_value for r in out) == pytest.approx(sum(v for _, v in samples))
        assert sum(r.count for r in out) == len(samples)

    @pytest.mark.parametrize("window_ms", [0.0, -1000.0, math.nan])
    def test_nonpositive_window_rejected(self, window_ms):
        with pytest.raises(MalformedRequest):
            aggregate_reports([(10.0, 150.0)], window_ms)


def reference_aggregate_reports(reports, window_ms):
    """aggregate_reports as it batched the sorted reports, then summarized
    each batch with fsum, min and max."""
    if not window_ms > 0:
        raise MalformedRequest("aggregation window must be positive")
    if not reports:
        return []

    def summarize(batch):
        values = [v for _, v in batch]
        return AggregatedReport(
            batch[0][0], batch[-1][0], len(batch), math.fsum(values), min(values), max(values)
        )

    ordered = sorted(reports, key=lambda report: report[0])
    out, batch, batch_index = [], [], None
    for t, v in ordered:
        index = int(t // window_ms)
        if batch and index != batch_index:
            out.append(summarize(batch))
            batch = []
        batch_index = index
        batch.append((t, v))
    out.append(summarize(batch))
    return out


def _aggregated(aggregate, reports, window_ms):
    """The repr of what `aggregate` returns, or of what it raises (fsum
    refuses a window holding inf and -inf)."""
    try:
        return repr(aggregate(reports, window_ms))
    except ValueError as exc:
        return repr(exc)


class TestAggregationMatchesBatches:
    @pytest.mark.parametrize("reports, window_ms", [
        ([(250.0, 3.0), (10.0, 1.0), (120.0, -0.0), (10.0, 0.0)], 100.0),  # unsorted
        ([(99.0, 1.0), (100.0, 2.0), (200.0, 3.0), (199.99, 4.0)], 100.0),  # on window edges
        ([(5.0, 1.0), (950.0, 2.0), (951.0, 2.0), (4000.0, 7.0)], 100.0),  # empty windows between
        ([(1.0, 4.0), (2.0, 0.0), (3.0, -0.0), (4.0, 0.0), (5.0, 9.0)], 1000.0),  # one window
        ([(1.0, math.nan), (2.0, 1.0), (3.0, -1.0), (150.0, 2.0), (160.0, math.nan)], 100.0),
        ([(0.0, 0.0), (-0.0, -0.0), (0.5, -0.0)], 1.0),  # signed zeros, tied times
    ], ids=["unsorted", "window_edge", "empty_windows", "single_window", "nan", "signed_zeros"])
    def test_cases(self, reports, window_ms):
        assert repr(aggregate_reports(reports, window_ms)) == repr(
            reference_aggregate_reports(reports, window_ms)
        )

    def test_random_reports(self):
        rng = random.Random(77)
        values = [0.0, -0.0, 1.0, -1.0, 2.5, math.nan, math.inf, -math.inf]
        for _ in range(2000):
            reports = [
                (rng.choice([rng.uniform(0.0, 1000.0), float(rng.randrange(0, 1000, 100))]),
                 rng.choice(values + [rng.uniform(-10.0, 10.0)]))
                for _ in range(rng.randint(0, 12))
            ]
            window_ms = rng.choice([1.0, 100.0, 250.0, 5000.0])
            got, want = (
                _aggregated(aggregate, reports, window_ms)
                for aggregate in (aggregate_reports, reference_aggregate_reports)
            )
            assert got == want, (reports, window_ms)
