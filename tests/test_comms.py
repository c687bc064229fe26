"""Channel model: shifted-exponential delay statistics, retransmission,
latency-budget audit, report aggregation."""

import math
import random

import pytest

from pemsim.comms import (
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
