"""Machine-type communication layer: lossy delaying channels with URLLC and
mMTC profiles, retransmission, latency-budget auditing, and report
aggregation.

Delays follow a shifted exponential (offset + Exp(mean - offset)): two
parameters, a closed-form tail for tests, and a deterministic limit when
mean == offset.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterable, Sequence, Union

from .core import MalformedRequest, check_finite


# Both enums hash by identity instead of through Enum.__hash__ (a Python-level
# call that hashes the member name): a channel run looks them up per message
# and per channel.csv row. Members are singletons that compare by identity.
# The order of a set of them was never stable (str hashes are randomized per
# process), so no output depends on it.
class ChannelClass(Enum):
    URLLC = "urllc"
    MMTC = "mmtc"

    __hash__ = object.__hash__


class MessageKind(Enum):
    PACKET_REQUEST = "packet_request"
    GRANT = "grant"
    REJECT = "reject"
    METER_REPORT = "meter_report"
    TRIP_SIGNAL = "trip_signal"

    __hash__ = object.__hash__


@dataclass(frozen=True)
class ChannelProfile:
    cls: ChannelClass
    offset_ms: float
    mean_ms: float
    loss_prob: float
    retransmit_timeout_ms: float
    max_attempts: int

    def __post_init__(self) -> None:
        check_finite(self)
        if self.offset_ms < 0:
            raise MalformedRequest("delay offset must be non-negative")
        if self.mean_ms < self.offset_ms:
            raise MalformedRequest("mean delay cannot undercut the offset")
        if not 0 <= self.loss_prob < 1:
            raise MalformedRequest("loss probability must lie in [0, 1)")
        if self.max_attempts < 1:
            raise MalformedRequest("need at least one transmission attempt")
        if self.retransmit_timeout_ms < 0:
            raise MalformedRequest("retransmit timeout must be non-negative")


@dataclass(slots=True)
class Delivered:
    """A transmit outcome; slotted and not frozen, as MessageRecord says."""

    at_ms: float
    attempts: int


@dataclass(slots=True)
class Dropped:
    """A transmit outcome; slotted and not frozen, as MessageRecord says."""

    attempts: int


TransmitOutcome = Union[Delivered, Dropped]


def sample_delay(profile: ChannelProfile, rng: random.Random) -> float:
    """One propagation delay draw; always >= offset."""
    scale = profile.mean_ms - profile.offset_ms
    if scale <= 0:
        return profile.offset_ms
    return profile.offset_ms + rng.expovariate(1.0 / scale)


def transmit(
    sent_at_ms: float, profile: ChannelProfile, rng: random.Random
) -> TransmitOutcome:
    """Send with per-attempt loss and fixed retransmit timeout.

    Delivery time is the send time plus one timeout per lost attempt plus the
    final propagation delay.

    A first attempt that is not lost returns after its one loss draw; only
    a loss enters the retry loop. The draws, their order and the sums are
    the loop's: the delivery time of the first attempt still adds the
    elapsed 0.0, which turns a -0.0 send time into 0.0.
    """
    loss_prob = profile.loss_prob
    if not rng.random() < loss_prob:
        return Delivered(sent_at_ms + 0.0 + sample_delay(profile, rng), 1)
    timeout_ms = profile.retransmit_timeout_ms
    elapsed = 0.0 + timeout_ms
    for attempt in range(2, profile.max_attempts + 1):
        if rng.random() < loss_prob:
            elapsed += timeout_ms
            continue
        return Delivered(sent_at_ms + elapsed + sample_delay(profile, rng), attempt)
    return Dropped(profile.max_attempts)


@dataclass(slots=True)
class MessageRecord:
    """One channel traversal as logged by the simulation.

    Slotted and not frozen, as are Delivered, Dropped and AggregatedReport,
    so they build faster: a frozen __init__ sets each field through
    object.__setattr__, and a run builds one outcome and one record per
    message and one report per meter window. Nothing writes one once built.
    A delivered message's end-to-end time is delivered_at_ms - sent_at_ms;
    a dropped message has delivered_at_ms None.
    """

    msg_id: int
    kind: MessageKind
    cls: ChannelClass
    sent_at_ms: float
    delivered_at_ms: float | None
    attempts: int


# End-to-end budgets per message kind in milliseconds. Trip signals get the
# protection-class 100 ms budget; control messages the 10 ms
# machine-to-machine target. Kinds without a budget are not audited.
LATENCY_BUDGETS_MS: dict[MessageKind, float] = {
    MessageKind.TRIP_SIGNAL: 100.0,
    MessageKind.PACKET_REQUEST: 10.0,
    MessageKind.GRANT: 10.0,
    MessageKind.REJECT: 10.0,
}


def audit_budget(records: Iterable[MessageRecord]) -> dict[MessageKind, float]:
    """Fraction of delivered messages exceeding their budget in
    LATENCY_BUDGETS_MS, per kind, keyed in order of each kind's first
    delivered message.

    Kinds with no delivered traffic, or no budget, are absent, so a log of
    meter reports and dropped messages gives {}.
    """
    totals: dict[MessageKind, int] = {}
    violations: dict[MessageKind, int] = {}
    budgets = LATENCY_BUDGETS_MS
    for record in records:
        at_ms = record.delivered_at_ms
        kind = record.kind
        if at_ms is None or kind not in budgets:
            continue
        totals[kind] = totals.get(kind, 0) + 1
        if at_ms - record.sent_at_ms > budgets[kind]:  # end-to-end time
            violations[kind] = violations.get(kind, 0) + 1
    return {
        kind: violations.get(kind, 0) / count for kind, count in totals.items()
    }


@dataclass(slots=True)
class AggregatedReport:
    """One meter window's envelope; slotted and not frozen, as
    MessageRecord says."""

    start_ms: float
    end_ms: float
    count: int
    sum_value: float
    min_value: float
    max_value: float


def aggregate_reports(
    reports: Sequence[tuple[float, float]], window_ms: float
) -> list[AggregatedReport]:
    """Collapse (timestamp_ms, value) reports into one aggregate envelope
    per non-empty periodic window of `window_ms`.

    One pass over the reports in time order builds each window's report: the
    values for its fsum, and its least and greatest value by the comparisons
    that min() and max() make over the window in that order, so a NaN or a
    signed zero lands as theirs would."""
    if not window_ms > 0:
        raise MalformedRequest("aggregation window must be positive")
    if not reports:
        return []
    ordered = iter(sorted(reports, key=itemgetter(0)))
    start, low = next(ordered)
    batch_index = int(start // window_ms)
    end, values, high = start, [low], low
    out: list[AggregatedReport] = []
    for t, v in ordered:
        index = int(t // window_ms)
        if index != batch_index:
            out.append(AggregatedReport(start, end, len(values), math.fsum(values), low, high))
            batch_index, start, values, low, high = index, t, [v], v, v
        else:
            values.append(v)
            if v < low:
                low = v
            if v > high:
                high = v
        end = t
    out.append(AggregatedReport(start, end, len(values), math.fsum(values), low, high))
    return out
