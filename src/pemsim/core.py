"""Time grid and the request/grant vocabulary.

Conventions shared across the package: power in watts (W), energy in
watt-hours (Wh), temperature in degrees Celsius, durations in minutes, and
all schedule times as integer slot indices on a :class:`TimeGrid`. Lower
priority numbers mean more important loads.

All types here are immutable values; they can be shared freely across
concurrent scenario runs.
"""

from __future__ import annotations

import _random
import functools
import hashlib
import math
import random
from dataclasses import dataclass, fields
from enum import Enum
from typing import Union

# Relative slack used when an energy requirement is converted into a whole
# number of full-power slots, capped at COMPLETION_TOL_WH. Scenario energies
# often arrive rounded to a few decimals; without the slack, an input rounded
# up by a fraction of a watt-hour would force a whole extra slot of reserved
# capacity.
ENERGY_REL_TOL = 1e-4

# A job whose remaining need falls below this is considered complete. It also
# caps the slack of ENERGY_REL_TOL: above 10 kWh the relative slack alone
# would exceed it, and a plan could end short of a job's need by more than
# this tolerance.
COMPLETION_TOL_WH = 1.0

# Absolute watt-level tolerance for capacity comparisons. A grant at or below
# it counts as no power, so every slot of a fixed cycle's profile must exceed
# it: a started cycle denied power breaks its contiguity.
CAP_TOL_W = 1e-6


class MalformedRequest(ValueError):
    """A request field is structurally invalid (negative power, empty profile, ...)."""


# The annotations check_finite reads, as the text that `from __future__
# import annotations` (in every module here) leaves them, and whether each
# holds a tuple. Reading the text costs no evaluation of annotations, which
# typing.get_type_hints would repeat on each fresh import.
_FLOAT_ANNOTATIONS = {
    "float": False,
    "float | None": False,
    "tuple[float, ...]": True,
    "tuple[float, ...] | None": True,
}


@functools.cache
def _float_fields(cls) -> tuple[tuple[str, bool], ...]:
    """(field, holds a tuple) for each field of dataclass `cls` annotated as
    a float or a tuple of floats, either perhaps None."""
    return tuple(
        (f.name, _FLOAT_ANNOTATIONS[f.type]) for f in fields(cls) if f.type in _FLOAT_ANNOTATIONS
    )


def check_finite(config, *path: str) -> None:
    """Raise MalformedRequest naming the first float field of dataclass
    `config`, after `path`, that holds a NaN or an infinity, or the first
    such item of a tuple field. A range check such as `x <= 0` lets NaN
    through, so a config runs this before its range checks."""
    for name, many in _float_fields(type(config)):
        value = getattr(config, name)
        if value is None or (all(map(math.isfinite, value)) if many else math.isfinite(value)):
            continue
        if many:
            index = next(i for i, item in enumerate(value) if not math.isfinite(item))
            name, value = f"{name}[{index}]", value[index]
        raise MalformedRequest(f"{'.'.join((*path, name))} must be finite, got {value!r}")


def check_thermal_node(node) -> None:
    """Check a thermal node's constants, read as flat fields of `node` (a
    ThermalTargetRequest, ThermalConfig or WaterHeaterParams). Raises
    MalformedRequest naming the first bad field; any ambient_c passes."""
    if node.rated_w <= 0:
        raise MalformedRequest("rated_w must be positive")
    if node.capacitance_wh_per_c <= 0:
        raise MalformedRequest("capacitance_wh_per_c must be positive")
    if node.loss_w_per_c < 0:
        raise MalformedRequest("loss_w_per_c must be non-negative")
    if not 0 < node.efficiency <= 1:
        raise MalformedRequest("efficiency must lie in (0, 1]")


class WindowInfeasible(ValueError):
    """The service window cannot accommodate the requested work."""


class InfeasibleDeadline(WindowInfeasible):
    """No remaining start slot can complete the job by its deadline."""


def parse_hhmm(text: str) -> int:
    """Parse a wall-clock "HH:MM" string into minutes. "24:00" is allowed and
    denotes the end-of-day boundary (1440)."""
    parts = text.strip().split(":")
    if len(parts) != 2:
        raise MalformedRequest(f"bad clock string {text!r}, expected HH:MM")
    try:
        hours, minutes = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise MalformedRequest(f"bad clock string {text!r}") from exc
    if hours < 0 or not 0 <= minutes < 60:
        raise MalformedRequest(f"bad clock string {text!r}")
    return hours * 60 + minutes


def format_hhmm(minutes: int) -> str:
    """Render minutes as "HH:MM". 1440 renders as "24:00", not "00:00"."""
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


# The longest grid a scenario may have. A run keeps several values per slot
# (the renewable trace, each device's trace, the slot records), so the bound
# keeps one from drawing and holding an endless horizon.
MAX_HORIZON = 1_000_000

# The largest heater fleet a scenario may hold. A fleet run keeps several
# values per heater (its temperature, its packet's last epoch, its heat
# gain), so the bound likewise keeps one from building lists of any size.
MAX_FLEET_COUNT = 1_000_000


@dataclass(frozen=True)
class TimeGrid:
    """Discrete time axis: `horizon` slots of `slot_min` minutes starting at
    wall-clock minute `epoch_start_min`. Slot i covers the half-open interval
    [start + i*slot_min, start + (i+1)*slot_min)."""

    epoch_start_min: int
    slot_min: int
    horizon: int

    def __post_init__(self) -> None:
        if self.slot_min <= 0:
            raise MalformedRequest("slot length must be positive")
        if self.horizon < 1:
            raise MalformedRequest("horizon must be at least one slot")
        if self.horizon > MAX_HORIZON:
            raise MalformedRequest(f"horizon must be at most {MAX_HORIZON} slots")
        if self.epoch_start_min < 0:
            raise MalformedRequest("epoch start must be non-negative")

    @property
    def slot_hours(self) -> float:
        return self.slot_min / 60.0

    @property
    def slot_ms(self) -> float:
        return self.slot_min * 60_000.0

    def slot_of(self, clock: str | int) -> int:
        """Map a wall-clock time ("HH:MM" or minutes) onto a slot boundary.

        The time must be an exact multiple of the slot length.
        """
        minutes = parse_hhmm(clock) if isinstance(clock, str) else clock
        offset = minutes - self.epoch_start_min
        if offset % self.slot_min != 0:
            raise MalformedRequest(
                f"time {format_hhmm(minutes)} is not on the {self.slot_min}-minute grid"
            )
        return offset // self.slot_min

    def clock_of(self, slot: int) -> str:
        return format_hhmm(self.epoch_start_min + slot * self.slot_min)


@functools.lru_cache(maxsize=4)
def slot_clocks(grid: TimeGrid) -> tuple[str, ...]:
    """`grid.clock_of(t)` for t in 0..horizon, both ends included: a
    deadline or a completion can fall on slot `horizon`. Cached by the frozen
    grid, so the runs of a batch on one grid build the table once."""
    return tuple(map(grid.clock_of, range(grid.horizon + 1)))


# Priority levels are small ordinals; ties between equal levels are broken
# only by the server's seeded randomness.
Priority = int


@dataclass(frozen=True)
class FixedProfileRequest:
    """All-or-nothing job with a fixed per-slot consumption profile that must
    run contiguously, starting somewhere in [earliest_start, latest_start]."""

    device_id: str
    profile_w: tuple[float, ...]
    earliest_start: int
    latest_start: int
    priority: Priority
    issued_at: int

    @property
    def deadline(self) -> int:
        """Completion boundary: the slot after the latest admissible run."""
        return self.latest_start + len(self.profile_w)


@dataclass(frozen=True)
class FlexibleTotalRequest:
    """Job needing a total amount of energy anywhere inside its window, drawn
    at up to `p_max_w`, granted in multiples of `packet_w`."""

    device_id: str
    energy_needed_wh: float
    p_max_w: float
    available_from: int
    deadline: int
    packet_w: float
    priority: Priority
    issued_at: int


@dataclass(frozen=True)
class ThermalTargetRequest:
    """Job that must hold a temperature at or above `target_c` throughout
    [service_start, service_end). Heating may run from `preheat_from`; at
    `force_check_at` the server verifies the temperature is on track and
    forces heating if it is not.

    The thermal snapshot fields describe the load at issue time so the
    server can plan the guaranteed heating window without querying the
    device.
    """

    device_id: str
    target_c: float
    service_start: int
    service_end: int
    preheat_from: int
    force_check_at: int
    rated_w: float
    priority: Priority
    issued_at: int
    # thermal snapshot
    temp_c: float
    ambient_c: float
    capacitance_wh_per_c: float
    loss_w_per_c: float
    efficiency: float = 1.0


LoadRequest = Union[FixedProfileRequest, FlexibleTotalRequest, ThermalTargetRequest]


class RejectReason(Enum):
    CAPACITY_EXCEEDED = "capacity_exceeded"
    WINDOW_INFEASIBLE = "window_infeasible"
    MALFORMED_REQUEST = "malformed_request"


@dataclass(frozen=True)
class Accept:
    """Admission: the slot from which the job will run under the forced
    regime if still unfinished."""

    forced_start: int


@dataclass(frozen=True)
class Reject:
    reason: RejectReason
    at_slot: int | None = None


GrantDecision = Union[Accept, Reject]


def validate_request(request: LoadRequest, grid: TimeGrid) -> None:
    """Structural validation: field invariants plus horizon containment.

    Raises MalformedRequest or WindowInfeasible. Capacity feasibility is the
    server's job, not validation's. NaN and infinities go first: range
    checks let NaN through.
    """
    if not isinstance(request, LoadRequest):
        raise MalformedRequest(f"unknown request type {type(request).__name__}")
    check_finite(request)
    if isinstance(request, FixedProfileRequest):
        if not request.profile_w:
            raise MalformedRequest("profile must be non-empty")
        if not all(w > CAP_TOL_W for w in request.profile_w):
            raise MalformedRequest(f"profile power must be positive (above {CAP_TOL_W:g} W)")
        if request.latest_start < request.earliest_start:
            raise WindowInfeasible("latest start precedes earliest start")
        if request.earliest_start < 0 or request.deadline > grid.horizon:
            raise WindowInfeasible("profile window leaves the horizon")
    elif isinstance(request, FlexibleTotalRequest):
        if request.energy_needed_wh < 0:
            raise MalformedRequest("energy needed must be non-negative")
        if request.p_max_w <= 0 or request.packet_w <= 0:
            raise MalformedRequest("power limits must be positive")
        if request.energy_needed_wh > 0 and request.deadline <= request.available_from:
            raise WindowInfeasible("deadline does not follow availability")
        if request.available_from < 0 or request.deadline > grid.horizon:
            raise WindowInfeasible("window leaves the horizon")
        window_h = (request.deadline - request.available_from) * grid.slot_hours
        if request.energy_needed_wh > request.p_max_w * window_h * (1 + 1e-9):
            raise WindowInfeasible(
                f"{request.energy_needed_wh:.1f} Wh cannot fit in "
                f"{window_h:.2f} h at {request.p_max_w:.0f} W"
            )
    else:  # a ThermalTargetRequest
        check_thermal_node(request)
        if not (
            request.preheat_from
            <= request.force_check_at
            <= request.service_start
            < request.service_end
        ):
            raise WindowInfeasible("thermal schedule out of order")
        if request.preheat_from < 0 or request.service_end > grid.horizon:
            raise WindowInfeasible("service window leaves the horizon")
    if request.priority < 0:
        raise MalformedRequest("priority level must be non-negative")


def substream(seed: int, *labels: object) -> random.Random:
    """Derive an independent, reproducible RNG from a run seed and a label
    path. Stable across processes and platforms (unlike hash()).

    The stream is random.Random(n) for n the first 8 bytes of the label
    path's SHA-256, built without the Python-level Random.__init__ and
    Random.seed wrappers: one C seeding of the same integer, then the
    gauss_next that Random.seed would clear. A channel run derives one per
    message; tests/test_core.py checks the states match."""
    key = ":".join([str(seed), *map(str, labels)]).encode()
    rng = random.Random.__new__(random.Random)
    _random.Random.seed(rng, int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))
    rng.gauss_next = None
    return rng
