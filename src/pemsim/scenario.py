"""Scenario configuration: device descriptors, supply, channels, server
policy, and JSON (de)serialization.

Scenario files are JSON documents with top-level keys `grid`,
`feeder_capacity_w`, `devices`, `renewable`, `storage`, `channels`,
`server`, `seed` (plus `reference` for fleet runs). Times are "HH:MM"
strings and must land exactly on the configured grid.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import Callable, Union, get_args, get_origin, get_type_hints

from .comms import ChannelProfile
from .core import (
    MAX_FLEET_COUNT,
    FixedProfileRequest,
    MalformedRequest,
    ThermalTargetRequest,
    TimeGrid,
    WindowInfeasible,
    check_finite,
    parse_hhmm,
    substream,
    validate_request,
)
from .devices import StorageAsset, WaterHeaterParams, random_walk_trace
from .server import ReferenceSignal

# Trip signals are sent one message per Poisson arrival, so a run's time and
# its channel log grow with the rate; validate bounds the expected count.
MAX_TRIP_MESSAGES = 100_000

# The message kinds a channel block routes, one profile each.
_CHANNEL_KINDS = frozenset({"request", "grant", "meter", "trip"})


@dataclass(frozen=True)
class ThermalConfig:
    """A temperature-target load (e.g. a sauna): must sit at or above
    target_c throughout the service window."""

    device_id: str
    rated_w: float
    target_c: float
    service_start: int
    service_end: int
    preheat_from: int
    force_check_at: int
    priority: int = 2
    capacitance_wh_per_c: float = 60.0
    loss_w_per_c: float = 10.0
    ambient_c: float = 20.0
    initial_c: float = 20.0
    efficiency: float = 1.0
    packet_w: float | None = None  # grant quantum; defaults to rated power

    @property
    def quantum_w(self) -> float:
        return self.packet_w if self.packet_w is not None else self.rated_w


@dataclass(frozen=True)
class BatteryConfig:
    """A deadline-bound charging load (e.g. an EV battery)."""

    device_id: str
    capacity_wh: float
    p_max_w: float
    arrival: int
    deadline: int
    priority: int = 3
    packet_w: float = 1000.0
    initial_soc_wh: float | None = None  # None: seeded uniform on [0, capacity/2]


@dataclass(frozen=True)
class CycleConfig:
    """A fixed, contiguous consumption profile with a start window."""

    device_id: str
    profile_w: tuple[float, ...]
    earliest_start: int
    deadline: int  # completion boundary; latest start is deadline - len(profile)
    priority: int = 1

    @property
    def latest_start(self) -> int:
        return self.deadline - len(self.profile_w)


@dataclass(frozen=True)
class HeaterFleetConfig:
    """A population of deadband water heaters tracked against a reference."""

    device_id: str
    count: int
    params: WaterHeaterParams = field(default_factory=WaterHeaterParams)
    packet_epochs: int = 8  # epochs one accepted packet keeps a heater on


DeviceConfig = Union[ThermalConfig, BatteryConfig, CycleConfig, HeaterFleetConfig]


@dataclass(frozen=True)
class RenewableConfig:
    """Either a fixed per-slot trace or a seeded clipped random walk."""

    kind: str = "random_walk"  # "random_walk" | "trace"
    mean_w: float = 3000.0
    volatility_w: float = 600.0
    values_w: tuple[float, ...] | None = None

    def validate(self) -> None:
        """The checks `build` makes, without drawing the walk."""
        if self.kind == "trace":
            if not self.values_w:
                raise MalformedRequest("fixed renewable trace needs values_w")
            if any(v < 0 for v in self.values_w):
                raise MalformedRequest("renewable power must be non-negative")
        elif self.kind == "random_walk":
            if self.values_w is not None:
                raise MalformedRequest("renewable kind random_walk takes no values_w")
            if self.mean_w < 0 or self.volatility_w < 0:
                raise MalformedRequest("renewable mean_w and volatility_w must be non-negative")
        else:
            raise MalformedRequest(f"unknown renewable kind {self.kind!r}")

    def build(self, n_slots: int, rng: random.Random) -> tuple[float, ...]:
        """One value per slot. A fixed trace holds its last value past its
        end and is cut at the horizon."""
        self.validate()
        if self.kind == "trace":
            values = tuple(self.values_w)
            if len(values) < n_slots:
                values += (values[-1],) * (n_slots - len(values))
            return values[:n_slots]
        return random_walk_trace(n_slots, self.mean_w, self.volatility_w, rng)


@dataclass(frozen=True)
class ServerPolicy:
    backoff_max: int = 3
    renewable_first: bool = True
    emergency_shedding: bool = True


@dataclass(frozen=True)
class Scenario:
    grid: TimeGrid
    feeder_capacity_w: float
    devices: tuple[DeviceConfig, ...]
    renewable: RenewableConfig = field(default_factory=RenewableConfig)
    storage: StorageAsset | None = None
    import_allowed: bool = True
    channels: dict[str, ChannelProfile] | None = None
    policy: ServerPolicy = field(default_factory=ServerPolicy)
    reference: ReferenceSignal | None = None
    trip_rate_per_hour: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        # NaN and infinities first, as the range checks below let NaN
        # through. A scenario built in Python skips the file codec, which
        # refuses them too; storage, channel profiles, heater params and the
        # reference refuse them as they are built
        check_finite(self)
        check_finite(self.renewable, "renewable")
        for device in self.devices:
            check_finite(device, device.device_id)
        if self.feeder_capacity_w <= 0:
            raise MalformedRequest("feeder capacity must be positive")
        ids = [d.device_id for d in self.devices]
        if len(set(ids)) != len(ids):
            raise MalformedRequest("device ids must be unique")
        fleet = [d for d in self.devices if isinstance(d, HeaterFleetConfig)]
        household = [d for d in self.devices if not isinstance(d, HeaterFleetConfig)]
        if fleet and household:
            raise MalformedRequest(
                "fleet and household devices run on different clocks; use separate scenarios"
            )
        if len(fleet) > 1:
            raise MalformedRequest("at most one heater fleet per scenario")
        if fleet and self.reference is None:
            raise MalformedRequest("fleet scenarios need a reference signal")
        if not fleet and self.reference is not None:
            raise MalformedRequest("household runs track no reference; set reference to null")
        # the fleet loop has no channel layer and no admission queue
        if fleet and self.channels is not None:
            raise MalformedRequest("fleet runs use no channels; set channels to null")
        if fleet and self.trip_rate_per_hour > 0:
            raise MalformedRequest("fleet runs send no trip signals; set trip_rate_per_hour to 0")
        if fleet and self.policy != ServerPolicy():
            raise MalformedRequest("fleet runs ignore the server policy; leave it at its defaults")
        if self.policy.backoff_max < 1:
            raise MalformedRequest("server.backoff_max must be at least 1")
        if self.trip_rate_per_hour < 0:
            raise MalformedRequest("trip_rate_per_hour must be non-negative")
        expected_trips = self.trip_rate_per_hour * self.grid.horizon * self.grid.slot_hours
        if expected_trips > MAX_TRIP_MESSAGES:
            raise MalformedRequest(
                f"trip_rate_per_hour {self.trip_rate_per_hour:g} expects {expected_trips:.0f} "
                f"trip messages over the horizon; at most {MAX_TRIP_MESSAGES} are allowed"
            )
        self.renewable.validate()
        for device in fleet:
            if device.count < 1:
                raise MalformedRequest(f"{device.device_id}.count must be at least 1")
            if device.count > MAX_FLEET_COUNT:
                raise MalformedRequest(
                    f"{device.device_id}.count must be at most {MAX_FLEET_COUNT}"
                )
            if device.packet_epochs < 1:
                raise MalformedRequest(f"{device.device_id}.packet_epochs must be at least 1")
            # every heater may be forced on at once, and the fleet loop cannot refuse one
            all_on_w = device.count * device.params.rated_w
            if self.feeder_capacity_w < all_on_w:
                raise MalformedRequest(
                    f"feeder_capacity_w {self.feeder_capacity_w:g} is below "
                    f"{device.device_id}.count x rated_w = {all_on_w:g}"
                )
            # with imports barred the renewable trace alone must cover them:
            # storage does not count, as its charge can run out while the
            # fleet stays forced on. A fleet that may import builds no trace
            if not self.import_allowed:
                renewable_min_w = min(self.renewable_trace())
                if renewable_min_w < all_on_w:
                    raise MalformedRequest(
                        f"import_allowed is false, and the renewable minimum "
                        f"{renewable_min_w:g} W is below {device.device_id}.count x rated_w = "
                        f"{all_on_w:g}"
                    )
        if self.channels is not None:
            missing = _CHANNEL_KINDS - set(self.channels)
            if missing:
                raise MalformedRequest(f"channel block missing kinds: {sorted(missing)}")
            unknown = set(self.channels) - _CHANNEL_KINDS
            if unknown:
                raise MalformedRequest(f"channel block has unknown kinds: {sorted(unknown)}")
        for device in household:
            for slot_attr in _TIME_FIELDS[type(device)]:
                slot = getattr(device, slot_attr)
                if not 0 <= slot <= self.grid.horizon:
                    raise MalformedRequest(
                        f"{device.device_id}.{slot_attr} outside the horizon"
                    )
            try:
                _check_device(device, self.grid)
            except (MalformedRequest, WindowInfeasible) as exc:
                raise type(exc)(f"{device.device_id}: {exc}") from None

    @property
    def is_fleet(self) -> bool:
        return any(isinstance(d, HeaterFleetConfig) for d in self.devices)

    def renewable_trace(self) -> tuple[float, ...]:
        return self.renewable.build(
            self.grid.horizon, substream(self.seed, "renewable")
        )


def _check_device(device: ThermalConfig | BatteryConfig | CycleConfig, grid: TimeGrid) -> None:
    """Check a household device, naming the bad field, so that admission
    never refuses its request as malformed. A thermal or cycle config fixes
    its request (a thermal node's first one at its initial temperature), so
    core.validate_request checks that, its window included; whether the node
    can reach its target stays a run outcome. A battery's request holds
    its arrival charge, which may be drawn, so its fields are checked here
    and whether its energy fits its window stays a run outcome. A battery
    without `initial_soc_wh` draws it from [0, capacity / 2], so it passes
    exactly when an empty battery does."""
    if isinstance(device, ThermalConfig):
        if device.packet_w is not None and device.packet_w <= 0:
            raise MalformedRequest("packet_w must be positive")
        validate_request(_thermal_request(device, device.preheat_from, device.initial_c), grid)
    elif isinstance(device, CycleConfig):
        validate_request(_cycle_request(device, device.earliest_start), grid)
    else:
        if device.priority < 0:
            raise MalformedRequest("priority level must be non-negative")
        if device.packet_w <= 0:
            raise MalformedRequest("packet_w must be positive")
        if device.p_max_w <= 0:
            raise MalformedRequest("p_max_w must be positive")
        if device.initial_soc_wh is not None:
            if not 0 <= device.initial_soc_wh <= device.capacity_wh:
                raise MalformedRequest("initial_soc_wh out of [0, capacity_wh]")
        elif not 0 <= device.capacity_wh:
            raise MalformedRequest("capacity_wh must be non-negative")


def _thermal_request(cfg: ThermalConfig, issued_at: int, temp_c: float) -> ThermalTargetRequest:
    """The request a thermal node at `temp_c` sends at slot `issued_at`."""
    return ThermalTargetRequest(
        cfg.device_id, cfg.target_c, cfg.service_start, cfg.service_end, cfg.preheat_from,
        cfg.force_check_at, cfg.rated_w, cfg.priority, issued_at, temp_c, cfg.ambient_c,
        cfg.capacitance_wh_per_c, cfg.loss_w_per_c, cfg.efficiency,
    )


def _cycle_request(cfg: CycleConfig, issued_at: int) -> FixedProfileRequest:
    """The request a cycle sends at slot `issued_at`."""
    return FixedProfileRequest(
        cfg.device_id, cfg.profile_w, cfg.earliest_start, cfg.latest_start, cfg.priority, issued_at
    )


_TIME_FIELDS: dict[type, tuple[str, ...]] = {
    ThermalConfig: ("preheat_from", "force_check_at", "service_start", "service_end"),
    BatteryConfig: ("arrival", "deadline"),
    CycleConfig: ("earliest_start", "deadline"),
}


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

# Document keys that differ from the dataclass field they hold.
_ALIASES = {
    "device_id": "id",
    "arrival": "arrive",
    "cls": "class",
    "loss_prob": "loss",
    "retransmit_timeout_ms": "timeout_ms",
    "policy": "server",
}

_DEVICE_TYPES: dict[str, type] = {
    "thermal": ThermalConfig,
    "battery": BatteryConfig,
    "cycle": CycleConfig,
    "heater_fleet": HeaterFleetConfig,
}
_TYPE_NAMES = {cls: name for name, cls in _DEVICE_TYPES.items()}


def _encode(obj, clock) -> dict:
    """Document of a config dataclass: one key per field, slot fields as
    clock strings. Device documents carry their `type`, and a heater fleet's
    parameters sit flat beside its own fields."""
    doc = {}
    if type(obj) in _TYPE_NAMES:
        doc["type"] = _TYPE_NAMES[type(obj)]
    times = _TIME_FIELDS.get(type(obj), ())
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, WaterHeaterParams):
            doc.update(_encode(value, clock))
            continue
        doc[_ALIASES.get(f.name, f.name)] = (
            clock(value) if f.name in times else _plain(value, clock)
        )
    return doc


def _plain(value, clock):
    if is_dataclass(value):
        return _encode(value, clock)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(v, clock) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v, clock) for k, v in value.items()}
    return value


# The JSON values a scalar field accepts, and how an error names them. A
# JSON bool decodes to a Python bool, which is an int, so the numeric
# fields reject it by a check of their own.
_SCALARS: dict[type, tuple[tuple[type, ...], str]] = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}
_CONTAINERS = {dict: "an object", list: "an array"}


def _shown(value) -> str:
    """A document value as an error shows it: an object or array by kind."""
    return _CONTAINERS.get(type(value)) or repr(value)


def _container(value, kind: type, key: str):
    """`value`, if it is a `kind` (dict or list); else an error naming `key`."""
    if not isinstance(value, kind):
        raise MalformedRequest(f"{key} must be {_CONTAINERS[kind]}, got {_shown(value)}")
    return value


def _required(doc: dict, key: str):
    value = doc.get(key)
    if value is None:
        raise MalformedRequest(f"missing required key {key!r}")
    return value


def _scalar(kind: type, key: str) -> Callable[[object, TimeGrid], object]:
    """Converter for a scalar field: no coercion, so "false" in a bool field
    and 2.7 in an int field are rejected naming `key`; an int in a float
    field becomes a float. A number must be finite, and an int must fit a
    float: JSON's NaN and Infinity, and an integer no float can hold, are
    rejected too."""
    accepted, expected = _SCALARS[kind]

    def convert(value, grid):
        if isinstance(value, bool) is not (kind is bool) or not isinstance(value, accepted):
            raise MalformedRequest(f"{key} must be {expected}, got {_shown(value)}")
        if kind in (int, float):
            try:
                number = float(value)
            except OverflowError:
                raise MalformedRequest(f"{key} is too large for a float") from None
            if not math.isfinite(number):
                raise MalformedRequest(f"{key} must be finite, got {value!r}")
        return kind(value)

    return convert


def _clock(key: str) -> Callable[[object, TimeGrid | None], int]:
    """Converter for a time: an "HH:MM" string or whole minutes, mapped onto
    the grid's slots; without a grid (the grid's own start), the minutes."""

    def convert(value, grid):
        if isinstance(value, str):
            minutes = parse_hhmm(value)
        elif isinstance(value, int) and not isinstance(value, bool):
            minutes = value
        else:
            raise MalformedRequest(f"{key} must be HH:MM or minutes, got {_shown(value)}")
        return minutes if grid is None else grid.slot_of(minutes)

    return convert


def _converter(kind, key: str) -> Callable[[object, TimeGrid], object]:
    """Function (document value, grid) -> field value for an annotated type;
    `key` is the document key an error names."""
    if kind == DeviceConfig:
        return _decode_device
    if get_origin(kind) in (Union, UnionType):  # X | None; a null is handled by _decode
        (kind,) = [a for a in get_args(kind) if a is not type(None)]
    origin, args = get_origin(kind), get_args(kind)
    if origin is tuple:
        item = _converter(args[0], key)
        return lambda value, grid: tuple(item(v, grid) for v in _container(value, list, key))
    if origin is dict:
        item = _converter(args[1], key)
        return lambda value, grid: {
            k: item(v, grid) for k, v in _container(value, dict, key).items()
        }
    if is_dataclass(kind):
        return lambda value, grid: _decode(kind, _container(value, dict, key), grid)
    if issubclass(kind, Enum):  # the codec's enums hold strings
        members = {member.value: member for member in kind}

        def member(value, grid):
            if isinstance(value, str) and value in members:
                return members[value]
            raise MalformedRequest(f"{key} must be one of {sorted(members)}, got {_shown(value)}")

        return member
    return _scalar(kind, key)


@functools.cache
def _decoder(cls) -> tuple[tuple[str, str, Callable, bool], ...]:
    """(field, document key, converter, required) per field of `cls`. The
    annotations are resolved once per class: resolving them costs far more
    than decoding a document."""
    hints = get_type_hints(cls)
    times = _TIME_FIELDS.get(cls, ())
    decoder = []
    for f in fields(cls):
        key = _ALIASES.get(f.name, f.name)
        decoder.append((
            f.name,
            key,
            _clock(key) if f.name in times else _converter(hints[f.name], key),
            f.default is MISSING and f.default_factory is MISSING,
        ))
    return tuple(decoder)


# Keys a document may hold beyond its fields': a device's `type`, and a
# cycle's legacy form. A heater fleet's parameters sit flat beside its own
# fields, so either of the two accepts the other's keys; `params` is no key.
_EXTRA_KEYS: dict[type, frozenset[str]] = {
    ThermalConfig: frozenset({"type"}),
    BatteryConfig: frozenset({"type"}),
    CycleConfig: frozenset({"type", "power_w", "duration_slots"}),
}


@functools.cache
def _document_keys(cls) -> frozenset[str]:
    """The keys a document of `cls` may hold."""
    if cls in (HeaterFleetConfig, WaterHeaterParams):
        fleet = {key for _, key, _, _ in _decoder(HeaterFleetConfig) if key != "params"}
        return frozenset({"type", *fleet, *(key for _, key, _, _ in _decoder(WaterHeaterParams))})
    return frozenset(key for _, key, _, _ in _decoder(cls)) | _EXTRA_KEYS.get(cls, frozenset())


def _known_keys(doc: dict, keys: frozenset[str]) -> None:
    """Reject the first key of `doc` outside `keys`: a misspelt key would
    otherwise leave its field at the default."""
    for key in doc:
        if key not in keys:
            raise MalformedRequest(f"unknown key {key!r}")


def _decode(cls, doc: dict, grid: TimeGrid, /, **given):
    """Build `cls` from its document, an object. A missing or null key takes
    the field's default; a required one is an error naming the key, and so
    is a key no field holds. Fields in `given` are taken as they are."""
    _known_keys(doc, _document_keys(cls))
    for name, key, convert, required in _decoder(cls):
        if name in given:
            continue
        value = doc.get(key)
        if value is None:
            if required:
                raise MalformedRequest(f"missing required key {key!r}")
            continue
        given[name] = convert(value, grid)
    return cls(**given)


def _decode_device(doc, grid: TimeGrid) -> DeviceConfig:
    doc = _container(doc, dict, "a device")
    kind = doc.get("type")
    cls = _DEVICE_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise MalformedRequest(f"type must be one of {sorted(_DEVICE_TYPES)}, got {_shown(kind)}")
    if cls is HeaterFleetConfig:
        return _decode(cls, doc, grid, params=_decode(WaterHeaterParams, doc, grid))
    if cls is CycleConfig and "profile_w" in doc:
        for key in ("power_w", "duration_slots"):
            if key in doc:
                raise MalformedRequest(f"{key} is the legacy form of profile_w; give one form")
    elif cls is CycleConfig:
        # legacy form: one power level held for a number of slots
        slots = _scalar(int, "duration_slots")(_required(doc, "duration_slots"), grid)
        if slots > grid.horizon:
            raise MalformedRequest("duration_slots exceeds the horizon")
        power_w = _scalar(float, "power_w")(_required(doc, "power_w"), grid)
        doc = {**doc, "profile_w": [power_w] * slots}
    return _decode(cls, doc, grid)


def scenario_to_dict(scenario: Scenario) -> dict:
    grid = scenario.grid
    doc = _encode(scenario, grid.clock_of)
    doc["grid"] = {
        "start": grid.clock_of(0),
        "slot_min": grid.slot_min,
        "horizon": grid.horizon,
    }
    if scenario.reference is None:
        del doc["reference"]
    return doc


_GRID_KEYS = frozenset({"start", "slot_min", "horizon"})


def scenario_from_dict(doc: dict) -> Scenario:
    """The scenario of a document, validated. A malformed document raises
    MalformedRequest naming the key; a well-formed one that
    Scenario.validate refuses raises what validate raises."""
    doc = _container(doc, dict, "a scenario")
    block = _container(_required(doc, "grid"), dict, "grid")
    _known_keys(block, _GRID_KEYS)
    grid = TimeGrid(
        epoch_start_min=_clock("start")(_required(block, "start"), None),
        slot_min=_scalar(int, "slot_min")(_required(block, "slot_min"), None),
        horizon=_scalar(int, "horizon")(_required(block, "horizon"), None),
    )
    # a document without devices is an empty feeder
    scenario = _decode(Scenario, {"devices": [], **doc}, grid, grid=grid)
    scenario.validate()
    return scenario


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_scenario(path: str | Path) -> Scenario:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # an integer literal past the digit limit
        raise MalformedRequest(str(exc)) from None
    return scenario_from_dict(doc)


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------

def three_household_scenario(seed: int = 1) -> Scenario:
    """The reference three-household evening, shipped as three_household.json
    beside this module: a sauna that must reach 70 C by 19:00, an EV that
    must be full by midnight, and a one-hour dishwasher cycle that must
    finish by midnight, on a 10 kW feeder with a random renewable trace and
    imports allowed. Requests, grants and trip signals go over URLLC
    channels, meter reports over an mMTC channel."""
    return replace(load_scenario(Path(__file__).with_name("three_household.json")), seed=seed)


def fleet_scenario(
    count: int = 1000,
    reference_w: float | ReferenceSignal = 1_500_000.0,
    hours: float = 8.0,
    seed: int = 1,
    epoch_min: int = 3,
) -> Scenario:
    """A water-heater fleet tracking an aggregate reference on its own
    (shorter) epoch grid."""
    epochs = hours * 60 / epoch_min
    if not (math.isfinite(epochs) and epochs > 0):
        raise MalformedRequest(f"fleet hours must be finite and positive, got {hours!r}")
    horizon = int(round(epochs))
    grid = TimeGrid(epoch_start_min=0, slot_min=epoch_min, horizon=horizon)
    if isinstance(reference_w, ReferenceSignal):
        reference = reference_w
    else:
        reference = ReferenceSignal.constant(float(reference_w), horizon)
    fleet = HeaterFleetConfig(device_id="fleet", count=count)
    return Scenario(
        grid=grid,
        feeder_capacity_w=max(1.0, count * fleet.params.rated_w),
        devices=(fleet,),
        renewable=RenewableConfig(kind="trace", values_w=(0.0,)),
        reference=reference,
        seed=seed,
    )
