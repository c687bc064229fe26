"""Benchmark inputs: the scenarios each workload runs, made from the
workload seed.

A run is a sweep of operations in whole rounds. Every drawn operation's
input comes from a finite, numbered universe (reference-scenario seeds
1..10000, generated feeders 1..5000, fleet seeds 1..100), each member of
which was run once through every check; the workload seed only picks the
order, or for a fleet the few members, a run uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

from pemsim import scenario as sc
from pemsim.scenario import Scenario
from pemsim.server import ReferenceSignal

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_SCENARIO = ROOT / "scenarios" / "three_household.json"

REFERENCE_SEEDS = 10_000
FEEDERS = 5_000
FLEET_SEEDS = 100

# A round is the fixed operations followed by this many drawn ones.
CHANNEL_ROUND = 9
FEEDER_ROUND = 9
FLEET_ROUND = 1
FLEET_PER_RUN = 4  # fleet seeds a run cycles through

MIXED_HORIZON = 144  # 24 h of 10-minute slots
FLEET_COUNT = 2000
FLEET_HOURS = 8.0
FLEET_EPOCH_MIN = 3
# Natural demand of the default heater is about 1.5 kW; the reference steps
# between a level below it and one above it.
FLEET_LOW_W_PER_HEATER = 1250.0
FLEET_HIGH_W_PER_HEATER = 1750.0
FLEET_STEP_EPOCHS = 20  # one hour of 3-minute epochs


@dataclass(frozen=True)
class KnownFault:
    """A fault of the program that an operation shows on every run. The
    operation counts as failed while its checks report exactly `problems`;
    any other outcome is a failure of the run."""

    note: str
    problems: tuple[str, ...]


# `thermal_forced_need` forces heating only from force_check_at, so with
# force_check_at == service_start a sauna preheated just above target coasts
# below target - 0.5 C.
THERMAL_FAULT_SEED = 87
THERMAL_FAULT = KnownFault(
    "thermal_forced_need ignores forced_start (force_check_at == service_start)",
    ("sauna: accepted, not shed, deadline missed",),
)
# `needed_full_slots` shaves a relative 1e-4 off the remaining energy, more
# than the 1 Wh completion tolerance above 10 kWh, so the EV is planned one
# forced slot short.
SHORT_EV_SEED = 1764
SHORT_EV_FAULT = KnownFault(
    "needed_full_slots plans one slot short above 10 kWh",
    ("ev: accepted, not shed, deadline missed", "ev ends at 29998.824 Wh of 30000.0 Wh"),
)

# Members of the universes on which an admitted, unshed job misses its
# deadline on the current code through one of the two faults above. A fault
# that shows on some inputs only would make the failed share of a run depend
# on the workload seed, so these are not drawn; each fault is kept instead as
# one fixed operation in every round. Reference seeds: the EV ends 1.2-1.5 Wh
# short of full.
SHORT_EV_SEEDS = frozenset({1764, 2589, 3493, 3544, 7158})
# Feeders 200 and 2652: a battery ends short the same way. The others: a
# thermal job hits the thermal fault (58 of 62 jobs with force_check_at ==
# service_start).
MISSED_DEADLINE_FEEDERS = frozenset({
    4, 72, 83, 200, 201, 239, 579, 581, 633, 689, 750, 764, 896, 963, 1112,
    1139, 1252, 1256, 1275, 1416, 1460, 1479, 1752, 2032, 2163, 2234, 2238,
    2281, 2315, 2317, 2395, 2552, 2622, 2652, 2653, 2709, 2793, 2852, 2915,
    2982, 2987, 3007, 3075, 3102, 3127, 3192, 3342, 3516, 3690, 3713, 4107,
    4164, 4249, 4371, 4413, 4469, 4477, 4608, 4787, 4816, 4879, 4904, 4928,
})


@dataclass(frozen=True)
class Operation:
    """One seed of `pemsim batch`: run_scenario, audit_conservation,
    write_bundle, then the benchmark's own checks."""

    label: str
    scenario: Scenario
    reference_evening: bool = False  # the extra checks of the reference scenario
    known_fault: KnownFault | None = None

    @property
    def device_slots(self) -> int:
        """Simulated device-slots: heater-epochs for a fleet."""
        s = self.scenario
        if s.is_fleet:
            return s.devices[0].count * s.grid.horizon
        return len(s.devices) * s.grid.horizon


class Sweep:
    """The operations of one run, in whole rounds: the fixed operations, then
    the next `per_round` drawn inputs, each made into its scenario when its
    round comes."""

    def __init__(self, fixed: list[Operation], inputs: list, per_round: int, make):
        self.fixed = fixed
        self.inputs = inputs
        self.per_round = per_round
        self.make = make
        self.rounds = 0

    def next_round(self) -> list[Operation]:
        start = self.rounds * self.per_round
        self.rounds += 1
        n = len(self.inputs)
        return self.fixed + [
            self.make(self.inputs[(start + j) % n]) for j in range(self.per_round)
        ]


def sweep(workload: str, seed: int) -> Sweep:
    """The workload's sweep for one workload seed. Reference seeds and
    feeders are a seeded permutation of their universe, each run once in a
    run of any length the benchmark allows; a fleet run cycles through
    FLEET_PER_RUN fleet seeds."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "household_channels":
        base = sc.load_scenario(REFERENCE_SCENARIO)
        universe = [s for s in range(1, REFERENCE_SEEDS + 1) if s not in SHORT_EV_SEEDS]
        rng.shuffle(universe)
        fault = Operation(
            f"reference seed {SHORT_EV_SEED}",
            replace(base, seed=SHORT_EV_SEED),
            reference_evening=True,
            known_fault=SHORT_EV_FAULT,
        )
        return Sweep(
            [fault],
            universe,
            CHANNEL_ROUND,
            lambda s: Operation(f"reference seed {s}", replace(base, seed=s), reference_evening=True),
        )
    if workload == "household_mixed":
        universe = [k for k in range(1, FEEDERS + 1) if k not in MISSED_DEADLINE_FEEDERS]
        rng.shuffle(universe)
        fault = Operation(
            f"reference, force check 19:00, seed {THERMAL_FAULT_SEED}",
            fault_scenario(),
            known_fault=THERMAL_FAULT,
        )
        return Sweep(
            [fault],
            universe,
            FEEDER_ROUND,
            lambda k: Operation(f"feeder {k}", sc.scenario_from_dict(mixed_feeder_doc(k))),
        )
    if workload == "fleet":
        cases = [
            Operation(f"fleet seed {s}", fleet_case(s))
            for s in rng.sample(range(1, FLEET_SEEDS + 1), FLEET_PER_RUN)
        ]
        return Sweep([], cases, FLEET_ROUND, lambda op: op)
    raise ValueError(f"unknown workload {workload!r}")


def fault_scenario() -> Scenario:
    """The reference evening without channels and with the sauna's force
    check at service start."""
    base = sc.load_scenario(REFERENCE_SCENARIO)
    devices = tuple(
        replace(d, force_check_at=d.service_start) if d.device_id == "sauna" else d
        for d in base.devices
    )
    return replace(base, devices=devices, channels=None, seed=THERMAL_FAULT_SEED)


def fleet_case(seed: int) -> Scenario:
    """A heater fleet over 8 h whose reference steps between two levels;
    the seed also sets the phase of the steps."""
    epochs = int(FLEET_HOURS * 60 / FLEET_EPOCH_MIN)
    phase = random.Random(f"fleet-reference:{seed}").randrange(2 * FLEET_STEP_EPOCHS)
    values = tuple(
        FLEET_COUNT
        * (FLEET_HIGH_W_PER_HEATER if ((e + phase) // FLEET_STEP_EPOCHS) % 2 else FLEET_LOW_W_PER_HEATER)
        for e in range(epochs)
    )
    return sc.fleet_scenario(
        count=FLEET_COUNT,
        reference_w=ReferenceSignal(values_w=values),
        hours=FLEET_HOURS,
        seed=seed,
        epoch_min=FLEET_EPOCH_MIN,
    )


def mixed_feeder_doc(number: int) -> dict:
    """Scenario document for generated feeder `number`: 20 thermal, battery
    and fixed-cycle loads over 24 h with storage and a tight feeder, so some
    requests are refused and retry. Odd feeders are islanded with emergency
    shedding on.

    force_check_at is drawn anywhere in [preheat_from, service_start].
    """
    rng = random.Random(f"household_mixed-feeder:{number}")

    def clock(minutes: int) -> str:
        return f"{minutes // 60:02d}:{minutes % 60:02d}"

    horizon = MIXED_HORIZON
    slot_min = 10
    devices: list[dict] = []
    for k in range(6):
        start = rng.randint(30, horizon - 4)
        preheat = rng.randint(max(0, start - 36), start - 12)
        devices.append(
            {
                "type": "thermal",
                "id": f"th{k}",
                "rated_w": float(rng.randrange(2400, 4201, 200)),
                "target_c": float(rng.randrange(45, 71)),
                "service_start": clock(start * slot_min),
                "service_end": clock(min(horizon, start + rng.randint(3, 9)) * slot_min),
                "preheat_from": clock(preheat * slot_min),
                "force_check_at": clock(rng.randint(preheat, start) * slot_min),
                "priority": rng.randint(1, 3),
            }
        )
    for k in range(8):
        p_max = float(rng.randrange(2000, 7001, 500))
        arrival = rng.randint(0, horizon - 24)
        deadline = rng.randint(arrival + 12, horizon)
        window_h = (deadline - arrival) * slot_min / 60.0
        devices.append(
            {
                "type": "battery",
                "id": f"bat{k}",
                "capacity_wh": float(round(p_max * window_h * rng.uniform(0.2, 0.6))),
                "p_max_w": p_max,
                "arrive": clock(arrival * slot_min),
                "deadline": clock(deadline * slot_min),
                "packet_w": rng.choice([500.0, 1000.0]),
                "priority": rng.randint(1, 3),
                "initial_soc_wh": None if rng.random() < 0.5 else 0.0,
            }
        )
    for k in range(6):
        length = rng.randint(2, 9)
        earliest = rng.randint(0, horizon - length - 6)
        deadline = rng.randint(earliest + length, min(horizon, earliest + length + 36))
        devices.append(
            {
                "type": "cycle",
                "id": f"cyc{k}",
                "power_w": float(rng.randrange(500, 3001, 100)),
                "duration_slots": length,
                "earliest_start": clock(earliest * slot_min),
                "deadline": clock(deadline * slot_min),
                "priority": rng.randint(1, 3),
            }
        )
    capacity = float(rng.randrange(18_000, 26_001, 1000))
    storage_wh = float(rng.randrange(5000, 20_001, 1000))
    return {
        "grid": {"start": "00:00", "slot_min": slot_min, "horizon": horizon},
        "feeder_capacity_w": capacity,
        "devices": devices,
        "renewable": {
            "kind": "random_walk",
            "mean_w": rng.uniform(6000.0, 12_000.0),
            "volatility_w": 1500.0,
        },
        "storage": {
            "soc_wh": round(rng.uniform(0.0, storage_wh)),
            "capacity_wh": storage_wh,
            "p_charge_max_w": float(rng.randrange(2000, 6001, 500)),
            "p_discharge_max_w": float(rng.randrange(2000, 6001, 500)),
            "efficiency": rng.uniform(0.9, 1.0),
        },
        "import_allowed": number % 2 == 0,
        "channels": None,
        "server": {"backoff_max": 3, "renewable_first": True, "emergency_shedding": True},
        "seed": number,
    }
