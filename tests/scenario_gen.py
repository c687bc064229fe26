"""Seeded random scenario and request generators shared across test modules."""

from __future__ import annotations

import random
from dataclasses import replace

from pemsim.comms import ChannelClass, ChannelProfile
from pemsim.core import (
    FixedProfileRequest,
    FlexibleTotalRequest,
    ThermalTargetRequest,
    TimeGrid,
)
from pemsim.devices import StorageAsset
from pemsim.scenario import (
    BatteryConfig,
    CycleConfig,
    RenewableConfig,
    Scenario,
    ThermalConfig,
)


def null_channels() -> dict[str, ChannelProfile]:
    """Lossless zero-delay channels; messages are logged but never perturb
    slot timing, so a run with them must match a run without channels."""
    zero = dict(offset_ms=0.0, mean_ms=0.0, loss_prob=0.0,
                retransmit_timeout_ms=0.0, max_attempts=1)
    return {
        "request": ChannelProfile(cls=ChannelClass.URLLC, **zero),
        "grant": ChannelProfile(cls=ChannelClass.URLLC, **zero),
        "meter": ChannelProfile(cls=ChannelClass.MMTC, **zero),
        "trip": ChannelProfile(cls=ChannelClass.URLLC, **zero),
    }


def without_channels(scenario: Scenario) -> Scenario:
    """The scenario with its channel layer and trip traffic switched off."""
    return replace(scenario, channels=None, trip_rate_per_hour=0.0)


def random_household_scenario(
    seed: int,
    *,
    allow_thermal: bool = True,
    allow_storage: bool = True,
    import_allowed: bool = True,
) -> Scenario:
    """A small random but self-consistent household scenario. Requests may
    still be rejected by admission; that is part of what gets tested."""
    rng = random.Random(seed ^ 0xC0FFEE)
    horizon = rng.randint(24, 42)
    grid = TimeGrid(
        epoch_start_min=rng.choice([0, 360, 960]), slot_min=10, horizon=horizon
    )
    devices = []
    for k in range(rng.randint(1, 4)):
        kinds = ["battery", "cycle"] + (["thermal"] if allow_thermal else [])
        kind = rng.choice(kinds)
        if kind == "battery":
            p_max = rng.uniform(1000.0, 5000.0)
            arrival = rng.randint(0, horizon // 2)
            deadline = rng.randint(arrival + 4, horizon)
            window_h = (deadline - arrival) * grid.slot_hours
            capacity = p_max * window_h * rng.uniform(0.2, 0.8)
            devices.append(
                BatteryConfig(
                    device_id=f"batt{k}",
                    capacity_wh=capacity,
                    p_max_w=p_max,
                    arrival=arrival,
                    deadline=deadline,
                    priority=rng.randint(1, 3),
                    packet_w=rng.choice([250.0, 500.0, 1000.0]),
                    initial_soc_wh=0.0 if rng.random() < 0.5 else None,
                )
            )
        elif kind == "cycle":
            length = rng.randint(2, 6)
            earliest = rng.randint(0, horizon - length - 2)
            latest = rng.randint(earliest, horizon - length)
            power = rng.uniform(500.0, 3000.0)
            devices.append(
                CycleConfig(
                    device_id=f"cyc{k}",
                    profile_w=(power,) * length,
                    earliest_start=earliest,
                    deadline=latest + length,
                    priority=rng.randint(1, 3),
                )
            )
        else:
            service_start = rng.randint(12, horizon - 2)
            service_end = min(horizon, service_start + rng.randint(1, 4))
            preheat = rng.randint(0, service_start - 10)
            check = rng.randint(preheat, service_start)
            devices.append(
                ThermalConfig(
                    device_id=f"th{k}",
                    rated_w=rng.uniform(2400.0, 4200.0),
                    target_c=rng.uniform(35.0, 60.0),
                    service_start=service_start,
                    service_end=service_end,
                    preheat_from=preheat,
                    force_check_at=check,
                    priority=rng.randint(1, 3),
                )
            )
    storage = None
    if allow_storage and rng.random() < 0.5:
        capacity = rng.uniform(2000.0, 8000.0)
        storage = StorageAsset(
            soc_wh=rng.uniform(0.0, capacity),
            capacity_wh=capacity,
            p_charge_max_w=rng.uniform(1000.0, 3000.0),
            p_discharge_max_w=rng.uniform(1000.0, 3000.0),
            efficiency=rng.uniform(0.85, 1.0),
        )
    return Scenario(
        grid=grid,
        feeder_capacity_w=rng.uniform(5000.0, 14000.0),
        devices=tuple(devices),
        renewable=RenewableConfig(
            kind="random_walk",
            mean_w=rng.uniform(0.0, 5000.0),
            volatility_w=rng.uniform(0.0, 1500.0),
        ),
        storage=storage,
        import_allowed=import_allowed,
        channels=None,
        seed=seed,
    )


def random_admission_instance(seed: int, max_jobs: int = 4, max_slots: int = 12):
    """(grid, capacity, requests) for small admission instances the
    brute-force oracle can scan exhaustively."""
    rng = random.Random(seed * 7919 + 13)
    horizon = rng.randint(4, max_slots)
    grid = TimeGrid(epoch_start_min=0, slot_min=10, horizon=horizon)
    capacity = rng.uniform(2000.0, 9000.0)
    requests = []
    for k in range(rng.randint(1, max_jobs)):
        roll = rng.random()
        if roll < 0.45:
            available = rng.randint(0, horizon - 2)
            deadline = rng.randint(available + 1, horizon)
            p_max = rng.uniform(500.0, 6000.0)
            window_h = (deadline - available) * grid.slot_hours
            energy = p_max * window_h * rng.uniform(0.05, 1.0)
            requests.append(
                FlexibleTotalRequest(
                    device_id=f"flex{k}",
                    energy_needed_wh=energy,
                    p_max_w=p_max,
                    available_from=available,
                    deadline=deadline,
                    packet_w=500.0,
                    priority=rng.randint(1, 3),
                    issued_at=0,
                )
            )
        elif roll < 0.8:
            length = rng.randint(1, min(4, horizon))
            earliest = rng.randint(0, horizon - length)
            latest = rng.randint(earliest, horizon - length)
            requests.append(
                FixedProfileRequest(
                    device_id=f"fix{k}",
                    profile_w=tuple(rng.uniform(300.0, 4000.0) for _ in range(length)),
                    earliest_start=earliest,
                    latest_start=latest,
                    priority=rng.randint(1, 3),
                    issued_at=0,
                )
            )
        else:
            service_start = rng.randint(2, horizon - 1)
            service_end = rng.randint(service_start + 1, horizon)
            preheat = rng.randint(0, service_start - 1)
            check = rng.randint(preheat, service_start)
            rated = rng.uniform(2400.0, 4200.0)
            requests.append(
                ThermalTargetRequest(
                    device_id=f"th{k}",
                    target_c=rng.uniform(25.0, 45.0),
                    service_start=service_start,
                    service_end=service_end,
                    preheat_from=preheat,
                    force_check_at=check,
                    rated_w=rated,
                    priority=rng.randint(1, 3),
                    issued_at=0,
                    temp_c=20.0,
                    ambient_c=20.0,
                    capacitance_wh_per_c=60.0,
                    loss_w_per_c=10.0,
                    efficiency=1.0,
                )
            )
    return grid, capacity, requests
