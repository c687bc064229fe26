"""Deterministic slot-driven simulator of packetized energy management in a
micro-grid: flexible loads request discretized energy packets from an energy
server that admits, schedules, and force-completes them under feeder
capacity, renewable supply, and communication-delay constraints."""

from .core import (
    Accept,
    FixedProfileRequest,
    FlexibleTotalRequest,
    GrantDecision,
    InfeasibleDeadline,
    LoadRequest,
    MalformedRequest,
    Reject,
    RejectReason,
    ThermalTargetRequest,
    TimeGrid,
    WindowInfeasible,
    validate_request,
)
from .engine import (
    RunResult,
    audit_conservation,
    run_scenario,
    summarize_run,
)
from .scenario import (
    BatteryConfig,
    CycleConfig,
    HeaterFleetConfig,
    Scenario,
    ThermalConfig,
    fleet_scenario,
    load_scenario,
    save_scenario,
    three_household_scenario,
)
from .server import (
    CommitmentLedger,
    ReferenceSignal,
    SupplyView,
    allocate_slot,
    compute_forced_start,
    dispatch_supply,
    track_reference,
)

__version__ = "0.1.0"

__all__ = [
    "Accept",
    "BatteryConfig",
    "CommitmentLedger",
    "CycleConfig",
    "FixedProfileRequest",
    "FlexibleTotalRequest",
    "GrantDecision",
    "HeaterFleetConfig",
    "InfeasibleDeadline",
    "LoadRequest",
    "MalformedRequest",
    "Reject",
    "RejectReason",
    "ReferenceSignal",
    "RunResult",
    "Scenario",
    "SupplyView",
    "ThermalConfig",
    "ThermalTargetRequest",
    "TimeGrid",
    "WindowInfeasible",
    "allocate_slot",
    "audit_conservation",
    "compute_forced_start",
    "dispatch_supply",
    "fleet_scenario",
    "load_scenario",
    "run_scenario",
    "save_scenario",
    "summarize_run",
    "three_household_scenario",
    "track_reference",
    "validate_request",
]
