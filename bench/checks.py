"""Properties every operation's output must have, computed by the benchmark
from the written bundle (and, where the bundle holds no such value, from the
in-memory RunResult). Each check returns a list of problems; empty means the
output passed.

The CSV files print floats with 6 decimals, so a value read back is within
5e-7 of the one the program held; tolerances below are that rounding times
the number of values summed, plus a relative 1e-9 for float arithmetic.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

ROUND_W = 5e-7
THERMAL_TOL_C = 1e-9
REFERENCE_TARGET_C = 69.5
EV_FULL_TOL_WH = 1.0

# channel.csv `kind` -> the scenario's channel key the engine sends it on
CHANNEL_OF_KIND = {
    "packet_request": "request",
    "grant": "grant",
    "reject": "grant",
    "meter_report": "meter",
    "trip_signal": "trip",
}

SUMMARY_COLUMNS = {
    "renewable_used_wh": "renewable_used_w",
    "imported_wh": "imported_w",
    "curtailed_wh": "curtailed_w",
}


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _tol(terms: int, scale: float) -> float:
    return terms * ROUND_W + 1e-9 * max(1.0, abs(scale))


def check_operation(op, result, bundle: Path) -> list[str]:
    """All checks that apply to one operation's output."""
    scenario = op.scenario
    slots = read_csv(bundle / "slots.csv")
    summary = json.loads((bundle / "summary.json").read_text())
    problems = check_slots(slots, scenario.feeder_capacity_w)
    problems += check_summary(slots, summary, scenario.grid.slot_hours)
    if scenario.is_fleet:
        return problems + check_fleet(read_csv(bundle / "fleet.csv"), scenario)
    requests = read_csv(bundle / "requests.csv")
    temps = thermal_series(slots, scenario)
    problems += check_deadlines(requests, result)
    problems += check_thermal(temps, result)
    problems += check_cycles(slots, requests, scenario)
    if scenario.channels is not None:
        problems += check_channel(read_csv(bundle / "channel.csv"), scenario.channels)
    if op.reference_evening:
        problems += check_reference_evening(slots, requests, temps, scenario, result)
    return problems


def _columns(row: dict[str, str], prefix: str) -> list[str]:
    return [c for c in row if c.startswith(prefix) and c.endswith("_w")]


def check_slots(slots: list[dict[str, str]], capacity_w: float) -> list[str]:
    """Per slot: granted within feeder capacity; consumed equals renewable
    used + storage discharge + imported; renewable used + charge + curtailed
    equals renewable available."""
    if not slots:
        return ["slots.csv has no rows"]
    granted_cols = _columns(slots[0], "granted_")
    consumed_cols = _columns(slots[0], "consumed_")
    problems = []
    for row in slots:
        slot = row["slot"]
        granted = sum(float(row[c]) for c in granted_cols)
        if granted > capacity_w + _tol(len(granted_cols), capacity_w):
            problems.append(f"slot {slot}: granted {granted:.6f} W > capacity {capacity_w} W")
        consumed = sum(float(row[c]) for c in consumed_cols)
        flow = float(row["storage_flow_w"])
        used = float(row["renewable_used_w"])
        supplied = used + max(0.0, -flow) + float(row["imported_w"])
        if abs(consumed - supplied) > _tol(len(consumed_cols) + 3, consumed):
            problems.append(
                f"slot {slot}: consumed {consumed:.6f} W != supplied {supplied:.6f} W"
            )
        available = float(row["renewable_available_w"])
        disposed = used + max(0.0, flow) + float(row["curtailed_w"])
        if abs(available - disposed) > _tol(4, available):
            problems.append(
                f"slot {slot}: renewable {available:.6f} W != used + charge + curtailed "
                f"{disposed:.6f} W"
            )
    return problems


def check_summary(slots: list[dict[str, str]], summary: dict, slot_hours: float) -> list[str]:
    """summary.json integrals equal the slots.csv column sums x slot hours."""
    consumed_cols = _columns(slots[0], "consumed_") if slots else []
    flows = [float(r["storage_flow_w"]) for r in slots]
    sums = {
        "total_consumed_wh": (
            sum(float(r[c]) for r in slots for c in consumed_cols),
            len(consumed_cols),
        ),
        "storage_discharge_wh": (sum(max(0.0, -f) for f in flows), 1),
        "storage_charge_wh": (sum(max(0.0, f) for f in flows), 1),
    }
    for key, column in SUMMARY_COLUMNS.items():
        sums[key] = (sum(float(r[column]) for r in slots), 1)
    problems = []
    for key, (watts, terms) in sums.items():
        expected = watts * slot_hours
        tol = _tol(terms * len(slots), expected) * slot_hours
        if abs(summary[key] - expected) > tol:
            problems.append(f"summary {key} {summary[key]!r} != slots.csv sum {expected!r}")
    return problems


def check_deadlines(requests: list[dict[str, str]], result) -> list[str]:
    """Every accepted request that was not shed met its deadline."""
    shed = {o.device_id for o in result.requests if o.shed}
    return [
        f"{r['device_id']}: accepted, not shed, deadline missed"
        for r in requests
        if r["outcome"] == "accepted" and r["device_id"] not in shed and r["deadline_met"] != "1"
    ]


def thermal_series(slots: list[dict[str, str]], scenario) -> dict[str, list[float]]:
    """Each thermal node's temperature after every slot, integrated here with
    one explicit Euler step per slot from the consumed power in slots.csv:
    T += dt_h * (eff * P - U * (T - T_amb)) / C."""
    dt_h = scenario.grid.slot_hours
    series = {}
    for cfg in scenario.devices:
        if type(cfg).__name__ != "ThermalConfig":
            continue
        temp = cfg.initial_c
        temps = []
        for row in slots:
            power = min(max(float(row[f"consumed_{cfg.device_id}_w"]), 0.0), cfg.rated_w)
            temp += dt_h * (
                cfg.efficiency * power - cfg.loss_w_per_c * (temp - cfg.ambient_c)
            ) / cfg.capacitance_wh_per_c
            temps.append(temp)
        series[cfg.device_id] = temps
    return series


def check_thermal(temps: dict[str, list[float]], result) -> list[str]:
    """The program's thermal traces equal the benchmark's own integration."""
    problems = []
    for device_id, expected in temps.items():
        trace = result.device_traces[device_id]
        if len(trace) != len(expected):
            problems.append(f"{device_id}: trace has {len(trace)} slots, not {len(expected)}")
            continue
        for t, (got, want) in enumerate(zip(trace, expected)):
            if abs(got - want) > THERMAL_TOL_C:
                problems.append(f"{device_id}: slot {t} at {got!r} C, Euler gives {want!r} C")
                break
    return problems


def check_cycles(
    slots: list[dict[str, str]], requests: list[dict[str, str]], scenario
) -> list[str]:
    """Each completed cycle draws its profile in consecutive slots, with no
    gap, ending in its completion slot."""
    slot_of_clock = {row["clock"]: i for i, row in enumerate(slots)}
    completion = {r["device_id"]: r["completion_clock"] for r in requests}
    problems = []
    for cfg in scenario.devices:
        if type(cfg).__name__ != "CycleConfig" or not completion.get(cfg.device_id):
            continue
        column = f"consumed_{cfg.device_id}_w"
        drawn = [(i, float(row[column])) for i, row in enumerate(slots) if float(row[column]) > ROUND_W]
        end = slot_of_clock[completion[cfg.device_id]]
        start = end - len(cfg.profile_w) + 1
        expected = list(zip(range(start, end + 1), cfg.profile_w))
        if len(drawn) != len(expected) or any(
            i != j or abs(w - p) > ROUND_W for (i, w), (j, p) in zip(drawn, expected)
        ):
            problems.append(
                f"{cfg.device_id}: draws {len(drawn)} slots {[i for i, _ in drawn]}, "
                f"not its {len(cfg.profile_w)}-slot profile ending at slot {end}"
            )
    return problems


def check_channel(rows: list[dict[str, str]], channels: dict) -> list[str]:
    """A delivered message took at least offset + (attempts - 1) * timeout
    and used at most max_attempts; a dropped one used every attempt."""
    problems = []
    for row in rows:
        profile = channels[CHANNEL_OF_KIND[row["kind"]]]
        attempts = int(row["attempts"])
        msg = row["msg_id"]
        if not 1 <= attempts <= profile.max_attempts:
            problems.append(f"message {msg}: {attempts} attempts, max {profile.max_attempts}")
        if row["status"] == "dropped":
            if attempts != profile.max_attempts or row["delivered_ms"]:
                problems.append(f"message {msg}: dropped after {attempts} attempts")
            continue
        floor = profile.offset_ms + (attempts - 1) * profile.retransmit_timeout_ms
        if float(row["e2e_ms"]) < floor - ROUND_W:
            problems.append(f"message {msg}: e2e {row['e2e_ms']} ms < {floor} ms")
    return problems


def check_reference_evening(
    slots: list[dict[str, str]],
    requests: list[dict[str, str]],
    temps: dict[str, list[float]],
    scenario,
    result,
) -> list[str]:
    """The reference evening: all three requests accepted, the sauna at or
    above 69.5 C at every boundary of its service hour, the EV full, and the
    dishwasher drawing 2 kW for 6 consecutive slots."""
    problems = [
        f"{r['device_id']}: {r['outcome']}" for r in requests if r["outcome"] != "accepted"
    ]
    if len(requests) != 3:
        problems.append(f"{len(requests)} requests, not 3")
    devices = {d.device_id: d for d in scenario.devices}
    sauna = devices["sauna"]
    for boundary in range(sauna.service_start, sauna.service_end + 1):
        temp = temps["sauna"][boundary - 1]
        if temp < REFERENCE_TARGET_C:
            clock = scenario.grid.clock_of(boundary)
            problems.append(f"sauna at {temp:.3f} C at {clock}")
    ev = devices["ev"]
    soc = result.final_states["ev"]["soc_wh"]
    if not ev.capacity_wh - EV_FULL_TOL_WH <= soc <= ev.capacity_wh:
        problems.append(f"ev ends at {soc:.3f} Wh of {ev.capacity_wh} Wh")
    drawn = [float(row["consumed_dishwasher_w"]) for row in slots]
    on = [i for i, w in enumerate(drawn) if w > ROUND_W]
    if len(on) != 6 or on[-1] - on[0] != 5 or any(abs(drawn[i] - 2000.0) > ROUND_W for i in on):
        problems.append(f"dishwasher draws in slots {on}")
    return problems


def check_fleet(epochs: list[dict[str, str]], scenario) -> list[str]:
    """Per epoch: accepted <= requests; the aggregate is whole packets; an
    epoch that accepted stays at or under the reference; one that refused
    requests sits within a packet of it; temperatures stay inside the band
    the parameters allow."""
    params = scenario.devices[0].params
    rated = params.rated_w
    dt_h = scenario.grid.slot_hours
    rise = dt_h * params.efficiency * rated / params.capacitance_wh_per_c
    ceiling = params.t_high_c + rise
    worst_decay = dt_h * params.loss_w_per_c * (ceiling - params.ambient_c) / params.capacitance_wh_per_c
    floor = params.t_low_c - params.override_margin_c - (params.draw_max_c + worst_decay)
    problems = []
    for row in epochs:
        e = row["epoch"]
        requests, accepted = int(row["requests"]), int(row["accepted"])
        aggregate, reference = float(row["aggregate_w"]), float(row["reference_w"])
        if accepted > requests:
            problems.append(f"epoch {e}: accepted {accepted} > requests {requests}")
        packets = aggregate / rated
        if abs(packets - round(packets)) > 1e-9:
            problems.append(f"epoch {e}: aggregate {aggregate} W not a multiple of {rated} W")
        if accepted > 0 and aggregate > reference + ROUND_W:
            problems.append(f"epoch {e}: accepted {accepted} yet {aggregate} W > {reference} W")
        if requests > accepted and aggregate < reference - rated - ROUND_W:
            problems.append(f"epoch {e}: refused requests at {aggregate} W, reference {reference} W")
        low, high = float(row["temp_min_c"]), float(row["temp_max_c"])
        if low < floor - ROUND_W or high > ceiling + ROUND_W:
            problems.append(f"epoch {e}: temperatures [{low}, {high}] C outside [{floor}, {ceiling}] C")
    return problems


def compare_bundles(first: Path, second: Path) -> list[str]:
    """Two bundles of the same scenario and seed must be byte-identical."""
    names = sorted({p.name for p in first.iterdir()} | {p.name for p in second.iterdir()})
    problems = []
    for name in names:
        a, b = first / name, second / name
        if not (a.is_file() and b.is_file()) or a.read_bytes() != b.read_bytes():
            problems.append(f"{name} differs between two runs of the same seed")
    return problems
