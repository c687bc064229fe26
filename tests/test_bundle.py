"""The bundle writer against a per-cell reference writer.

`reference_write_bundle` writes every row through `csv.writer` and formats
each cell with `reference_fmt`, as the writer did before it built one row
template per file. On runs whose float columns hold floats, which is every
run built from a scenario file, a generator or the fleet, the two must
write the same bytes.

`template_slots_rows` is the dense slots.csv writer: one `%` template per
row, %.6f in every device cell. The library formats only a device column's
nonzero cells and prefills the rest with the zero cell. The two must write
the same rows on every engine run and on hand-set NaN, infinite and tiny
cells; they differ only on a -0.0 device cell, which the library prints as
0.000000 and which no engine run records.

A bundle written over an existing one must equal a fresh write: each file
replaces whatever its name held, a symlink included, and a bundle file the
run does not write is removed.
"""

import csv
import math
from dataclasses import replace
from pathlib import Path

import pytest

from identity import lossy_meter, mixed  # puts src/ and bench/ on sys.path

from pemsim import cli
from pemsim.cli import BUNDLE_FILES, write_bundle
from pemsim.core import TimeGrid
from pemsim.engine import run_scenario
from pemsim.scenario import (
    CycleConfig,
    RenewableConfig,
    Scenario,
    fleet_scenario,
    three_household_scenario,
)
from scenario_gen import random_household_scenario


def reference_fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def reference_write_bundle(result, out: Path) -> None:
    """slots.csv, channel.csv and fleet.csv, one csv.writer row per slot,
    message and epoch and one reference_fmt call per float cell."""
    grid = result.grid
    table = result.slots
    device_ids = sorted(table.granted_w)
    with open(out / "slots.csv", "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["slot", "clock"]
            + [f"granted_{i}_w" for i in device_ids]
            + [f"consumed_{i}_w" for i in device_ids]
            + [
                "renewable_available_w", "renewable_used_w", "storage_soc_wh",
                "storage_flow_w", "imported_w", "curtailed_w", "emergency",
            ]
        )
        for t in range(grid.horizon):
            writer.writerow(
                [t, grid.clock_of(t)]
                + [reference_fmt(table.granted_w[i][t]) for i in device_ids]
                + [reference_fmt(table.consumed_w[i][t]) for i in device_ids]
                + [
                    reference_fmt(column[t])
                    for column in (
                        table.renewable_available_w, table.renewable_used_w,
                        table.storage_soc_wh, table.storage_flow_w, table.imported_w,
                        table.curtailed_w, table.emergency,
                    )
                ]
            )
    with open(out / "channel.csv", "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["msg_id", "kind", "class", "sent_ms", "delivered_ms", "attempts", "e2e_ms", "status"]
        )
        for m in result.channel:
            dropped = m.delivered_at_ms is None
            writer.writerow(
                [
                    m.msg_id, m.kind.value, m.cls.value, reference_fmt(m.sent_at_ms),
                    reference_fmt(m.delivered_at_ms), m.attempts,
                    reference_fmt(None if dropped else m.delivered_at_ms - m.sent_at_ms),
                    "dropped" if dropped else "delivered",
                ]
            )
    if result.fleet is not None:
        with open(out / "fleet.csv", "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                [
                    "epoch", "clock", "reference_w", "aggregate_w", "requests", "accepted",
                    "force_on", "force_off", "temp_min_c", "temp_max_c", "temp_mean_c",
                ]
            )
            fleet = result.fleet
            (aggregate_w,) = table.granted_w.values()
            for e in range(grid.horizon):
                writer.writerow(
                    [
                        e, grid.clock_of(e), reference_fmt(fleet.reference_w[e]),
                        reference_fmt(aggregate_w[e]), fleet.requests[e], fleet.accepted[e],
                        fleet.force_on[e], fleet.force_off[e], reference_fmt(fleet.temp_min_c[e]),
                        reference_fmt(fleet.temp_max_c[e]), reference_fmt(fleet.temp_mean_c[e]),
                    ]
                )


def assert_same_files(scenario, tmp_path):
    result = run_scenario(scenario)
    got, want = tmp_path / "got", tmp_path / "want"
    want.mkdir(parents=True)
    write_bundle(result, got)
    reference_write_bundle(result, want)
    names = sorted(p.name for p in want.iterdir())
    assert names
    for name in names:
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


@pytest.mark.parametrize("seed", range(1, 41))
def test_reference_evening_matches_reference_writer(tmp_path, seed):
    assert_same_files(three_household_scenario(seed), tmp_path)


@pytest.mark.parametrize("import_allowed", [True, False])
def test_generated_feeders_match_reference_writer(tmp_path, import_allowed):
    for seed in range(1, 41):
        scenario = random_household_scenario(seed, import_allowed=import_allowed)
        assert_same_files(scenario, tmp_path / str(seed))


def test_fleet_matches_reference_writer(tmp_path):
    assert_same_files(fleet_scenario(count=100, hours=2.0, seed=3), tmp_path)


def test_dropped_messages_leave_empty_cells(tmp_path):
    assert_same_files(lossy_meter(1), tmp_path)
    rows = list(csv.DictReader((tmp_path / "got" / "channel.csv").read_text().splitlines()))
    dropped = [row for row in rows if row["status"] == "dropped"]
    assert dropped
    assert all(row["delivered_ms"] == row["e2e_ms"] == "" for row in dropped)


def test_int_watts_print_six_decimals(tmp_path):
    """A column's format is fixed by the column: a cycle built in Python
    with int watts records int grants, and they print as %.6f floats, where
    the per-cell reference writer printed them as ints."""
    scenario = Scenario(
        grid=TimeGrid(epoch_start_min=0, slot_min=10, horizon=6),
        feeder_capacity_w=10_000.0,
        devices=(CycleConfig("washer", profile_w=(2000, 2000), earliest_start=0, deadline=2),),
        renewable=RenewableConfig(kind="trace", values_w=(0.0,) * 6),
    )
    result = run_scenario(scenario)
    assert 2000 in result.slots.granted_w["washer"]
    write_bundle(result, tmp_path)
    rows = list(csv.DictReader((tmp_path / "slots.csv").read_text().splitlines()))
    assert [row["granted_washer_w"] for row in rows[:2]] == ["2000.000000"] * 2
    assert [row["consumed_washer_w"] for row in rows[:2]] == ["2000.000000"] * 2


def _bundle(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize(
    "scenario",
    [
        three_household_scenario(7),
        random_household_scenario(5, import_allowed=False),
        fleet_scenario(count=20, hours=0.5, seed=2),
    ],
    ids=["reference", "feeder", "fleet"],
)
def test_rewrite_over_longer_files_equals_fresh_write(tmp_path, scenario):
    result = run_scenario(scenario)
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    write_bundle(result, fresh)
    out.mkdir()
    for name in BUNDLE_FILES:  # every name longer than what the run writes
        (out / name).write_bytes(b"x" * 200_000)
    write_bundle(result, out)
    assert _bundle(out) == _bundle(fresh)
    write_bundle(result, out)  # and over its own bundle
    assert _bundle(out) == _bundle(fresh)


def test_symlink_at_bundle_path_is_replaced_and_target_kept(tmp_path):
    result = run_scenario(three_household_scenario(3))
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    write_bundle(result, fresh)
    out.mkdir()
    target = tmp_path / "elsewhere.csv"
    target.write_bytes(b"not part of any bundle\n" * 1000)
    (out / "slots.csv").symlink_to(target)
    (out / "fleet.csv").symlink_to(target)
    write_bundle(result, out)
    assert not (out / "slots.csv").is_symlink()
    assert not (out / "fleet.csv").exists()
    assert _bundle(out) == _bundle(fresh)
    assert target.read_bytes() == b"not part of any bundle\n" * 1000


def test_granted_and_consumed_fill_their_own_columns(tmp_path):
    """No run seen draws other than its grant, so the two column groups
    are made to differ here: each must land in its own columns."""
    result = run_scenario(three_household_scenario(1))
    ids = sorted(result.slots.granted_w)
    horizon = result.grid.horizon
    granted = {i: [1000.0 * k + 1.25 + t for t in range(horizon)] for k, i in enumerate(ids)}
    consumed = {i: [-7.5 - k - t for t in range(horizon)] for k, i in enumerate(ids)}
    slots = replace(result.slots, granted_w=granted, consumed_w=consumed)
    write_bundle(replace(result, slots=slots), tmp_path)
    rows = list(csv.DictReader((tmp_path / "slots.csv").read_text().splitlines()))
    assert len(rows) == horizon
    for t, row in enumerate(rows):
        for i in ids:
            assert row[f"granted_{i}_w"] == f"{granted[i][t]:.6f}"
            assert row[f"consumed_{i}_w"] == f"{consumed[i][t]:.6f}"


def template_slots_rows(result) -> str:
    """The rows of slots.csv, below its header, one `%` template per row."""
    table = result.slots
    device_ids = sorted(table.granted_w)
    row = "%d,%s," + "%.6f," * (2 * len(device_ids) + 6) + "%d\n"
    return "".join(
        row
        % (
            t,
            result.grid.clock_of(t),
            *(table.granted_w[i][t] for i in device_ids),
            *(table.consumed_w[i][t] for i in device_ids),
            table.renewable_available_w[t],
            table.renewable_used_w[t],
            table.storage_soc_wh[t],
            table.storage_flow_w[t],
            table.imported_w[t],
            table.curtailed_w[t],
            table.emergency[t],
        )
        for t in range(result.grid.horizon)
    )


def _slots_rows(result, out: Path) -> str:
    write_bundle(result, out)
    return (out / "slots.csv").read_text().split("\n", 1)[1]


@pytest.mark.parametrize(
    "scenarios",
    [
        lambda: [mixed(n) for n in range(1, 21)],
        lambda: [three_household_scenario(s) for s in range(1, 11)],
        lambda: [fleet_scenario(count=50, hours=2.0, seed=4)],
        lambda: [
            Scenario(
                grid=TimeGrid(epoch_start_min=0, slot_min=10, horizon=6),
                feeder_capacity_w=5000.0,
                devices=(),
                renewable=RenewableConfig(kind="trace", values_w=(1000.0,) * 6),
            )
        ],
    ],
    ids=["feeders", "reference", "fleet", "no_devices"],
)
def test_device_cells_match_template_writer(tmp_path, scenarios):
    for k, scenario in enumerate(scenarios()):
        result = run_scenario(scenario)
        assert _slots_rows(result, tmp_path / str(k)) == template_slots_rows(result)


def test_non_finite_and_tiny_device_cells(tmp_path, monkeypatch):
    """Hand-set device cells that are nonzero, so formatted, though they
    print like a zero or like no number: NaN, both infinities, the smallest
    subnormal, -1e-9 (which prints as -0.000000) and one huge value, in a
    feeder's columns and in the fleet's dense aggregate column. summary.json
    refuses non-finite sums, so the summary is stubbed out here."""
    monkeypatch.setattr(cli, "summarize_run", lambda result: {})
    specials = [math.nan, math.inf, -math.inf, 5e-324, -1e-9, 1e20]
    for k, scenario in enumerate([mixed(3), fleet_scenario(count=20, hours=0.5, seed=2)]):
        result = run_scenario(scenario)
        # a fleet's granted and consumed columns are one list
        columns = {id(c): c for c in [*result.slots.granted_w.values(), *result.slots.consumed_w.values()]}
        for n, column in enumerate(columns.values()):
            for j, value in enumerate(specials):
                column[(len(specials) * n + j) % len(column)] = value
        rows = _slots_rows(result, tmp_path / str(k))
        assert rows == template_slots_rows(result)
        assert all(text in rows for text in ("nan", "inf", "-inf", "-0.000000"))


@pytest.mark.parametrize(
    "scenarios",
    [
        lambda: [mixed(n) for n in range(1, 51)],
        lambda: [three_household_scenario(s) for s in range(1, 51)],
    ],
    ids=["feeders", "reference"],
)
def test_engine_records_no_negative_zero_device_cell(scenarios):
    """write_bundle prefills a device column with the unsigned zero cell and
    formats only the nonzero cells, so a -0.0 there would print as 0.000000
    where %.6f prints -0.000000. No engine run records one: every granted
    and consumed cell of these runs is a float whose zero is unsigned (or
    an int)."""
    zeros = 0
    for scenario in scenarios():
        table = run_scenario(scenario).slots
        for column in [*table.granted_w.values(), *table.consumed_w.values()]:
            for value in column:
                if value == 0:
                    assert math.copysign(1.0, value) == 1.0
                    zeros += 1
    assert zeros > 1000


def test_device_zero_prints_unsigned(tmp_path):
    """Only nonzero device cells are formatted, so -0.0 prints as the
    prefilled 0.000000, as 0.0 does. The engine records no -0.0 in these
    columns (checked above); this run is built by hand."""
    result = run_scenario(three_household_scenario(1))
    ids = sorted(result.slots.granted_w)
    for i in ids:
        result.slots.granted_w[i][0] = result.slots.consumed_w[i][0] = -0.0
    assert "-0.000000" in template_slots_rows(result)
    rows = list(csv.reader(_slots_rows(result, tmp_path).splitlines()))
    cells = [cell for row in rows for cell in row[2 : 2 + 2 * len(ids)]]
    assert rows[0][2 : 2 + 2 * len(ids)] == ["0.000000"] * (2 * len(ids))
    assert cells.count("0.000000") > 2 * len(ids)  # the 0.0 cells after it
    assert not any(cell.startswith("-0.000000") for cell in cells)
