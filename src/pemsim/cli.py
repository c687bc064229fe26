"""Command-line front end: run scenarios, batch over seeds, validate files,
and emit the output bundle (slots.csv, requests.csv, channel.csv,
summary.json, plus fleet.csv for fleet runs).

The CLI is a thin shell over the library API; everything it does is
reachable programmatically with identical results.

Exit codes: 0 success, 1 validation/usage error, 2 invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .comms import ChannelClass, MessageKind
from .core import MalformedRequest, WindowInfeasible, slot_clocks
from .engine import (
    ContiguityViolation,
    RunResult,
    audit_conservation,
    run_scenario,
    summarize_run,
)
from .scenario import (
    Scenario,
    fleet_scenario,
    load_scenario,
    save_scenario,
    three_household_scenario,
)
from .server import CapacityViolation, ReferenceSignal, UnderSupply

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INVARIANT = 2


def _fmt(value) -> str:
    """A requests.csv cell (an int, a bool or None); the other files format
    by row template."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


# Enum cells of channel.csv, looked up per row instead of read through
# Enum.value (a property); both enums hash by identity (see comms), so each
# lookup costs no Python-level call.
_ENUM_VALUES = {member: member.value for enum in (MessageKind, ChannelClass) for member in enum}

# Every file a bundle may hold; write_bundle removes them all before writing
# the ones its run has, and a run that raises removes them all.
BUNDLE_FILES = ("slots.csv", "requests.csv", "channel.csv", "fleet.csv", "summary.json")

# os.open flags of a new file: mode "x" without the text layer (O_BINARY,
# where the platform has it, keeps "\n" untranslated)
_CREATE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


def _remove_bundle(prefix: str) -> None:
    """Remove every bundle file under `prefix`, the directory's path with a
    trailing separator."""
    for name in BUNDLE_FILES:
        _unlink(prefix + name)


def _create(path: str, text: str) -> None:
    """Create `path`, which must not exist, holding `text` as UTF-8: one
    os.open and as many os.write calls as the system needs."""
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, _CREATE_FLAGS, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def _csv_text(rows) -> str:
    """`rows` as csv.writer writes them: a device id may need quoting."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


# The SlotTable columns that slots.csv writes after the device columns,
# under their own names.
_SLOT_COLUMNS = (
    "renewable_available_w",
    "renewable_used_w",
    "storage_soc_wh",
    "storage_flow_w",
    "imported_w",
    "curtailed_w",
    "emergency",
)


class _DeviceCells(dict):
    """slots.csv device cells by value, each formatted once, comma included."""

    def __missing__(self, value: float) -> str:
        cell = self[value] = "%.6f," % value
        return cell


class _DeviceBlocks(dict):
    """slots.csv device blocks by the tuple of a slot's device values: the
    tuple's cells, joined once per distinct tuple. The cells come from one
    _DeviceCells table per bundle, so values that compare equal share a
    text, and so do tuples that compare equal."""

    def __init__(self):
        super().__init__()
        # -0.0 finds 0.0's entry
        self.cell = _DeviceCells({0.0: "0.000000,"}).__getitem__

    def __missing__(self, values: tuple[float, ...]) -> str:
        block = self[values] = "".join(map(self.cell, values))
        return block


def write_bundle(result: RunResult, out_dir: str | Path) -> dict:
    """Write the output bundle for one run; returns the summary dict.

    slots.csv, channel.csv and fleet.csv write each row through one `%`
    template per file, so a column's format is fixed by the column: float
    columns print as %.6f (an int watt value too), int columns as %d, and
    `emergency` as 1 or 0. slots.csv's rows zip the run's SlotTable columns,
    device columns in device-id order, granted then consumed; fleet.csv's
    zip the FleetTable columns and the aggregate, the fleet's one SlotTable
    device column. A slots.csv row's device cells, mostly 0.0, print as one
    block per distinct tuple of the slot's device values, through a
    per-bundle table that formats each distinct value once as %.6f. Values
    that compare equal share a text, so a device-column zero prints as
    0.000000 whatever its sign. The engine records no -0.0 there.

    Every file is text encoded as UTF-8, whatever the locale. Every name in
    BUNDLE_FILES is unlinked first, so the directory ends up holding exactly
    this run's bundle. Each file is then created anew, by a plain string
    path, with one os.open(O_WRONLY | O_CREAT | O_EXCL), which is what mode
    "x" of open() asks for, and its whole text written by os.write. A file
    is never truncated and rewritten: on ext4 with auto_da_alloc (its
    default), closing a file that was truncated and rewritten forces its
    block allocation at once, which made rewriting a bundle in place about
    twice as slow as writing into a fresh directory; a rename over the old
    file does the same, so there is no temporary file either. That forced
    allocation was also ext4's guard for this pattern: without it, a crash
    or power loss shortly after a rewrite can leave the old bundle gone and
    the new files empty. Re-running the seed rebuilds the bundle. A symlink
    at a bundle path is removed, its target left untouched, and O_EXCL
    creates no file through a symlink that appears there meanwhile."""
    if not os.path.isdir(out_dir):
        os.makedirs(out_dir, exist_ok=True)
    prefix = os.path.join(out_dir, "")
    _remove_bundle(prefix)
    clocks = slot_clocks(result.grid)
    table = result.slots
    device_ids = sorted(table.granted_w)
    horizon = len(table.emergency)

    if device_ids:
        device_blocks = map(_DeviceBlocks().__getitem__, zip(
            *[table.granted_w[i] for i in device_ids],
            *[table.consumed_w[i] for i in device_ids],
        ))
    else:  # zipping no column would yield no slot
        device_blocks = [""] * horizon
    row = "%d,%s,%s" + "%.6f," * 6 + "%d\n"
    _create(prefix + "slots.csv", "".join([
        _csv_text([
            ["slot", "clock"]
            + [f"granted_{i}_w" for i in device_ids]
            + [f"consumed_{i}_w" for i in device_ids]
            + list(_SLOT_COLUMNS)
        ]),
        *map(row.__mod__, zip(
            range(horizon),
            clocks,
            device_blocks,
            *[getattr(table, name) for name in _SLOT_COLUMNS],
        )),
    ]))

    clock = lambda s: "" if s is None else clocks[s]  # noqa: E731
    requests = [
        [
            "device_id",
            "kind",
            "issued_clock",
            "decided_clock",
            "outcome",
            "reason",
            "retries",
            "forced_start_clock",
            "first_service_clock",
            "completion_clock",
            "waiting_slots",
            "deadline_clock",
            "deadline_met",
            "service_failed",
        ]
    ]
    for o in result.requests:
        outcome = "pending"
        if o.accepted:
            outcome = "accepted"
        elif o.accepted is False:
            outcome = "rejected"
        requests.append(
            [
                o.device_id,
                o.kind,
                clock(o.issued_slot),
                clock(o.decided_slot),
                outcome,
                o.reject_reason or "",
                o.retries,
                clock(o.forced_start),
                clock(o.first_service_slot),
                clock(o.completion_slot),
                _fmt(o.waiting_slots),
                clock(o.deadline_slot),
                _fmt(o.deadline_met),
                _fmt(o.service_failed),
            ]
        )
    _create(prefix + "requests.csv", _csv_text(requests))

    delivered = "%d,%s,%s,%.6f,%.6f,%d,%.6f,delivered\n"
    dropped = "%d,%s,%s,%.6f,,%d,,dropped\n"
    value = _ENUM_VALUES
    _create(prefix + "channel.csv", "".join([
        "msg_id,kind,class,sent_ms,delivered_ms,attempts,e2e_ms,status\n",
        *(
            dropped % (m.msg_id, value[m.kind], value[m.cls], m.sent_at_ms, m.attempts)
            if m.delivered_at_ms is None
            else delivered
            % (
                m.msg_id,
                value[m.kind],
                value[m.cls],
                m.sent_at_ms,
                m.delivered_at_ms,
                m.attempts,
                m.delivered_at_ms - m.sent_at_ms,  # the e2e_ms column
            )
            for m in result.channel
        ),
    ]))

    fleet = result.fleet
    if fleet is not None:
        (aggregate_w,) = table.granted_w.values()
        row = "%d,%s,%.6f,%.6f,%d,%d,%d,%d,%.6f,%.6f,%.6f\n"
        _create(prefix + "fleet.csv", "".join([
            "epoch,clock,reference_w,aggregate_w,requests,accepted,force_on,force_off,"
            "temp_min_c,temp_max_c,temp_mean_c\n",
            *map(row.__mod__, zip(
                range(horizon), clocks, fleet.reference_w, aggregate_w, fleet.requests,
                fleet.accepted, fleet.force_on, fleet.force_off, fleet.temp_min_c,
                fleet.temp_max_c, fleet.temp_mean_c,
            )),
        ]))

    summary = summarize_run(result)
    _create(
        prefix + "summary.json",
        json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n",
    )
    return summary


# How main reports each failure it handles, by exception class: the exit
# code and the prefix of its one stderr line. Within _doing, a loader or
# writer sets the exception's `doing` (add_note needs Python 3.11), and the
# line then leads with "cannot <doing>: ".
_FAILURES: dict[type[Exception], tuple[int, str]] = {
    OSError: (EXIT_VALIDATION, ""),
    UnicodeDecodeError: (EXIT_VALIDATION, ""),
    json.JSONDecodeError: (EXIT_VALIDATION, "malformed JSON: "),
    MalformedRequest: (EXIT_VALIDATION, "validation error: "),
    WindowInfeasible: (EXIT_VALIDATION, "validation error: "),
    CapacityViolation: (EXIT_INVARIANT, "invariant violation: "),
    ContiguityViolation: (EXIT_INVARIANT, "invariant violation: "),
    UnderSupply: (EXIT_INVARIANT, "invariant violation: "),
}
_HANDLED = tuple(_FAILURES)


def _failure(exc: Exception) -> tuple[int, str]:
    """The exit code and the one-line message of a failure _FAILURES holds,
    by the nearest of its classes there."""
    code, prefix = next(_FAILURES[cls] for cls in type(exc).__mro__ if cls in _FAILURES)
    if isinstance(exc, json.JSONDecodeError):
        detail = f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
    else:
        detail = getattr(exc, "strerror", None) or str(exc)
    doing = getattr(exc, "doing", None)
    return code, (f"cannot {doing}: " if doing else "") + prefix + detail


@contextmanager
def _doing(action: str):
    """Name `action` (say, "load scenario file X") in the report of a
    failure raised inside."""
    try:
        yield
    except _HANDLED as exc:
        exc.doing = action
        raise


def _run_seed(scenario: Scenario, out_dir: str | Path) -> tuple[int, dict | None, str | None]:
    """One seed as `run` and `batch` both do it: run the scenario, audit
    conservation, write the bundle. Returns (exit code, summary, error).
    A run that raises has no summary, and removes every bundle file an
    earlier run left in out_dir, so no stale bundle reads as its own."""
    try:
        result = run_scenario(scenario)
    except _HANDLED as exc:
        _remove_bundle(os.path.join(out_dir, ""))
        code, error = _failure(exc)
        return code, None, error
    bad_slot = audit_conservation(result)
    summary = write_bundle(result, out_dir)
    if bad_slot is not None:
        return EXIT_INVARIANT, summary, f"conservation violated at slot {bad_slot}"
    return EXIT_OK, summary, None


def run_batch(
    scenario: Scenario, seeds: Sequence[int], out_dir: str | Path
) -> tuple[int, list[dict]]:
    """Independent runs of one scenario across seeds, each as `run` does it,
    into out_dir/seed_<n>, indexed by out_dir/batch.json. A failed seed does
    not stop the batch; its error is recorded. Results depend only on each
    seed, never on execution order. Returns (the worst exit code over the
    seeds, the batch.json entries)."""
    out = Path(out_dir)
    worst = EXIT_OK
    entries = []
    for seed in seeds:
        code, summary, error = _run_seed(replace(scenario, seed=seed), out / f"seed_{seed}")
        worst = max(worst, code)
        entries.append({"seed": seed, "summary": summary, "error": error})
    out.mkdir(parents=True, exist_ok=True)
    index = os.path.join(out, "batch.json")
    _unlink(index)  # replaced, as write_bundle says
    _create(index, json.dumps(entries, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return worst, entries


def _seed_range(text: str) -> range:
    """The argparse type of `--seeds`: A..B (both included) or one seed, as
    a range, so a long one costs nothing before its first run."""
    lo, sep, hi = text.partition("..")
    try:
        seeds = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B or one seed, got {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"seed range {text!r} is empty")
    return seeds


def _load_reference(path: str) -> ReferenceSignal:
    with _doing(f"read reference file {path}"):
        values = []
        for number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise MalformedRequest(f"line {number}: not a number: {line!r}") from None
        return ReferenceSignal(values_w=tuple(values))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pemsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and write its bundle")
    run.add_argument("--scenario", required=True)
    run.add_argument("--seed", type=int, default=None, help="override the file's seed")
    run.add_argument("--out", required=True)

    batch = sub.add_parser("batch", help="run a scenario across a seed range")
    batch.add_argument("--scenario", required=True)
    batch.add_argument(
        "--seeds", type=_seed_range, required=True, help="range A..B or single seed"
    )
    batch.add_argument("--out", required=True)

    val = sub.add_parser("validate", help="check a scenario file")
    val.add_argument("--scenario", required=True)

    fig3 = sub.add_parser(
        "fig3", help="run the built-in three-household evening scenario"
    )
    fig3.add_argument("--out", required=True)
    fig3.add_argument("--seed", type=int, default=1)
    fig3.add_argument(
        "--save-scenario", default=None, help="also write the scenario JSON here"
    )

    fleet = sub.add_parser("fleet", help="run a water-heater fleet against a reference")
    fleet.add_argument("--count", type=int, default=1000)
    fleet.add_argument("--ref", default=None, help="file with one reference watts per line")
    fleet.add_argument("--ref-watts", type=float, default=1_500_000.0)
    fleet.add_argument("--hours", type=float, default=8.0)
    fleet.add_argument("--seed", type=int, default=1)
    fleet.add_argument("--out", required=True)

    return parser


def _command(args) -> tuple[int, list[str]]:
    """Carry out a parsed command; returns (exit code, stderr lines)."""
    if args.command in ("validate", "run", "batch"):
        with _doing(f"load scenario file {args.scenario}"):
            scenario = load_scenario(args.scenario)
    if args.command == "validate":
        print(f"ok: {args.scenario}")
        return EXIT_OK, []
    if args.command == "run" and args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    elif args.command == "fig3":
        scenario = three_household_scenario(seed=args.seed)
        if args.save_scenario:
            with _doing(f"write scenario file {args.save_scenario}"):
                save_scenario(scenario, args.save_scenario)
    elif args.command == "fleet":
        reference = args.ref_watts if args.ref is None else _load_reference(args.ref)
        scenario = fleet_scenario(
            count=args.count, reference_w=reference, hours=args.hours, seed=args.seed
        )
    with _doing(f"write bundle to {args.out}"):
        if args.command == "batch":
            code, entries = run_batch(scenario, args.seeds, args.out)
            print(f"wrote {len(entries)} runs under {args.out}")
            return code, [f"seed {e['seed']}: {e['error']}" for e in entries if e["error"]]
        code, summary, error = _run_seed(scenario, args.out)
    if error is not None:
        return code, [error]
    print(json.dumps(summary, indent=2, sort_keys=True))
    return code, []


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    try:
        code, errors = _command(args)
    except _HANDLED as exc:
        code, error = _failure(exc)
        errors = [error]
    for error in errors:
        print(error, file=sys.stderr)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
