"""pemsim benchmark: run one workload for a fixed time, check every output,
and print the metrics as one JSON line.

    python3 bench/run.py --workload household_channels --seed 1 --seconds 36 --trace 0

--trace 0 prints the end-to-end metrics of an untraced pass. --trace 1 runs
an untraced pass and then a traced pass (each for half the time) and prints
the per-layer metrics. Every time it prints is scaled to a reference host
speed (see REFERENCE_KERNEL_MS). See bench/README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import csv
import gc
import importlib
import itertools
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("household_channels", "household_mixed", "fleet")
# Set-ups in a --trace 0 run: one before the first round, the others spread
# over the run, so that a short slow spell of the host does not decide them.
SETUP_REPEATS = 9
BENCH_MODULES = ("workloads", "checks", "tracing")

# The host's speed drifts by a quarter and more from one run to the next, and
# within a run it switches between a fast and a slow state every few seconds;
# every wall-clock time moves with it. So the benchmark times a fixed kernel
# of its own around every round of operations and every set-up, and reports
# each time as it would read on a host where the kernel takes
# REFERENCE_KERNEL_MS: wall time x REFERENCE_KERNEL_MS / kernel time around
# it. The kernel calls nothing of pemsim, so a change to pemsim moves the
# scaled times as much as the wall-clock ones. A kernel of arithmetic alone
# tracked the slow state less well than one that also writes a file: with it,
# the 90th percentile of household_channels spread twice as much over six runs.
REFERENCE_KERNEL_MS = 4.0
KERNEL_REPEATS = 5  # the kernel time is the median of this many runs of it
KERNEL_FILE = OUT / "kernel.csv"

# per-layer metric prefixes whose span name differs (methods carry their class)
SPAN_OF = {
    "server.admit": "server.CommitmentLedger.admit",
    "scenario.renewable_trace": "scenario.Scenario.renewable_trace",
}

OBSERVE = {
    # admissions that returned an Accept
    "server.CommitmentLedger.admit": lambda args, r: (type(r).__name__ == "Accept",),
    # attempts used, delivered or not
    "comms.transmit": lambda args, r: (r.attempts, type(r).__name__ == "Delivered"),
    # requests accepted, requests offered
    "server.track_reference": lambda args, r: (len(r), len(args[0])),
}


def _ours(name: str) -> bool:
    return name == "pemsim" or name.startswith("pemsim.") or name in BENCH_MODULES


def kernel() -> None:
    """A fixed mix of what an operation does: float arithmetic, dict and
    tuple traffic and list growth, as in a simulation, then a CSV file
    written row by row, as in a bundle."""
    state = {"t": 20.0, "e": 0.0}
    rows = []
    for i in range(3000):
        t = state["t"]
        p = 2000.0 if t < 60.0 else 0.0
        t += (p * 0.001 - (t - 15.0) * 0.05) * 0.1
        state["t"] = t
        state["e"] += p / 6.0
        rows.append((i, t, p))
    with open(KERNEL_FILE, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i, t, p in rows[:600]:
            writer.writerow([i, f"{t:.6f}", f"{p:.3f}"])


def kernel_s() -> float:
    """Seconds the kernel takes now on this host."""
    times = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor from wall time to reference-host time for work done between
    two kernel timings."""
    return 1e-3 * REFERENCE_KERNEL_MS / ((before + after) / 2)


def setup(workload: str, seed: int):
    """One set-up from a clean module cache: import pemsim, make the
    workload's sweep and its first round of scenarios. Returns (seconds,
    sweep, first round)."""
    for name in list(sys.modules):
        if _ours(name):
            del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("pemsim")
    importlib.import_module("pemsim.cli")
    workloads = importlib.import_module("workloads")
    sweep = workloads.sweep(workload, seed)
    first = sweep.next_round()
    return time.perf_counter() - t0, sweep, first


def setup_again(workload: str, seed: int) -> float:
    """Time one more set-up between rounds, then put back the modules the
    run's operations use. Returns reference-host seconds."""
    kept = {name: module for name, module in sys.modules.items() if _ours(name)}
    before = kernel_s()
    seconds = setup(workload, seed)[0] * scale(before, kernel_s())
    for name in list(sys.modules):
        if _ours(name):
            del sys.modules[name]
    sys.modules.update(kept)
    gc.collect()
    return seconds


class Runner:
    """Runs operations, checks their outputs and keeps the tallies."""

    def __init__(self, out: Path, checks, rounds):
        self.engine = sys.modules["pemsim.engine"]
        self.cli = sys.modules["pemsim.cli"]
        self.checks = checks
        self.rounds = rounds  # iterator of rounds of operations
        self.out = out
        self.bundle = out / "bundle"
        self.times: list[float] = []  # wall time of every operation, in order
        self.scaled: list[float] = []  # the same in reference-host time (run_pass only)
        self.kernel_s: list[float] = []  # kernel time after every round
        self.device_slots = 0  # simulated device-slots of the operations that returned
        self.bundle_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: set[str] = set()

    def execute(self, op, bundle: Path):
        """One operation as `pemsim batch` does it for one seed. Looks the
        functions up on their modules at each call, so a traced pass goes
        through the installed wrappers."""
        result = self.engine.run_scenario(op.scenario)
        bad_slot = self.engine.audit_conservation(result)
        self.cli.write_bundle(result, bundle)
        return result, bad_slot

    def run(self, op, determinism: bool = False) -> None:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result, bad_slot = self.execute(op, self.bundle)
        except Exception as exc:  # a failed operation is counted, never fatal
            result = None
            problems = [f"raised {type(exc).__name__}: {exc}"]
        self.times.append(time.perf_counter() - t0)
        if result is not None:
            self.device_slots += op.device_slots
            self.bundle_bytes += sum(p.stat().st_size for p in self.bundle.iterdir())
            try:
                problems = self.checks.check_operation(op, result, self.bundle)
            except Exception as exc:  # an unreadable bundle fails the operation
                problems = [f"checking raised {type(exc).__name__}: {exc}"]
            if bad_slot is not None:
                problems.append(f"audit_conservation flags slot {bad_slot}")
            if determinism:
                problems += self.determinism(op)
        if not problems:
            return
        self.failed += 1
        fault = op.known_fault
        if fault is not None and tuple(problems) == fault.problems:
            self.known.add(f"{op.label}: {'; '.join(problems)} [{fault.note}]")
        else:
            self.unexpected.append(f"{op.label}: {'; '.join(problems[:3])}")

    def determinism(self, op) -> list[str]:
        """Run the operation again into a second directory; the two bundles
        must be byte-identical."""
        again = self.out / "bundle-again"
        if again.exists():
            shutil.rmtree(again)
        try:
            self.execute(op, again)
        except Exception as exc:
            return [f"second run raised {type(exc).__name__}: {exc}"]
        return self.checks.compare_bundles(self.bundle, again)

    def run_pass(self, seconds: float, determinism: bool = False) -> int:
        """Whole rounds until `seconds` have passed; the last operation of the
        first round also gets the determinism check. Each round's times are
        scaled by the kernel timed before and after it. Returns the number
        of operations."""
        start = time.perf_counter()
        first = len(self.times)
        before = kernel_s()
        while True:
            ops = next(self.rounds)
            n = len(self.times)
            for i, op in enumerate(ops):
                self.run(op, determinism=determinism and i == len(ops) - 1)
            determinism = False
            after = kernel_s()
            factor = scale(before, after)
            self.scaled += [t * factor for t in self.times[n:]]
            self.kernel_s.append(after)
            before = after
            if time.perf_counter() - start >= seconds:
                return len(self.times) - first


def end_to_end(runner: Runner, setup_s: float) -> dict:
    times = runner.scaled
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "device_slots_per_s": {
            "value": runner.device_slots / sum(times),
            "unit": "device-slots/s",
        },
        "run_ms_p50": {"value": 1e3 * statistics.median(times), "unit": "ms"},
        "run_ms_p90": {
            "value": 1e3 * statistics.quantiles(times, n=10)[8],
            "unit": "ms",
        },
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer(
    ops_tracer, setup_tracer, ops: int, overhead: float, bundle_bytes: float, factor: float, kernel_ms: float
) -> dict:
    """`factor` scales the traced pass's wall times to reference-host time."""
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    def stat(prefix):
        tracer = setup_tracer if prefix == "scenario.load_scenario" else ops_tracer
        return tracer.stat(SPAN_OF.get(prefix, prefix))

    def us(prefix):
        s = stat(prefix)
        return 1e6 * factor * s.total_s / s.calls if s.calls else 0.0

    def ratio(prefix, i=0, of=None):
        s = stat(prefix)
        base = s.calls if of is None else (s.observed[of] if s.observed else 0)
        return s.observed[i] / base if base else 0.0

    for prefix in (
        "core.substream", "comms.transmit", "server.admit",
        "server.plan_thermal_forced_start", "server.thermal_forced_need",
        "server.allocate_slot", "server.track_reference",
    ):
        put(f"{prefix}.calls", stat(prefix).calls / ops, "calls/op")
        put(f"{prefix}.us_per_call", us(prefix), "us")
    for prefix in (
        "devices.min_heating_slots", "devices.step_thermal",
        "devices.local_override", "devices.fleet_request_probability",
    ):
        put(f"{prefix}.calls", stat(prefix).calls / ops, "calls/op")
    for prefix in (
        "comms.aggregate_reports", "server.dispatch_supply", "engine.summarize_run",
        "engine.audit_conservation", "scenario.load_scenario", "scenario.renewable_trace",
    ):
        put(f"{prefix}.us_per_call", us(prefix), "us")
    put("comms.transmit.attempts_per_call", ratio("comms.transmit", 0), "attempts")
    put("comms.delivered_ratio", ratio("comms.transmit", 1), "ratio")
    put("server.admit.accept_ratio", ratio("server.admit", 0), "ratio")
    put("server.track_reference.accept_ratio", ratio("server.track_reference", 0, of=1), "ratio")
    run = stat("engine.run_scenario")
    put("engine.run_scenario.ms_per_call", 1e-3 * us("engine.run_scenario"), "ms")
    put("engine.self_ms_per_run", 1e3 * factor * run.self_s / run.calls if run.calls else 0.0, "ms")
    put("cli.write_bundle.ms_per_call", 1e-3 * us("cli.write_bundle"), "ms")
    put("cli.write_bundle.bytes_per_call", bundle_bytes, "B")
    put("trace.overhead_ratio", overhead, "ratio")
    put("host.kernel_ms", kernel_ms, "ms")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pemsim" / "__init__.py").is_file():
        print(f"no pemsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    OUT.mkdir(exist_ok=True)
    setup_s, sweep, first = setup(args.workload, args.seed)
    after = kernel_s()
    setup_s *= scale(after, after)
    pemsim = sys.modules["pemsim"]
    if Path(pemsim.__file__).resolve().parent != (SRC / "pemsim").resolve():
        raise SystemExit(f"imported pemsim from {pemsim.__file__}, not from {SRC}")
    checks = importlib.import_module("checks")
    tracing = importlib.import_module("tracing")
    workloads = sys.modules["workloads"]

    out = OUT / args.workload
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    runner = Runner(out, checks, itertools.chain([first], iter(sweep.next_round, None)))
    if tracing.installed_wrappers():
        raise SystemExit("tracing wrappers installed before the untraced pass")

    if args.trace == 0:
        setup_times = [setup_s]
        for i in range(1, SETUP_REPEATS):
            runner.run_pass(args.seconds / (SETUP_REPEATS - 1), determinism=i == 1)
            setup_times.append(setup_again(args.workload, args.seed))
        metrics = end_to_end(runner, statistics.median(setup_times))
    else:
        untraced_ops = runner.run_pass(args.seconds / 2, determinism=True)
        untraced_ms = statistics.median(runner.scaled)
        untraced_rounds = len(runner.kernel_s)
        setup_tracer = tracing.Tracer()
        setup_tracer.install()
        try:
            workloads.sweep(args.workload, args.seed).next_round()
        finally:
            setup_tracer.uninstall()
        ops_tracer = tracing.Tracer(observe=OBSERVE)
        bytes_before = runner.bundle_bytes
        ops_tracer.install()
        try:
            traced_ops = runner.run_pass(args.seconds / 2)
        finally:
            ops_tracer.uninstall()
        if tracing.installed_wrappers():
            raise SystemExit("tracing wrappers left installed after the traced pass")
        traced_ms = statistics.median(runner.scaled[untraced_ops:])
        traced_kernel_s = statistics.median(runner.kernel_s[untraced_rounds:])
        ops_tracer.write_spans(out / "spans.csv")
        metrics = per_layer(
            ops_tracer,
            setup_tracer,
            traced_ops,
            traced_ms / untraced_ms,
            (runner.bundle_bytes - bytes_before) / traced_ops,
            scale(traced_kernel_s, traced_kernel_s),
            1e3 * statistics.median(runner.kernel_s),
        )

    for line in sorted(runner.known)[:3] + runner.unexpected[:10]:
        print(f"failed: {line}", file=sys.stderr)
    print(
        f"wall-clock: operation median {1e3 * statistics.median(runner.times):.3f} ms, "
        f"kernel median {1e3 * statistics.median(runner.kernel_s):.3f} ms "
        f"(reference {REFERENCE_KERNEL_MS} ms)",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": not runner.unexpected,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
