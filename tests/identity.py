"""Byte-identity gate: two SHA-256 digests per category of a fixed corpus of
runs, kept in tests/identity.json beside this script.

    python tests/identity.py --check   # exit 1 and name each category that differs
    python tests/identity.py --write   # record the manifest from this tree

Per category, the `bundle` digest covers every run's bundle files (name,
length and bytes, in name order) and the `full` digest the same bytes plus
`repr(RunResult)`. A run that raises adds the exception's repr to both. A
change meant to keep outputs byte-identical passes --check unchanged; one
that changes outputs on purpose re-writes the manifest and says which
categories moved and why. The corpus runs in about a minute; pytest does
not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from scenario_gen import random_household_scenario  # noqa: E402
from workloads import fault_scenario, fleet_case, mixed_feeder_doc  # noqa: E402

from pemsim.cli import write_bundle  # noqa: E402
from pemsim.engine import run_scenario  # noqa: E402
from pemsim.scenario import ThermalConfig, load_scenario, scenario_from_dict  # noqa: E402

MANIFEST = Path(__file__).resolve().parent / "identity.json"
REFERENCE_FILE = ROOT / "scenarios" / "three_household.json"


def reference(seed):
    return replace(load_scenario(REFERENCE_FILE), seed=seed)


def mixed(number, initial_c=None):
    """Generated feeder `number`, every thermal node starting at `initial_c`
    if one is given."""
    doc = mixed_feeder_doc(number)
    if initial_c is not None:
        doc["devices"] = [
            {**d, "initial_c": initial_c} if d["type"] == "thermal" else d for d in doc["devices"]
        ]
    return scenario_from_dict(doc)


def slow_lossy(seed, warmer_c=0.0):
    """The reference evening with every mean delay 20 000x and every loss
    probability 0.2, its thermal nodes starting `warmer_c` above their own
    initial temperature."""
    scenario = reference(seed)
    return replace(
        scenario,
        channels={
            name: replace(profile, mean_ms=profile.mean_ms * 20000, loss_prob=0.2)
            for name, profile in scenario.channels.items()
        },
        devices=tuple(
            replace(d, initial_c=d.initial_c + warmer_c) if isinstance(d, ThermalConfig) else d
            for d in scenario.devices
        ),
    )


CATEGORIES = {
    "reference": lambda: map(reference, range(1, 2001)),
    "mixed_feeders": lambda: map(mixed, range(1, 601)),
    "mixed_feeders_35c": lambda: (mixed(n, 35.0) for n in range(1, 601)),
    "mixed_feeders_80c": lambda: (mixed(n, 80.0) for n in range(1, 601)),
    "generated": lambda: map(random_household_scenario, range(1, 601)),
    "generated_islanded": lambda: (
        random_household_scenario(s, import_allowed=False) for s in range(1, 601)
    ),
    "fault": lambda: [fault_scenario()],
    "fleet": lambda: map(fleet_case, range(1, 5)),
    "slow_lossy": lambda: map(slow_lossy, range(1, 401)),
    "slow_lossy_warm": lambda: (slow_lossy(s, 15.0) for s in range(1, 401)),
}


def digest(scenarios, out_dir: Path) -> dict:
    bundle, full = hashlib.sha256(), hashlib.sha256()
    runs = 0
    for scenario in scenarios:
        runs += 1
        try:
            result = run_scenario(scenario)
            write_bundle(result, out_dir)
        except Exception as exc:  # a run that raises is part of the record
            text = repr(exc).encode()
            bundle.update(text)
            full.update(text)
            continue
        for path in sorted(out_dir.iterdir()):
            data = path.read_bytes()
            head = f"{path.name} {len(data)}\n".encode()
            bundle.update(head + data)
            full.update(head + data)
        full.update(repr(result).encode())
    return {"runs": runs, "bundle": bundle.hexdigest(), "full": full.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the manifest")
    mode.add_argument("--write", action="store_true", help="record the manifest")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        got = {name: digest(make(), Path(tmp)) for name, make in CATEGORIES.items()}
    if args.write:
        MANIFEST.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        print(f"wrote {MANIFEST.name}: {sum(d['runs'] for d in got.values())} runs")
        return 0
    want = json.loads(MANIFEST.read_text())
    differ = []
    for name in sorted(got.keys() | want.keys()):
        moved = [
            key for key in ("runs", "bundle", "full")
            if got.get(name, {}).get(key) != want.get(name, {}).get(key)
        ]
        print(f"{name}: {'differs in ' + ', '.join(moved) if moved else 'identical'}")
        if moved:
            differ.append(name)
    if differ:
        print(f"{len(differ)} of {len(got)} categories differ: {', '.join(differ)}")
        return 1
    print(f"all {len(got)} categories identical ({sum(d['runs'] for d in got.values())} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
