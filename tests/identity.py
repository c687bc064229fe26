"""Byte-identity gate: every pinned run of the repository, with its SHA-256
digests kept in one manifest, tests/identity.json beside this script.

    python tests/identity.py --check   # exit 1 and name each category, case and file that differs
    python tests/identity.py --write   # record the manifest from this tree

The manifest has two sections:

- `categories`: a fixed corpus of about 5800 runs in ten categories, two
  digests each. The `bundle` digest covers every run's bundle files (name,
  length and bytes, in name order) and the `full` digest the same bytes
  plus `repr(RunResult)`. A run that raises adds the exception's repr to
  both.
- `cases`: seventeen golden runs, each built to reach one corner of the
  engine, with the digest of each bundle file. tests/test_golden.py checks
  that each case reaches what its name claims and compares its files with
  this section in tier-1.

A change meant to keep outputs byte-identical passes --check unchanged; one
that changes outputs on purpose runs --write and says which categories and
cases moved and why. The last line of a failing --check counts apart the
categories whose bundles moved and those where only `full` moved (a change
to RunResult that writes the same bundles). The whole check runs in about
a minute; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from scenario_gen import random_household_scenario  # noqa: E402
from workloads import fault_scenario, fleet_case, mixed_feeder_doc  # noqa: E402

from pemsim.cli import write_bundle  # noqa: E402
from pemsim.engine import run_scenario  # noqa: E402
from pemsim.scenario import (  # noqa: E402
    ThermalConfig,
    fleet_scenario,
    scenario_from_dict,
    three_household_scenario,
)
from pemsim.server import ReferenceSignal  # noqa: E402

MANIFEST = Path(__file__).resolve().parent / "identity.json"


def mixed(number):
    """The benchmark's generated feeder `number`."""
    return scenario_from_dict(mixed_feeder_doc(number))


def thermal_start(scenario, initial_c):
    """The scenario with every thermal node starting at `initial_c`."""
    return replace(scenario, devices=tuple(
        replace(d, initial_c=initial_c) if isinstance(d, ThermalConfig) else d
        for d in scenario.devices
    ))


def slow_lossy(seed):
    """The reference evening with every mean delay 20 000x and every loss
    probability 0.2."""
    scenario = three_household_scenario(seed)
    return replace(scenario, channels={
        name: replace(profile, mean_ms=profile.mean_ms * 20000, loss_prob=0.2)
        for name, profile in scenario.channels.items()
    })


def lossy_meter(seed):
    """The reference evening over a single-attempt meter channel that loses
    three messages in ten."""
    scenario = three_household_scenario(seed)
    meter = replace(scenario.channels["meter"], loss_prob=0.3, max_attempts=1)
    return replace(scenario, channels={**scenario.channels, "meter": meter})


def slow_channels(scenario):
    """`scenario` over the reference evening's channels with no loss, no
    offset and every mean delay 1 200 000 ms (two 10-minute slots)."""
    return replace(scenario, channels={
        name: replace(profile, offset_ms=0.0, mean_ms=1_200_000.0, loss_prob=0.0)
        for name, profile in three_household_scenario(1).channels.items()
    })


def stepped_fleet(seed):
    """300 heaters over 4 h whose reference steps every hour between 1.0 and
    2.2 kW per heater, around their natural demand of about 1.5 kW."""
    values = tuple(300 * (2200.0 if (e // 20) % 2 else 1000.0) for e in range(80))
    return fleet_scenario(count=300, reference_w=ReferenceSignal(values_w=values), hours=4.0, seed=seed)


CATEGORIES = {
    "reference": lambda: map(three_household_scenario, range(1, 2001)),
    "mixed_feeders": lambda: map(mixed, range(1, 601)),
    "mixed_feeders_35c": lambda: (thermal_start(mixed(n), 35.0) for n in range(1, 601)),
    "mixed_feeders_80c": lambda: (thermal_start(mixed(n), 80.0) for n in range(1, 601)),
    "generated": lambda: map(random_household_scenario, range(1, 601)),
    "generated_islanded": lambda: (
        random_household_scenario(s, import_allowed=False) for s in range(1, 601)
    ),
    "fault": lambda: [fault_scenario()],
    "fleet": lambda: map(fleet_case, range(1, 5)),
    "slow_lossy": lambda: map(slow_lossy, range(1, 401)),
    "slow_lossy_warm": lambda: (thermal_start(slow_lossy(s), 35.0) for s in range(1, 401)),
}

# The golden cases. The reference evening at seeds 1, 87, 1652 and 1764 (the
# latter two are where the EV's forced start rounds at the 1 Wh completion
# slack); the reference evening without channels and with the sauna's force
# check at its service start (the thermal-fault repro, the benchmark's fault
# evening); the reference evening over a lossy single-attempt meter channel,
# whose channel.csv holds dropped rows and trip-signal rows; the reference
# evening over slow lossy channels (seed 155 is the first seed where a
# request, a grant and a trip signal each need more than one attempt and a
# decision arrives more than a slot late). Two generated feeders that hold
# two thermal jobs each; an islanded generated feeder whose battery, thermal
# job and cycle are all shed as forced grants; a generated feeder whose
# thermal job fails and keeps cooling. The benchmark's feeder 89 over slow
# lossless channels, where decisions arrive out of order: the capacity
# Reject of bat3's first request reaches it after the Accept of its re-ask,
# and must not undo it. A heater fleet on a constant reference, and one
# whose reference steps around its natural demand, so the loop reaches
# force-on, force-off, a budget short of the requests, a gap no request
# fills and a surplus of heaters already on.
#
# Three cases start their thermal nodes above ambient (20 C), so an unheated
# node cools slot by slot and the temperature in each node's first request
# depends on every unheated step before it (a node at ambient holds still):
# a generated feeder at 35 C and one at 80 C (in both, the node cools until
# its first request, at slot 5 and at slot 10, and again after its service
# ends), and the slow lossy evening with the sauna at 35 C. In the two
# feeders the temperature of that first request moves the admitted forced
# start, which requests.csv records.
CASES = {
    "reference_1": lambda: three_household_scenario(1),
    "reference_87": lambda: three_household_scenario(87),
    "reference_1652": lambda: three_household_scenario(1652),
    "reference_1764": lambda: three_household_scenario(1764),
    "late_force_check_87": fault_scenario,
    "lossy_meter_1": lambda: lossy_meter(1),
    "slow_lossy_channels_155": lambda: slow_lossy(155),
    "warm_slow_lossy_channels_155": lambda: thermal_start(slow_lossy(155), 35.0),
    "feeder_5": lambda: random_household_scenario(5),
    "feeder_9": lambda: random_household_scenario(9),
    "feeder_16": lambda: random_household_scenario(16),
    "warm_feeder_71": lambda: thermal_start(random_household_scenario(71), 35.0),
    "hot_feeder_8": lambda: thermal_start(random_household_scenario(8), 80.0),
    "islanded_feeder_3": lambda: random_household_scenario(3, import_allowed=False),
    "late_reject_feeder_89": lambda: slow_channels(mixed(89)),
    "fleet_200": lambda: fleet_scenario(count=200, hours=2.0, seed=1),
    "stepped_fleet_1": lambda: stepped_fleet(1),
}


def digest(scenarios, out_dir: Path) -> dict:
    """The `runs`, `bundle` and `full` entry of one corpus category."""
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


def case_digests(scenario, out_dir: Path) -> dict:
    """The SHA-256 of each bundle file of one golden case."""
    write_bundle(run_scenario(scenario), out_dir)
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


def moved(got: dict, want: dict) -> list[str]:
    """The keys, in order, whose values differ between two manifest entries,
    including a key that only one of them has."""
    return sorted(key for key in got.keys() | want.keys() if got.get(key) != want.get(key))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the manifest")
    mode.add_argument("--write", action="store_true", help="record the manifest")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        got = {
            "categories": {name: digest(make(), Path(tmp)) for name, make in CATEGORIES.items()},
            "cases": {name: case_digests(make(), Path(tmp)) for name, make in CASES.items()},
        }
    runs = sum(d["runs"] for d in got["categories"].values())
    if args.write:
        MANIFEST.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        print(f"wrote {MANIFEST.name}: {runs} corpus runs, {len(CASES)} cases")
        return 0
    want = json.loads(MANIFEST.read_text())
    differ = []
    kinds = Counter()  # moved categories by what moved: their bundles, or only `full`
    for section, noun in (("categories", "category"), ("cases", "case")):
        pinned = want.get(section, {})
        for name in sorted(got[section].keys() | pinned.keys()):
            keys = moved(got[section].get(name, {}), pinned.get(name, {}))
            print(f"{noun} {name}: {'differs in ' + ', '.join(keys) if keys else 'identical'}")
            if keys:
                differ.append(f"{noun} {name}")
                if section == "categories":
                    kinds["full" if keys == ["full"] else "bundle"] += 1
    if differ:
        print(
            f"{len(differ)} differ ({kinds['bundle']} categories in bundle, "
            f"{kinds['full']} in full only, {len(differ) - kinds.total()} cases): "
            + ", ".join(differ)
        )
        return 1
    print(f"all {len(CATEGORIES)} categories ({runs} runs) and {len(CASES)} cases identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
