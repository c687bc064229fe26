"""CLI behavior: exit codes, byte-identical bundles, golden output schema."""

import functools
import json
import math
import operator
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import identity  # noqa: F401  puts src/ and bench/ on sys.path
from workloads import mixed_feeder_doc

import pemsim
from pemsim import engine
from pemsim.cli import BUNDLE_FILES, _seed_range, main, write_bundle
from pemsim.core import MalformedRequest
from pemsim.engine import run_scenario
from pemsim.scenario import (
    fleet_scenario,
    save_scenario,
    scenario_to_dict,
    three_household_scenario,
)

SLOTS_HEADER = (
    "slot,clock,"
    "granted_dishwasher_w,granted_ev_w,granted_sauna_w,"
    "consumed_dishwasher_w,consumed_ev_w,consumed_sauna_w,"
    "renewable_available_w,renewable_used_w,storage_soc_wh,storage_flow_w,"
    "imported_w,curtailed_w,emergency"
)

REQUESTS_HEADER = (
    "device_id,kind,issued_clock,decided_clock,outcome,reason,retries,"
    "forced_start_clock,first_service_clock,completion_clock,waiting_slots,"
    "deadline_clock,deadline_met,service_failed"
)

CHANNEL_HEADER = "msg_id,kind,class,sent_ms,delivered_ms,attempts,e2e_ms,status"


def _bundle_bytes(path):
    return {
        name: (path / name).read_bytes()
        for name in ("slots.csv", "requests.csv", "channel.csv", "summary.json")
    }


class TestValidate:
    def test_shipped_scenario_validates(self, tmp_path):
        target = tmp_path / "reference.json"
        save_scenario(three_household_scenario(seed=1), target)
        assert main(["validate", "--scenario", str(target)]) == 0

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"grid": [,}')
        assert main(["validate", "--scenario", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_file(self):
        assert main(["validate", "--scenario", "/nonexistent/x.json"]) == 1

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["run", "--scenario", "x", "--out", "y", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_required_key_is_named(self, tmp_path, capsys):
        doc = scenario_to_dict(three_household_scenario(seed=1))
        del next(d for d in doc["devices"] if d["id"] == "sauna")["target_c"]
        bad = tmp_path / "missing.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(bad)]) == 1
        assert "'target_c'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda doc: doc["server"].update(emergency_shedding="false"), "emergency_shedding"),
            (lambda doc: doc.update(import_allowed="no"), "import_allowed"),
            (lambda doc: doc["channels"]["meter"].update(max_attempts=2.7), "max_attempts"),
            (lambda doc: doc["grid"].update(slot_min=10.5), "slot_min"),
            (lambda doc: doc.update(feeder_capacity_w=10**400), "feeder_capacity_w"),
            (
                lambda doc: doc.update(
                    channels=None, trip_rate_per_hour=0, grid={**doc["grid"], "horizon": 10**30}
                ),
                "horizon must be at most",
            ),
        ],
        ids=["string_in_bool", "word_in_bool", "fraction_in_int", "fraction_in_grid",
             "integer_past_float_range", "endless_horizon"],
    )
    def test_value_of_wrong_json_type_is_named(self, tmp_path, capsys, edit, key):
        doc = scenario_to_dict(three_household_scenario(seed=1))
        edit(doc)
        bad = tmp_path / "coerced.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(bad)]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("backoff_max", [0, -2])
    def test_backoff_bound_below_one_fails_validate(self, tmp_path, capsys, backoff_max):
        # with a 5 kW feeder a capacity rejection makes the run draw a backoff
        doc = scenario_to_dict(three_household_scenario(seed=1))
        doc["server"]["backoff_max"] = backoff_max
        doc["feeder_capacity_w"] = 5000
        bad = tmp_path / "backoff.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(bad)]) == 1
        assert "backoff_max" in capsys.readouterr().err

    @pytest.mark.parametrize("device, key, value", [
        ("sauna", "rated_w", 0), ("sauna", "rated_w", -1),
        ("sauna", "capacitance_wh_per_c", 0), ("sauna", "capacitance_wh_per_c", -1),
        ("sauna", "loss_w_per_c", -1), ("sauna", "efficiency", 0), ("sauna", "efficiency", -1),
        ("ev", "capacity_wh", -1), ("ev", "p_max_w", -1), ("ev", "initial_soc_wh", 40_000),
        # a sauna's 0 W packet divided by zero in the run, and a negative one
        # was never granted; the rest were refused at admission
        ("sauna", "packet_w", 0), ("sauna", "packet_w", -1000), ("ev", "packet_w", -1),
        ("ev", "priority", -1), ("dishwasher", "priority", -1),
    ])
    def test_household_physics_fails_validate(self, tmp_path, capsys, device, key, value):
        doc = scenario_to_dict(three_household_scenario(seed=1))
        next(d for d in doc["devices"] if d["id"] == device)[key] = value
        bad = tmp_path / "physics.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"{device}: " in err
        assert key in err

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["renewable"].update(mean_w=-1),
        lambda doc: doc["renewable"].update(volatility_w=-1),
        lambda doc: doc["renewable"].update(kind="trace", values_w=[500.0, -1]),
        lambda doc: doc["renewable"].update(kind="trace", values_w=None),
        lambda doc: doc["renewable"].update(kind="trace", values_w=[]),
        lambda doc: doc["renewable"].update(kind="wind"),
    ], ids=["negative_mean", "negative_volatility", "negative_value", "no_values",
            "empty_values", "unknown_kind"])
    def test_renewable_fails_validate(self, tmp_path, capsys, edit):
        doc = scenario_to_dict(three_household_scenario(seed=1))
        edit(doc)
        bad = tmp_path / "renewable.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(bad)]) == 1
        assert "renewable" in capsys.readouterr().err
        assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "renewable" in capsys.readouterr().err

    def test_negative_trip_rate_fails_validate(self, tmp_path, capsys):
        scenario = replace(three_household_scenario(seed=1), trip_rate_per_hour=-5.0)
        with pytest.raises(MalformedRequest, match="trip_rate_per_hour"):
            scenario.validate()
        bad = tmp_path / "trips.json"
        save_scenario(scenario, bad)
        assert main(["validate", "--scenario", str(bad)]) == 1
        assert "trip_rate_per_hour" in capsys.readouterr().err

    def test_unbounded_trip_rate_fails_validate(self, tmp_path, capsys, monkeypatch):
        scenario = replace(three_household_scenario(seed=1), trip_rate_per_hour=1e9)
        with pytest.raises(MalformedRequest, match="trip_rate_per_hour"):
            scenario.validate()
        bad = tmp_path / "trips.json"
        save_scenario(scenario, bad)
        assert main(["validate", "--scenario", str(bad)]) == 1
        assert "trip_rate_per_hour" in capsys.readouterr().err

        def no_run(scenario):
            raise AssertionError("the run started")

        monkeypatch.setattr(engine, "_run_household", no_run)
        assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert "trip_rate_per_hour" in capsys.readouterr().err

    @pytest.mark.parametrize("device, edit, reason", [
        ("dishwasher", {"profile_w": []}, "profile must be non-empty"),
        ("dishwasher", {"profile_w": [2000.0, -1.0]}, "profile power must be positive"),
        ("dishwasher", {"profile_w": None, "power_w": 2000, "duration_slots": -2},
         "profile must be non-empty"),
        ("sauna", {"force_check_at": "19:10"}, "thermal schedule out of order"),
        ("sauna", {"preheat_from": "18:30"}, "thermal schedule out of order"),
        ("sauna", {"service_end": "19:00"}, "thermal schedule out of order"),
        ("dishwasher", {"profile_w": [0.0, 2000.0, 2000.0]}, "profile power must be positive"),
        ("dishwasher", {"profile_w": [2000.0, 0.0, 2000.0]}, "profile power must be positive"),
        ("dishwasher", {"profile_w": [2000.0, 2000.0, 0.0]}, "profile power must be positive"),
        ("dishwasher", {"profile_w": None, "power_w": 0, "duration_slots": 3},
         "profile power must be positive"),
        ("ev", {"p_max_w": 0.0, "initial_soc_wh": 30_000.0}, "p_max_w must be positive"),
        ("ev", {"p_max_w": 0.0, "capacity_wh": 0.0}, "p_max_w must be positive"),
        ("dishwasher", {"profile_w": [2000.0, 1e-9, 2000.0, 2000.0, 2000.0, 2000.0]},
         "profile power must be positive"),
        ("dishwasher", {"profile_w": [2000.0, 1e-6, 2000.0, 2000.0, 2000.0, 2000.0]},
         "profile power must be positive"),
    ], ids=["empty_profile", "negative_profile", "legacy_negative_slots", "check_after_start",
            "preheat_after_check", "empty_service", "leading_zero_slot", "inner_zero_slot",
            "trailing_zero_slot", "legacy_zero_power", "full_battery_zero_power",
            "no_capacity_zero_power", "slot_below_grant_tolerance", "slot_at_grant_tolerance"])
    def test_what_admission_refuses_fails_validate(self, tmp_path, capsys, device, edit, reason):
        """Each of these ran with the device rejected as malformed_request
        or window_infeasible, or broke the run: a cycle slot after the first
        at 0 W, or at or below the 1e-6 W under which the engine counts a
        grant as none, broke the cycle's contiguity (exit 2), and a leading
        0 W slot kept the accepted cycle from ever starting."""
        doc = scenario_to_dict(three_household_scenario(seed=1))
        cfg = next(d for d in doc["devices"] if d["id"] == device)
        cfg.update(edit)
        if cfg.get("profile_w", ()) is None:
            del cfg["profile_w"]
        bad = tmp_path / "refused.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(bad)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and f"validation error: {device}: {reason}" in lines[0], lines

    def test_invalid_file_is_reported_as_not_loaded(self, tmp_path, capsys):
        """A file that is read and decoded but fails validation names the
        load step, not reading, in its one stderr line."""
        doc = scenario_to_dict(three_household_scenario(seed=1))
        next(d for d in doc["devices"] if d["id"] == "dishwasher")["profile_w"][1] = 1e-9
        bad = tmp_path / "refused.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(bad)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"cannot load scenario file {bad}: validation error: dishwasher: "
            "profile power must be positive (above 1e-06 W)"
        ]

    def test_invalid_scenario_body(self, tmp_path):
        bad = tmp_path / "dupes.json"
        doc = {
            "grid": {"start": "00:00", "slot_min": 10, "horizon": 4},
            "feeder_capacity_w": 100.0,
            "devices": [
                {"type": "cycle", "id": "x", "power_w": 50, "duration_slots": 1,
                 "earliest_start": "00:00", "deadline": "00:30"},
                {"type": "cycle", "id": "x", "power_w": 50, "duration_slots": 1,
                 "earliest_start": "00:00", "deadline": "00:30"},
            ],
            "seed": 1,
        }
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(bad)]) == 1


class TestUnreadableFiles:
    """A scenario or reference file that cannot be opened or decoded ends
    in one stderr line naming it and exit 1, before any output exists."""

    def _assert_one_line_naming(self, capsys, path):
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and str(path) in lines[0], lines

    @pytest.mark.parametrize("command", ["run", "validate", "batch"])
    def test_scenario_directory(self, tmp_path, capsys, command):
        argv = [command, "--scenario", str(tmp_path)]
        out = tmp_path / "out"
        argv += {"run": ["--out", str(out)], "batch": ["--seeds", "1..2", "--out", str(out)]}.get(
            command, []
        )
        assert main(argv) == 1
        self._assert_one_line_naming(capsys, tmp_path)
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_reference_file(self, tmp_path, capsys, kind):
        ref = tmp_path / "ref.txt"
        if kind == "directory":
            ref.mkdir()
        elif kind == "not_utf8":
            ref.write_bytes(b"100000\n\xff\xfe150000\n")
        out = tmp_path / "out"
        assert main(["fleet", "--count", "5", "--ref", str(ref), "--hours", "0.1",
                     "--out", str(out)]) == 1
        self._assert_one_line_naming(capsys, ref)
        assert not out.exists()


@pytest.mark.parametrize("where", ["file", "under_file"])
@pytest.mark.parametrize("command", ["run", "fig3", "fleet", "batch"])
def test_out_that_is_or_is_under_a_file_exits_one(tmp_path, command, where):
    """An --out naming a regular file, or a path under one, ends in one
    stderr line naming it and exit 1. Run in a fresh interpreter, so an
    uncaught exception shows as the traceback a user would see."""
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    out = blocker if where == "file" else blocker / "bundle"
    scenario_file = tmp_path / "scenario.json"
    save_scenario(three_household_scenario(seed=1), scenario_file)
    flags = {
        "run": ["--scenario", str(scenario_file)],
        "batch": ["--scenario", str(scenario_file), "--seeds", "1..2"],
        "fig3": [],
        "fleet": ["--count", "5", "--hours", "0.1"],
    }[command]
    env = {**os.environ, "PYTHONPATH": str(Path(pemsim.__file__).parents[1])}
    argv = [sys.executable, "-m", "pemsim.cli", command, *flags, "--out", str(out)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"cannot write bundle to {out}: "), lines
    assert blocker.read_text() == "keep\n"


@pytest.mark.parametrize("command", ["run", "fleet"])
def test_bundle_bytes_do_not_depend_on_the_locale(tmp_path, command):
    """Scenario, reference and bundle files are UTF-8 whatever the locale.
    Under the C locale with UTF-8 mode off, a scenario whose device id is
    not ASCII, or a reference file with a comment that is not, gives the
    bundle that a UTF-8 mode run writes, byte for byte."""
    doc = scenario_to_dict(three_household_scenario(seed=1))
    doc["devices"][0]["id"] = "sauna-\u00e9"
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    ref = tmp_path / "ref.txt"
    ref.write_bytes("# r\u00e9f\u00e9rence\n20000\n25000\n".encode("utf-8"))
    flags = {
        "run": ["--scenario", str(scenario_file)],
        "fleet": ["--count", "10", "--hours", "0.2", "--ref", str(ref)],
    }[command]
    bundles = []
    for name, locale_env in [
        ("c_locale", {"LC_ALL": "C", "PYTHONUTF8": "0"}),
        ("utf8_mode", {"PYTHONUTF8": "1"}),
    ]:
        out = tmp_path / name
        env = {**os.environ, "PYTHONPATH": str(Path(pemsim.__file__).parents[1]), **locale_env}
        argv = [sys.executable, "-m", "pemsim.cli", command, *flags, "--out", str(out)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        bundles.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert bundles[0] == bundles[1]
    if command == "run":
        assert "granted_sauna-\u00e9_w".encode("utf-8") in bundles[0]["slots.csv"]


def _reference_text(edit) -> str:
    doc = scenario_to_dict(three_household_scenario(seed=1))
    edit(doc)
    return json.dumps(doc)


# islanded, no shedding: seed 1 runs short of supply
_ISLANDED = _reference_text(
    lambda doc: doc.update(
        import_allowed=False, server={**doc["server"], "emergency_shedding": False}
    )
)


@pytest.mark.parametrize("command, text, code, start", [
    ("run", '{"grid": [,}', 1, "cannot load scenario file {path}: malformed JSON: line 1, "),
    ("batch", _reference_text(lambda doc: doc["devices"][0].update(packet_w=0)), 1,
     "cannot load scenario file {path}: validation error: sauna: packet_w"),
    ("run", _ISLANDED, 2, "invariant violation: supply short by"),
    ("batch", _ISLANDED, 2, "seed 1: invariant violation: supply short by"),
], ids=["malformed_json", "invalid", "run_invariant", "batch_invariant"])
def test_each_failure_is_one_stderr_line(tmp_path, capsys, command, text, code, start):
    """A failed `run` or `batch` exits with the failure's code and writes one
    stderr line, which leads with the file being read when there is one."""
    path = tmp_path / "scenario.json"
    path.write_text(text)
    seed = {"run": ["--seed", "1"], "batch": ["--seeds", "1"]}[command]
    assert main([command, "--scenario", str(path), *seed, "--out", str(tmp_path / "o")]) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(start.format(path=path)), lines


class TestRun:
    def test_run_twice_byte_identical(self, tmp_path):
        scenario_file = tmp_path / "scenario.json"
        save_scenario(three_household_scenario(seed=9), scenario_file)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--scenario", str(scenario_file), "--out", str(out_a)]) == 0
        assert main(["run", "--scenario", str(scenario_file), "--out", str(out_b)]) == 0
        assert _bundle_bytes(out_a) == _bundle_bytes(out_b)

    def test_seed_flag_overrides_file(self, tmp_path):
        scenario_file = tmp_path / "scenario.json"
        save_scenario(three_household_scenario(seed=9), scenario_file)
        out = tmp_path / "o"
        assert main(["run", "--scenario", str(scenario_file), "--seed", "77", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 77

    def test_golden_headers(self, tmp_path):
        out = tmp_path / "o"
        assert main(["fig3", "--out", str(out), "--seed", "1"]) == 0
        assert (out / "slots.csv").read_text().splitlines()[0] == SLOTS_HEADER
        assert (out / "requests.csv").read_text().splitlines()[0] == REQUESTS_HEADER
        assert (out / "channel.csv").read_text().splitlines()[0] == CHANNEL_HEADER

    def test_row_counts_match_shapes(self, tmp_path):
        out = tmp_path / "o"
        assert main(["fig3", "--out", str(out), "--seed", "2"]) == 0
        slot_rows = (out / "slots.csv").read_text().splitlines()
        assert len(slot_rows) == 1 + 48
        request_rows = (out / "requests.csv").read_text().splitlines()
        assert len(request_rows) == 1 + 3

    def test_household_run_over_fleet_bundle_leaves_no_fleet_file(self, tmp_path):
        scenario_file = tmp_path / "scenario.json"
        save_scenario(three_household_scenario(seed=9), scenario_file)
        out, fresh = tmp_path / "o", tmp_path / "fresh"
        assert main(["fleet", "--count", "5", "--hours", "0.2", "--out", str(out)]) == 0
        assert (out / "fleet.csv").exists()
        assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == 0
        assert main(["run", "--scenario", str(scenario_file), "--out", str(fresh)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in fresh.iterdir())
        assert _bundle_bytes(out) == _bundle_bytes(fresh)

    def test_summary_is_strict_json(self, tmp_path):
        result = run_scenario(fleet_scenario(count=5, hours=0.1, seed=1))
        result.fleet.reference_w[0] = math.nan
        with pytest.raises(ValueError):
            write_bundle(result, tmp_path / "o")


class TestFig3Command:
    def test_summary_shape(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["fig3", "--out", str(out), "--seed", "4"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["accepted"] == 3
        assert summary["deadline_misses"] == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == summary

    def test_save_scenario_roundtrip(self, tmp_path):
        out = tmp_path / "o"
        saved = tmp_path / "fig3.json"
        assert main(["fig3", "--out", str(out), "--save-scenario", str(saved)]) == 0
        assert main(["validate", "--scenario", str(saved)]) == 0

    def test_unwritable_save_scenario_exits_one(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        saved = blocker / "fig3.json"
        assert main(["fig3", "--out", str(tmp_path / "o"), "--save-scenario", str(saved)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"cannot write scenario file {saved}: ")


class TestBatch:
    def test_batch_layout_and_determinism(self, tmp_path):
        scenario_file = tmp_path / "scenario.json"
        save_scenario(three_household_scenario(seed=1), scenario_file)
        out = tmp_path / "batch"
        assert main(["batch", "--scenario", str(scenario_file), "--seeds", "1..3",
                     "--out", str(out)]) == 0
        entries = json.loads((out / "batch.json").read_text())
        assert [e["seed"] for e in entries] == [1, 2, 3]
        assert all(e["error"] is None for e in entries)
        for seed in (1, 2, 3):
            assert (out / f"seed_{seed}" / "summary.json").exists()

    def test_batch_rerun_replaces_a_longer_index(self, tmp_path):
        scenario_file = tmp_path / "scenario.json"
        save_scenario(three_household_scenario(seed=1), scenario_file)
        out, fresh = tmp_path / "batch", tmp_path / "fresh"
        out.mkdir()
        (out / "batch.json").write_text("x" * 100_000)
        argv = ["batch", "--scenario", str(scenario_file), "--seeds", "1..2", "--out"]
        assert main(argv + [str(out)]) == 0
        assert main(argv + [str(fresh)]) == 0
        assert (out / "batch.json").read_bytes() == (fresh / "batch.json").read_bytes()

    @pytest.mark.parametrize("seeds", ["abc", "1..2..3", "5..3", "1.."])
    def test_bad_seed_range_exits_one_before_any_output(self, tmp_path, capsys, seeds):
        scenario_file = tmp_path / "scenario.json"
        save_scenario(three_household_scenario(seed=1), scenario_file)
        out = tmp_path / "batch"
        assert main(["batch", "--scenario", str(scenario_file), "--seeds", seeds,
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: pemsim batch")
        assert "--seeds" in captured.err and repr(seeds) in captured.err
        assert captured.out == "" and not out.exists()

    def test_seed_range_holds_no_list(self):
        """`--seeds` parses to a range, which holds none of its seeds, so a
        long range costs nothing before the first run."""
        seeds = _seed_range("1..1000000000000")
        assert len(seeds) == 10**12 and seeds[0] == 1 and seeds[-1] == 10**12
        assert _seed_range("7") == range(7, 8)

    def test_invariant_error_exits_two_from_run_and_batch(self, tmp_path, capsys):
        # islanded, no shedding: seeds 1 and 2 run short of supply
        doc = scenario_to_dict(three_household_scenario(seed=1))
        reference_file = tmp_path / "reference.json"
        reference_file.write_text(json.dumps(doc))
        doc["import_allowed"] = False
        doc["server"]["emergency_shedding"] = False
        scenario_file = tmp_path / "islanded.json"
        scenario_file.write_text(json.dumps(doc))
        # a good bundle of seed 5 in each directory a failed seed writes to
        out = tmp_path / "batch"
        for stale in (tmp_path / "run", out / "seed_1"):
            assert main(["run", "--scenario", str(reference_file), "--seed", "5",
                         "--out", str(stale)]) == 0
            assert json.loads((stale / "summary.json").read_text())["seed"] == 5
        capsys.readouterr()
        assert main(["run", "--scenario", str(scenario_file), "--seed", "1",
                     "--out", str(tmp_path / "run")]) == 2
        assert "invariant violation: supply short by" in capsys.readouterr().err
        assert main(["batch", "--scenario", str(scenario_file), "--seeds", "1..3",
                     "--out", str(out)]) == 2
        entries = json.loads((out / "batch.json").read_text())
        assert [e["seed"] for e in entries] == [1, 2, 3]
        for entry in entries[:2]:
            assert entry["summary"] is None
            assert entry["error"].startswith("invariant violation: supply short by")
        assert entries[2]["error"] is None and entries[2]["summary"]["seed"] == 3
        # no bundle file of seed 5 survives a failed run over it
        for failed in (tmp_path / "run", out / "seed_1"):
            assert [name for name in BUNDLE_FILES if (failed / name).exists()] == []


class TestFleetCommand:
    def test_small_fleet_run(self, tmp_path):
        out = tmp_path / "o"
        assert main(["fleet", "--count", "100", "--ref-watts", "150000",
                     "--hours", "1", "--out", str(out), "--seed", "2"]) == 0
        lines = (out / "fleet.csv").read_text().splitlines()
        assert len(lines) == 1 + 20  # one hour of 3-minute epochs
        summary = json.loads((out / "summary.json").read_text())
        assert "fleet" in summary

    def test_reference_file(self, tmp_path):
        ref = tmp_path / "ref.txt"
        ref.write_text("# watts per epoch\n100000\n150000\n")
        out = tmp_path / "o"
        assert main(["fleet", "--count", "50", "--ref", str(ref),
                     "--hours", "0.5", "--out", str(out)]) == 0

    def test_non_numeric_reference_line_exits_one(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        ref.write_text("# watts per epoch\n100000\nabc\n")
        out = tmp_path / "o"
        assert main(["fleet", "--count", "5", "--ref", str(ref),
                     "--hours", "0.1", "--out", str(out)]) == 1
        assert "line 3" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_fleet_exits_one(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["fleet", "--count", "0", "--hours", "1", "--out", str(out)]) == 1
        assert "fleet.count" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count, packet_epochs, key", [
        (0, 8, "count"), (20, 0, "packet_epochs"), (20, -5, "packet_epochs"),
    ])
    def test_fleet_file_without_heaters_or_epochs_fails_validate(
        self, tmp_path, capsys, count, packet_epochs, key
    ):
        doc = scenario_to_dict(fleet_scenario(count=20, hours=1.0, seed=3))
        doc["devices"][0].update(count=count, packet_epochs=packet_epochs)
        bad = tmp_path / "fleet.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(bad)]) == 1
        assert f"fleet.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("rated_w", 0), ("rated_w", -5), ("capacitance_wh_per_c", 0),
        ("loss_w_per_c", -1), ("efficiency", 0),
    ])
    def test_heater_physics_fails_validate(self, tmp_path, capsys, key, value):
        doc = scenario_to_dict(fleet_scenario(count=20, hours=1.0, seed=3))
        doc["devices"][0][key] = value
        bad = tmp_path / "fleet.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(bad)]) == 1
        assert key in capsys.readouterr().err

    def test_feeder_below_all_heaters_on_fails_validate_and_run(self, tmp_path, capsys):
        # 200 heaters of 4500 W can all be forced on at once: 900 kW
        doc = scenario_to_dict(fleet_scenario(count=200, hours=1.0, seed=3))
        doc["feeder_capacity_w"] = 100000
        bad = tmp_path / "fleet.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["validate", "--scenario", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "feeder_capacity_w 100000" in err and "rated_w = 900000" in err
        assert main(["run", "--scenario", str(bad), "--out", str(out)]) == 1
        assert "feeder_capacity_w" in capsys.readouterr().err
        assert not out.exists()

    def test_imports_barred_below_all_heaters_on_fails_validate_and_run(self, tmp_path, capsys):
        # fleet_scenario's renewable trace is (0.0,); before validate caught
        # it, run raised UnderSupply at the first epoch with a heater on
        doc = scenario_to_dict(fleet_scenario(count=200, hours=2.0, seed=1))
        doc["import_allowed"] = False
        bad = tmp_path / "fleet.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["validate", "--scenario", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "renewable minimum 0 W" in err and "rated_w = 900000" in err
        assert main(["run", "--scenario", str(bad), "--out", str(out)]) == 1
        assert "renewable minimum" in capsys.readouterr().err
        assert not out.exists()
        doc["renewable"]["values_w"] = [900000.0]  # covers every heater on
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(bad)]) == 0

    @pytest.mark.parametrize("flags", [
        ["--hours", "nan"], ["--hours", "inf"], ["--ref-watts", "nan"], ["--ref-watts", "inf"],
        ["--hours", "1e300"],
    ])
    def test_non_finite_fleet_flags_exit_one(self, tmp_path, capsys, flags):
        out = tmp_path / "o"
        assert main(["fleet", "--count", "5", "--hours", "0.1", *flags, "--out", str(out)]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()


def _node_paths(node, path=()):
    """Paths to every node of a scenario document, the root included."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _node_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _node_paths(value, path + (i,))


def _at(doc, path):
    """The node of a scenario document at `path`."""
    return functools.reduce(operator.getitem, path, doc)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("base", ["reference", "fleet"])
def test_numeric_field_mutants_exit_cleanly(tmp_path, capsys, base):
    """Each node of a scenario file (object, array, string, number, bool or
    null) set to NaN, +-inf, -1, 0, 1e-9, 1e-6, 2e-6 (below, at and above
    the grant tolerance CAP_TOL_W), 1 - 1e-6, 1.0, 1 + 1e-6 (below, at and
    above the completion tolerance COMPLETION_TOL_WH), [], {}, "x", true or
    null: `validate` and `run` exit without an exception, a non-zero exit
    writes exactly one stderr line, a file that `validate` accepts runs to
    exit 0 (no invariant violation) with no request rejected as malformed,
    one it refuses makes `run` exit 1, and a run that exits 0 writes strict
    JSON."""
    if base == "reference":
        doc = scenario_to_dict(three_household_scenario(seed=5))
    else:
        doc = scenario_to_dict(fleet_scenario(count=30, hours=1.0, seed=5))
    scenario_file, out = tmp_path / "mutant.json", tmp_path / "out"

    def exit_code(argv, where):
        try:
            code = main(argv)
        except Exception as exc:
            raise AssertionError(f"{where}: {argv[0]} raised {exc!r}") from exc
        err = capsys.readouterr().err.splitlines()
        assert code == 0 or len(err) == 1, (where, argv[0], err)
        return code

    mutants = 0
    for path in _node_paths(doc):
        for value in (
            math.nan, math.inf, -math.inf, -1, 0, 1e-9, 1e-6, 2e-6,
            1.0 - 1e-6, 1.0, 1.0 + 1e-6, [], {}, "x", True, None,
        ):
            mutant = json.loads(json.dumps(doc))
            if path:
                _at(mutant, path[:-1])[path[-1]] = value
            else:
                mutant = value
            scenario_file.write_text(json.dumps(mutant))
            where = f"{'.'.join(map(str, path))} = {value!r}"
            valid = exit_code(["validate", "--scenario", str(scenario_file)], where)
            assert valid in (0, 1), where
            # each run that starts writes its own bundle, or removes the last
            code = exit_code(["run", "--scenario", str(scenario_file), "--out", str(out)], where)
            assert code == (0 if valid == 0 else 1), where
            if code == 0:
                json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
            if valid == 0 and (out / "requests.csv").exists():
                assert "malformed_request" not in (out / "requests.csv").read_text(), where
            mutants += 1
    assert mutants >= 400


def test_seeded_multi_field_fuzz(tmp_path, capsys):
    """Generated feeder documents 1..400 (the benchmark's `household_mixed`
    inputs), each with one to three of its numbers scaled by a factor drawn
    log-uniformly from 0.001 to 1000 or set to 1e-9, 1 or 2: `validate`
    exits 0 or 1, a document it accepts runs to exit 0 with no request
    rejected as malformed, and one it refuses makes `run` exit 1."""
    rng = random.Random("multi-field fuzz")
    scenario_file, out = tmp_path / "fuzzed.json", tmp_path / "out"
    accepted = 0
    for number in range(1, 401):
        doc = mixed_feeder_doc(number)
        numbers = [
            path for path in _node_paths(doc)
            if isinstance(_at(doc, path), (int, float)) and not isinstance(_at(doc, path), bool)
        ]
        edits = []
        for path in rng.sample(numbers, rng.randint(1, 3)):
            parent = _at(doc, path[:-1])
            if rng.random() < 0.5:
                parent[path[-1]] *= 10 ** rng.uniform(-3.0, 3.0)
            else:
                parent[path[-1]] = rng.choice([1e-9, 1, 2])
            edits.append(f"{'.'.join(map(str, path))} = {parent[path[-1]]!r}")
        scenario_file.write_text(json.dumps(doc))
        where = (number, edits)
        valid = main(["validate", "--scenario", str(scenario_file)])
        assert valid in (0, 1), where
        code = main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        assert code == (0 if valid == 0 else 1), (where, capsys.readouterr().err)
        if valid == 0:
            accepted += 1
            assert "malformed_request" not in (out / "requests.csv").read_text(), where
        capsys.readouterr()
    assert accepted >= 100


class TestLibraryParity:
    def test_cli_output_matches_library(self, tmp_path):
        scenario = three_household_scenario(seed=6)
        result = run_scenario(scenario)
        lib_summary = write_bundle(result, tmp_path / "lib")
        scenario_file = tmp_path / "s.json"
        save_scenario(scenario, scenario_file)
        assert main(["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "cli")]) == 0
        assert _bundle_bytes(tmp_path / "lib") == _bundle_bytes(tmp_path / "cli")
        assert lib_summary == json.loads((tmp_path / "cli" / "summary.json").read_text())
