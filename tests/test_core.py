"""Core vocabulary: time grid, request validation, scenario serialization."""

import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from pemsim import engine
from pemsim.core import (
    MAX_FLEET_COUNT,
    FlexibleTotalRequest,
    MalformedRequest,
    TimeGrid,
    WindowInfeasible,
    format_hhmm,
    parse_hhmm,
    slot_clocks,
    substream,
    validate_request,
)
from pemsim.engine import run_scenario
from pemsim.server import ReferenceSignal
from pemsim.scenario import (
    CycleConfig,
    ServerPolicy,
    fleet_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    three_household_scenario,
)

REFERENCE_FILE = Path(__file__).resolve().parent.parent / "scenarios" / "three_household.json"

GRID = TimeGrid(epoch_start_min=16 * 60, slot_min=10, horizon=48)


class TestClock:
    def test_parse_and_format(self):
        assert parse_hhmm("16:00") == 960
        assert parse_hhmm("24:00") == 1440
        assert format_hhmm(1440) == "24:00"
        assert format_hhmm(1330) == "22:10"

    def test_grid_mapping(self):
        assert GRID.slot_of("16:00") == 0
        assert GRID.slot_of("22:10") == 37
        assert GRID.slot_of("24:00") == 48
        assert GRID.clock_of(37) == "22:10"

    @pytest.mark.parametrize(
        "grid",
        [
            GRID,  # starts at 16:00
            TimeGrid(epoch_start_min=20 * 60, slot_min=15, horizon=40),  # runs to 06:00, "30:00"
            TimeGrid(epoch_start_min=0, slot_min=10, horizon=1),
            TimeGrid(epoch_start_min=0, slot_min=10, horizon=144),
        ],
    )
    def test_slot_clocks_are_clock_of(self, grid):
        """The table holds clock_of of every slot boundary, slot `horizon`
        included, and equal grids share one table."""
        clocks = slot_clocks(grid)
        assert clocks == tuple(grid.clock_of(t) for t in range(grid.horizon + 1))
        assert slot_clocks(replace(grid)) is clocks

    def test_off_grid_time_rejected(self):
        with pytest.raises(MalformedRequest):
            GRID.slot_of("16:05")

    def test_bad_grid(self):
        with pytest.raises(MalformedRequest):
            TimeGrid(epoch_start_min=0, slot_min=0, horizon=10)
        with pytest.raises(MalformedRequest):
            TimeGrid(epoch_start_min=0, slot_min=10, horizon=0)
        with pytest.raises(MalformedRequest, match="horizon"):
            TimeGrid(epoch_start_min=0, slot_min=10, horizon=10**30)


class TestValidateRequest:
    def _flexible(self, **kw):
        base = dict(
            device_id="ev",
            energy_needed_wh=30_000.0,
            p_max_w=5000.0,
            available_from=0,
            deadline=48,
            packet_w=1000.0,
            priority=3,
            issued_at=0,
        )
        base.update(kw)
        return FlexibleTotalRequest(**base)

    def test_ev_window_feasible(self):
        # 5000 W * 8 h = 40 kWh >= 30 kWh, so the window holds the request
        validate_request(self._flexible(), GRID)

    def test_zero_energy_ok(self):
        validate_request(self._flexible(energy_needed_wh=0.0), GRID)

    def test_empty_window(self):
        with pytest.raises(WindowInfeasible):
            validate_request(self._flexible(available_from=10, deadline=10), GRID)

    def test_energy_over_window(self):
        with pytest.raises(WindowInfeasible):
            validate_request(self._flexible(energy_needed_wh=40_001.0), GRID)

    def test_zero_power_limit(self):
        with pytest.raises(MalformedRequest, match="power limits must be positive"):
            validate_request(self._flexible(energy_needed_wh=0.0, p_max_w=0.0), GRID)

    def test_negative_energy(self):
        with pytest.raises(MalformedRequest):
            validate_request(self._flexible(energy_needed_wh=-1.0), GRID)

    def test_outside_horizon(self):
        with pytest.raises(WindowInfeasible):
            validate_request(self._flexible(deadline=49), GRID)


class TestScenarioSerialization:
    def test_household_roundtrip(self):
        scenario = three_household_scenario(seed=7)
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_fleet_roundtrip(self):
        scenario = fleet_scenario(count=50, reference_w=200_000.0, hours=1.0, seed=3)
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_times_rendered_as_clock(self):
        doc = scenario_to_dict(three_household_scenario(seed=1))
        ev = next(d for d in doc["devices"] if d["id"] == "ev")
        assert ev["arrive"] == "16:00"
        assert ev["deadline"] == "24:00"
        sauna = next(d for d in doc["devices"] if d["id"] == "sauna")
        assert sauna["force_check_at"] == "18:20"

    def test_reference_file_roundtrips_byte_identically(self, tmp_path):
        save_scenario(load_scenario(REFERENCE_FILE), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == REFERENCE_FILE.read_bytes()

    def test_legacy_cycle_form(self):
        doc = scenario_to_dict(three_household_scenario(seed=1))
        dishwasher = next(d for d in doc["devices"] if d["id"] == "dishwasher")
        assert dishwasher["profile_w"] == [2000.0] * 6
        legacy = {k: v for k, v in dishwasher.items() if k != "profile_w"}
        legacy.update(power_w=2000, duration_slots=6)
        doc["devices"] = [legacy if d is dishwasher else d for d in doc["devices"]]
        [cycle] = [d for d in scenario_from_dict(doc).devices if isinstance(d, CycleConfig)]
        assert cycle == CycleConfig("dishwasher", (2000.0,) * 6, 24, 48, priority=1)
        assert all(type(w) is float for w in cycle.profile_w)

    @pytest.mark.parametrize("edit, key", [
        (lambda doc: [doc], "a scenario"),
        (lambda doc: doc.update(grid=[]), "grid"),
        (lambda doc: doc["grid"].update(start=9.5), "start"),
        (lambda doc: doc["grid"].update(start=True), "start"),
        (lambda doc: doc["devices"][2].update(profile_w=2000), "profile_w"),
        (lambda doc: doc["devices"].append("x"), "a device"),
        (lambda doc: doc["devices"][0].update(type=["thermal"]), "type"),
        (lambda doc: doc["channels"]["meter"].update({"class": "lte"}), "class"),
        (lambda doc: doc["channels"].update(meter=[]), "channels"),
        (lambda doc: doc.update(storage="x"), "storage"),
        (lambda doc: doc.update(channels=1), "channels"),
        (lambda doc: doc["grid"].__delitem__("horizon"), "'horizon'"),
        (lambda doc: doc["devices"][0].__delitem__("target_c"), "'target_c'"),
        (lambda doc: doc.update(feeder_capacity_w=10**400), "feeder_capacity_w"),
    ], ids=["array_document", "array_grid", "fraction_start", "bool_start", "number_profile",
            "string_device", "array_type", "unknown_class", "array_channel", "string_storage",
            "number_channels", "missing_horizon", "missing_target", "integer_past_float"])
    def test_malformed_document_names_its_key(self, edit, key):
        doc = scenario_to_dict(three_household_scenario(seed=1))
        doc = edit(doc) or doc
        with pytest.raises(MalformedRequest, match=key):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("edit, key", [
        (lambda doc: doc["devices"][0].update(pakcet_w=500), "pakcet_w"),
        (lambda doc: doc.update(chanels=None), "chanels"),
        (lambda doc: doc["grid"].update(slot_mins=10), "slot_mins"),
        (lambda doc: doc["renewable"].update(mean=3000.0), "mean"),
        (lambda doc: doc["channels"]["grant"].update(loss_prob=0.1), "loss_prob"),
        (lambda doc: doc["server"].update(backoff=3), "backoff"),
        (lambda doc: doc["devices"][1].update(device_id="ev"), "device_id"),
        (lambda doc: doc["devices"][2].update(power_w=2000.0), "power_w"),
        (lambda doc: doc["channels"].update(tirp=doc["channels"]["trip"]), "tirp"),
    ], ids=["device", "top_level", "grid", "renewable", "channel_profile", "server",
            "field_name_for_alias", "legacy_beside_profile", "channel_kind"])
    def test_unknown_key_is_refused_by_name(self, edit, key):
        """A key the codec does not read would leave its field at the
        default, so it is refused by name."""
        doc = scenario_to_dict(three_household_scenario(seed=1))
        edit(doc)
        with pytest.raises(MalformedRequest, match=key):
            scenario_from_dict(doc)

    def test_fleet_document_holds_its_parameters_flat(self):
        """A fleet device document holds the fleet's fields and its heater
        parameters side by side; any other key is refused."""
        doc = scenario_to_dict(fleet_scenario(count=20, hours=1.0))
        assert {"count", "packet_epochs", "t_low_c", "draw_prob"} <= set(doc["devices"][0])
        assert scenario_from_dict(doc) == fleet_scenario(count=20, hours=1.0)
        for key in ("params", "t_low", "rated_power_w"):
            bad = json.loads(json.dumps(doc))
            bad["devices"][0][key] = 1.0
            with pytest.raises(MalformedRequest, match=f"unknown key '{key}'"):
                scenario_from_dict(bad)

    def test_int_in_float_field_decodes_to_float(self):
        doc = scenario_to_dict(three_household_scenario(seed=1))
        doc["feeder_capacity_w"] = 10000
        doc["storage"] = {"soc_wh": 5000, "capacity_wh": 10000,
                          "p_charge_max_w": 3000, "p_discharge_max_w": 3000}
        scenario = scenario_from_dict(doc)
        assert type(scenario.feeder_capacity_w) is float
        assert type(scenario.storage.soc_wh) is float
        assert scenario.storage.efficiency == 1.0


class TestFleetValidation:
    """A fleet run ignores channels, trip traffic and the server policy, so a
    fleet scenario that sets them is rejected."""

    def test_defaults_validate(self):
        fleet_scenario(count=10, hours=1.0).validate()

    def test_channels_rejected(self):
        channels = three_household_scenario().channels
        scenario = replace(fleet_scenario(count=10, hours=1.0), channels=channels)
        with pytest.raises(MalformedRequest, match="channels"):
            scenario.validate()

    def test_trip_rate_rejected(self):
        scenario = replace(fleet_scenario(count=10, hours=1.0), trip_rate_per_hour=2.0)
        with pytest.raises(MalformedRequest, match="trip_rate_per_hour"):
            scenario.validate()

    def test_server_policy_rejected(self):
        scenario = replace(
            fleet_scenario(count=10, hours=1.0), policy=ServerPolicy(renewable_first=False)
        )
        with pytest.raises(MalformedRequest, match="server policy"):
            scenario.validate()

    @pytest.mark.parametrize("count", [0, -3])
    def test_empty_fleet_rejected(self, count):
        with pytest.raises(MalformedRequest, match="fleet.count"):
            fleet_scenario(count=count, hours=1.0).validate()

    def test_oversized_fleet_rejected_before_the_run(self, monkeypatch):
        """A count past MAX_FLEET_COUNT would have the fleet loop build
        per-heater lists of that length; validate refuses it first."""
        def no_run(scenario):
            raise AssertionError("the fleet run started")

        monkeypatch.setattr(engine, "_run_fleet", no_run)
        scenario = fleet_scenario(count=10, hours=1.0)
        for count in (MAX_FLEET_COUNT + 1, 10**9):
            fleet = replace(scenario.devices[0], count=count)
            big = replace(scenario, devices=(fleet,), feeder_capacity_w=1e13)
            with pytest.raises(MalformedRequest, match=f"fleet.count must be at most {MAX_FLEET_COUNT}"):
                run_scenario(big)
        fleet = replace(scenario.devices[0], count=MAX_FLEET_COUNT)
        replace(scenario, devices=(fleet,), feeder_capacity_w=1e13).validate()

    @pytest.mark.parametrize("packet_epochs", [0, -5])
    def test_packet_without_epochs_rejected(self, packet_epochs):
        scenario = fleet_scenario(count=10, hours=1.0)
        fleet = replace(scenario.devices[0], packet_epochs=packet_epochs)
        with pytest.raises(MalformedRequest, match="fleet.packet_epochs"):
            replace(scenario, devices=(fleet,)).validate()


class TestIgnoredFieldsRejected:
    """A household run tracks no reference, and a random-walk renewable
    draws its own values, so a scenario that sets either is refused, from a
    file or built in Python, rather than run with the field ignored."""

    @pytest.mark.parametrize("devices", ["reference_evening", "no_devices"])
    def test_household_reference_rejected(self, devices):
        base = three_household_scenario(seed=1)
        if devices == "no_devices":
            base = replace(base, devices=())
        base.validate()
        doc = scenario_to_dict(base)
        doc["reference"] = {"values_w": [1000.0] * 4}
        with pytest.raises(MalformedRequest, match="reference"):
            scenario_from_dict(doc)
        with pytest.raises(MalformedRequest, match="reference"):
            replace(base, reference=ReferenceSignal.constant(1000.0, 4)).validate()

    @pytest.mark.parametrize("values_w", [(0.0,) * 10, (), (500.0,)])
    def test_random_walk_values_rejected(self, values_w):
        base = three_household_scenario(seed=1)
        assert base.renewable.kind == "random_walk" and base.renewable.values_w is None
        doc = scenario_to_dict(base)
        doc["renewable"]["values_w"] = list(values_w)
        with pytest.raises(MalformedRequest, match="values_w"):
            scenario_from_dict(doc)
        renewable = replace(base.renewable, values_w=values_w)
        with pytest.raises(MalformedRequest, match="values_w"):
            renewable.validate()
        with pytest.raises(MalformedRequest, match="values_w"):
            replace(base, renewable=renewable).validate()

    @pytest.mark.parametrize("field, value", [
        ("mean_w", 9e6), ("volatility_w", 4e5), ("mean_w", 0.0), ("volatility_w", 600.5),
    ])
    def test_trace_walk_parameters_rejected(self, field, value):
        """A trace draws nothing, so it refuses a walk parameter other than
        its default. The codec writes the defaults for every block, so a
        saved trace scenario still loads, and an explicit default passes."""
        base = fleet_scenario(count=20, hours=1.0, seed=3)
        assert base.renewable.kind == "trace"
        doc = scenario_to_dict(base)
        assert scenario_from_dict(doc) == base
        replace(base.renewable, mean_w=3000, volatility_w=600.0).validate()
        doc["renewable"][field] = value
        with pytest.raises(MalformedRequest, match=field):
            scenario_from_dict(doc)
        renewable = replace(base.renewable, **{field: value})
        with pytest.raises(MalformedRequest, match=field):
            renewable.validate()
        with pytest.raises(MalformedRequest, match=field):
            replace(base, renewable=renewable).validate()


class TestSubstream:
    def test_stable_and_independent(self):
        a = substream(42, "renewable")
        b = substream(42, "renewable")
        c = substream(42, "server")
        seq_a = [a.random() for _ in range(5)]
        assert seq_a == [b.random() for _ in range(5)]
        assert seq_a != [c.random() for _ in range(5)]

    # every label path the package derives a stream from
    LABELS = [
        *(("msg", i) for i in range(20)),
        *(("device", d, use) for d in ("sauna", "ev", "dishwasher") for use in ("init", "retry")),
        ("renewable",), ("server",), ("trip",),
        ("fleet", "init"), ("fleet", "requests"), ("fleet", "draws"),
    ]

    @pytest.mark.parametrize("seed", range(1, 51))
    def test_equals_random_seeded_with_the_digest(self, seed):
        # substream skips the Random.__init__ / Random.seed wrappers; its
        # stream must be the one random.Random(n) builds, gauss_next included
        for labels in self.LABELS:
            key = ":".join([str(seed), *map(str, labels)]).encode()
            expected = random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))
            got = substream(seed, *labels)
            assert got.getstate() == expected.getstate()
            # gauss caches its second value in gauss_next (random_walk_trace)
            assert [got.gauss(0.0, 1.0) for _ in range(5)] == [
                expected.gauss(0.0, 1.0) for _ in range(5)
            ]
