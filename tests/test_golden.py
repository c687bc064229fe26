"""Byte-identity gate: the SHA-256 of every bundle file for a fixed set of
runs. A change that is meant to keep outputs byte-identical must pass this
file unchanged; a change that alters outputs on purpose updates the digests
and says why.

The cases cover the reference evening (seeds 1, 87, 1652 and 1764; the
latter two are where the EV's forced start rounds at the 1 Wh completion
slack), the reference evening without channels and with the sauna's force
check at its service start (the thermal-fault repro), two generated
feeders that hold two thermal jobs each, an islanded generated feeder whose
battery, thermal job and cycle are all shed as forced grants, a generated
feeder whose thermal job fails and keeps cooling, a heater fleet on a
constant reference, a heater fleet whose reference steps around its natural
demand (so the loop reaches force-on, force-off, a budget short of the
requests, a gap no request fills and a surplus of heaters already on), the
reference evening over a lossy single-attempt meter channel, whose
channel.csv holds dropped rows and trip-signal rows, and the reference
evening over slow lossy channels (every mean delay 20 000x, loss 0.2; seed
155 is the first seed where a request, a grant and a trip signal each need
more than one attempt and a decision arrives more than a slot late).

Three cases start their thermal nodes above ambient, so an unheated node
cools slot by slot and the temperature in each node's first request depends
on every unheated step before it (a node at ambient holds still): a
generated feeder 15 C above ambient and one at 80 C (in both, the node
cools until its first request, at slot 5 and at slot 10, and again after
its service ends), and the slow lossy evening with the sauna 15 C above
ambient. In the two feeders the temperature of that first request moves
the admitted forced start, which requests.csv records.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from pemsim.cli import write_bundle
from pemsim.engine import run_scenario, summarize_run
from pemsim.scenario import ThermalConfig, fleet_scenario, load_scenario
from pemsim.server import ReferenceSignal
from scenario_gen import random_household_scenario

REFERENCE_FILE = Path(__file__).resolve().parent.parent / "scenarios" / "three_household.json"


def _reference(seed):
    return replace(load_scenario(REFERENCE_FILE), seed=seed)


def _late_force_check(seed):
    scenario = _reference(seed)
    devices = tuple(
        replace(d, force_check_at=d.service_start) if isinstance(d, ThermalConfig) else d
        for d in scenario.devices
    )
    return replace(scenario, channels=None, devices=devices)


def _lossy_meter(seed):
    scenario = _reference(seed)
    meter = replace(scenario.channels["meter"], loss_prob=0.3, max_attempts=1)
    return replace(scenario, channels={**scenario.channels, "meter": meter})


def _slow_lossy_channels(seed):
    scenario = _reference(seed)
    slow = {
        name: replace(profile, mean_ms=profile.mean_ms * 20000, loss_prob=0.2)
        for name, profile in scenario.channels.items()
    }
    return replace(scenario, channels=slow)


def _thermal_start(scenario, initial_c):
    """The scenario with each thermal node starting at initial_c(config)."""
    return replace(scenario, devices=tuple(
        replace(d, initial_c=initial_c(d)) if isinstance(d, ThermalConfig) else d
        for d in scenario.devices
    ))


def _warm(scenario):
    return _thermal_start(scenario, lambda d: d.ambient_c + 15.0)


def _stepped_fleet(seed):
    """300 heaters over 4 h whose reference steps every hour between 1.0 and
    2.2 kW per heater, around their natural demand of about 1.5 kW."""
    values = tuple(300 * (2200.0 if (e // 20) % 2 else 1000.0) for e in range(80))
    return fleet_scenario(count=300, reference_w=ReferenceSignal(values_w=values), hours=4.0, seed=seed)


CASES = {
    "reference_1": lambda: _reference(1),
    "reference_87": lambda: _reference(87),
    "reference_1652": lambda: _reference(1652),
    "reference_1764": lambda: _reference(1764),
    "late_force_check_87": lambda: _late_force_check(87),
    "lossy_meter_1": lambda: _lossy_meter(1),
    "slow_lossy_channels_155": lambda: _slow_lossy_channels(155),
    "warm_slow_lossy_channels_155": lambda: _warm(_slow_lossy_channels(155)),
    "feeder_5": lambda: random_household_scenario(5),
    "feeder_9": lambda: random_household_scenario(9),
    "feeder_16": lambda: random_household_scenario(16),
    "warm_feeder_71": lambda: _warm(random_household_scenario(71)),
    "hot_feeder_8": lambda: _thermal_start(random_household_scenario(8), lambda d: 80.0),
    "islanded_feeder_3": lambda: random_household_scenario(3, import_allowed=False),
    "fleet_200": lambda: fleet_scenario(count=200, hours=2.0, seed=1),
    "stepped_fleet_1": lambda: _stepped_fleet(1),
}

# Recorded before the replace-free thermal planning and device steps;
# feeder_16 and islanded_feeder_3 before the household jobs kept their state
# as floats; lossy_meter_1 before the bundle writer formatted rows by
# template; stepped_fleet_1 before the fleet loop stepped and classified a
# heater in one pass; slow_lossy_channels_155 before the channel layer,
# substream seeding and the channel.csv writer lost their per-message
# overhead; hot_feeder_8, warm_feeder_71 and warm_slow_lossy_channels_155
# before unheated thermal nodes were stepped lazily.
DIGESTS = {
    "feeder_5": {
        "channel.csv": "247f7ab28667c85e8555823a7090337e4cedf09a348d1a1d72caccc2d259e611",
        "requests.csv": "b1468e5b2927b9e867fcc725bfca2966644cadb28c0ffb9fbc4f9dfdecd88b6b",
        "slots.csv": "1fad33b504bd2143233ffe3dcf5968da8a97886535fa61ae20cf030f377eced7",
        "summary.json": "e926e77532e7582ce1382d5f6576cb0264e477bf27cc8b2e0bf936c95c15caae",
    },
    "feeder_9": {
        "channel.csv": "247f7ab28667c85e8555823a7090337e4cedf09a348d1a1d72caccc2d259e611",
        "requests.csv": "57f861d33bc699374f5e45a4b861ea2765b823700f5729570387398c93acd59b",
        "slots.csv": "452879e992a78d9e9d2ae6bd038e98e0071bc06f07a8ad8eca78e8e7e8c6d06d",
        "summary.json": "f88133803e0d895e725961a6130885a01929d765de64b026eb979fa3ff115799",
    },
    "feeder_16": {
        "channel.csv": "247f7ab28667c85e8555823a7090337e4cedf09a348d1a1d72caccc2d259e611",
        "requests.csv": "136977d7b2c4b56d096ecf3c2b9a12e59c23271e326ae6ae66bb4005eaa3f1e0",
        "slots.csv": "4182682b6ba4c3bcc32da62960a57eeac3ac2f3aabca7aced650d597d86e4a46",
        "summary.json": "61111c8c6438f1bf5fac54b6f90507805258e806f80428deef53ef7405dace5a",
    },
    "fleet_200": {
        "channel.csv": "247f7ab28667c85e8555823a7090337e4cedf09a348d1a1d72caccc2d259e611",
        "fleet.csv": "b4948a1a736195bf46e326bb9bdcae5822df8f39fa423e04a7959eab5f4ecf7f",
        "requests.csv": "d0409a80b639d5d1c10de89a414e3474c0f94fb513f12e3511f58c544da0188b",
        "slots.csv": "7c13eb85f4470aa743d01d53bf67ec13142306cef7c10dac3820503cebfcf4dc",
        "summary.json": "0016339f17411beb56aaf07aa79d66d5c6dfc234a7123803033ff9062f35f3f6",
    },
    "warm_feeder_71": lambda: _warm(random_household_scenario(71)),
    "hot_feeder_8": lambda: _thermal_start(random_household_scenario(8), lambda d: 80.0),
    "hot_feeder_8": {
        "channel.csv": "247f7ab28667c85e8555823a7090337e4cedf09a348d1a1d72caccc2d259e611",
        "requests.csv": "e813570a137ef4df9a58d9c8be8ab4849f1cd1de468c02a047a8f69cbda8a0d2",
        "slots.csv": "d4c08163697a4aa52db2877fed661918a4914e197c1941ef5eb8042314d63b81",
        "summary.json": "456461820f69083d32a5f32d9182351ba446ddcab2cf7e1cf6dd31854bb4240c",
    },
    "islanded_feeder_3": {
        "channel.csv": "247f7ab28667c85e8555823a7090337e4cedf09a348d1a1d72caccc2d259e611",
        "requests.csv": "783e8006ff1b89ebd7d041ebe0a129dd434cf6a7f22af6fde094781b40b845d3",
        "slots.csv": "cfc506f4e19d9c0090b498873423eddf8b45dd4b7465cca690e00232a741a7eb",
        "summary.json": "4098ef35278fff9fa4a177462c333305a37a7b9834ee2876c55986a0cfaa8b98",
    },
    "late_force_check_87": {
        "channel.csv": "247f7ab28667c85e8555823a7090337e4cedf09a348d1a1d72caccc2d259e611",
        "requests.csv": "4c4672c07ee22a8449faafcdc9490ac533600aeb69015f3b721ffbd0821e1e0c",
        "slots.csv": "72e5b5d78aa1adc116fabf68f1c8be65543bf51049f15174817c1f053c28c727",
        "summary.json": "382876c6e5fa66ac9ea46c8fecaa26d0d7e6ec64095144bcd3894cefe93a8d8e",
    },
    "lossy_meter_1": {
        "channel.csv": "1e0503c669fe2bb03a886735702b0b118e5d7e2d8349a3a66bff12f71fa5c0b3",
        "requests.csv": "27e9b830f34daf41e7680d43e0282a9c5809ecbcc985df20748ba4dc5986466f",
        "slots.csv": "8bb681feb768a90cab97dd10d8e91cce4e97660bcc30a0b1fd961aa2f608269f",
        "summary.json": "581ccf8ad7daf5b8562cb34196967cc023ed0eafdd10139e5a8679ce7c6dcc10",
    },
    "reference_1": {
        "channel.csv": "0842b6f0529bc341ca024893fa99f234e6dc504d1f889d305a06cd730d8a5dcd",
        "requests.csv": "27e9b830f34daf41e7680d43e0282a9c5809ecbcc985df20748ba4dc5986466f",
        "slots.csv": "8bb681feb768a90cab97dd10d8e91cce4e97660bcc30a0b1fd961aa2f608269f",
        "summary.json": "3b62badb97177221d37283757dcf9e200fc4ae575f2599e3bfbfab1f2c6dae12",
    },
    "reference_1652": {
        "channel.csv": "4cf081fccbb58151db849849e5e39d653226f7d01459f683a69e5e861207de1e",
        "requests.csv": "3a6a5de00d280b53fed8b25c73c96a8550cc8bc2d54a78f8dceff95b67ecf3aa",
        "slots.csv": "4c077bade8186aea5daf99975750b54d098577a3c82bf7838c8e413c41bf709c",
        "summary.json": "e4a140445f8b3a394292d983e668bd59ecf815971b0b7b1e95924f3b29eea56c",
    },
    "reference_1764": {
        "channel.csv": "bad79ef3ecd42690585a093db7a1b97e2453ec960cee4c0300971fdfbf2f190f",
        "requests.csv": "e2b4fb62cb4117dcdcae68747384232d0b1f2563d236ea43d5a3647ab7496c0a",
        "slots.csv": "d5a8bf07e5ea6069ddbe1335944566a99f71aef525c1dc52c2ff37997e4db9a8",
        "summary.json": "eed88df52ff64a92166de90f203dd67d264bd240b6c0007aa81eadb628d01c6c",
    },
    "reference_87": {
        "channel.csv": "7affe3b086ba18f835de9403a653bfcebcec0c1e1a8e1c17276bd7b3a4fa737c",
        "requests.csv": "5d7f1ca83768bc10da1765ad4e8b433e24ff55989e7bf9612ff8c92a8566ca50",
        "slots.csv": "92f97435c031a1add7bd79793d874821fa23f20aeff54b076bb6b30848ab172a",
        "summary.json": "e0db8d52b97ec6fd28a3cad51d59272e1a4051dace48ec33a85c06310805064f",
    },
    "slow_lossy_channels_155": {
        "channel.csv": "cd25eb26afb6b0c6292e55616c25131b4162e177c70758907416e089e263ebcb",
        "requests.csv": "afc3b46185c9c0a60a93ea5e93a2f4509d196e751a17dfe903af3645241d0d65",
        "slots.csv": "b275216d21590ffb761884ea24a1e295525c9587dbb92ebf2e0a8ea0dbab5b6b",
        "summary.json": "c4d3a5704394dd26523dc799cf7a64eada19deb5839473e06707868ab824f246",
    },
    "stepped_fleet_1": {
        "channel.csv": "247f7ab28667c85e8555823a7090337e4cedf09a348d1a1d72caccc2d259e611",
        "fleet.csv": "b4a98a3a689347716513870249691e45687334308104f92e300b1baf4bf82462",
        "requests.csv": "d0409a80b639d5d1c10de89a414e3474c0f94fb513f12e3511f58c544da0188b",
        "slots.csv": "1f1cd35787d0895a0df12f50caa301b595455f933589087c2e2314d2df32ec78",
        "summary.json": "1f1e80dab71a50fe569d3eaac51b1c632ed86082a742c375fd2d3b07122b936c",
    },
    "warm_feeder_71": {
        "channel.csv": "247f7ab28667c85e8555823a7090337e4cedf09a348d1a1d72caccc2d259e611",
        "requests.csv": "49255358aef641b194e14f477df948c59362a69fb068357302272f7ce011eec8",
        "slots.csv": "8eabc6e7a3a1313f7e2c477829a306b1f3c709938cd232f040c43164ce6c89ad",
        "summary.json": "1ec59a873ffc6c40910e9770319e6205da23966abf01216580b4d1e34ef90237",
    },
    "warm_slow_lossy_channels_155": {
        "channel.csv": "cd25eb26afb6b0c6292e55616c25131b4162e177c70758907416e089e263ebcb",
        "requests.csv": "62e0b1589d08cf36ee971dbea31c403a0a2402309eeecfc81e3e0dba921778cc",
        "slots.csv": "01f1d1319f529ce9d55db2719f2177f40ea3b0333540d6ea45c61a4c439bfc1b",
        "summary.json": "bbc391a48df0cd10be7757a279ef01950aa89f853ca67b696cd90d16bbd34a00",
    },
}


def bundle_digests(scenario, out_dir):
    write_bundle(run_scenario(scenario), out_dir)
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(out_dir).iterdir())
    }


def test_cases_hold_what_they_claim():
    assert sum(isinstance(d, ThermalConfig) for d in CASES["feeder_5"]().devices) == 2
    assert sum(isinstance(d, ThermalConfig) for d in CASES["feeder_9"]().devices) == 2
    sauna = next(d for d in CASES["late_force_check_87"]().devices if d.device_id == "sauna")
    assert sauna.force_check_at == sauna.service_start
    lossy = run_scenario(CASES["lossy_meter_1"]()).channel
    assert any(m.delivered_at_ms is None for m in lossy)
    assert any(m.kind.value == "trip_signal" for m in lossy)
    slow = run_scenario(CASES["slow_lossy_channels_155"]())
    retried = {m.kind.value for m in slow.channel if m.attempts > 1}
    assert {"packet_request", "grant", "trip_signal"} <= retried
    # over fast channels a decision lands exactly two slots after its
    # request (request, then grant, each delivered at the next boundary)
    assert any(o.decided_slot > o.issued_slot + 2 for o in slow.requests)
    assert summarize_run(slow)["budget_violation_rates"]
    islanded = run_scenario(CASES["islanded_feeder_3"]())
    forced_kinds = {
        o.kind for o in islanded.requests
        if o.shed and any(e.device_id == o.device_id and e.forced for e in islanded.shed_events)
    }
    assert forced_kinds == {"battery", "thermal", "cycle"}
    cooling = run_scenario(CASES["feeder_16"]())
    (thermal,) = [o for o in cooling.requests if o.kind == "thermal"]
    assert thermal.service_failed and len(cooling.device_traces[thermal.device_id]) == cooling.grid.horizon
    for name in ("warm_feeder_71", "hot_feeder_8", "warm_slow_lossy_channels_155"):
        scenario = CASES[name]()
        nodes = [d for d in scenario.devices if isinstance(d, ThermalConfig)]
        assert nodes and all(d.initial_c > d.ambient_c for d in nodes)
        # every node is unheated in slot 0 and accepted, one is unheated
        # before its first request, and one is heated
        result = run_scenario(scenario)
        assert all(result.slots[0].consumed_w[d.device_id] == 0.0 for d in nodes)
        assert all(o.accepted for o in result.requests if o.kind == "thermal")
        assert any(d.preheat_from > 1 for d in nodes)
        assert any(r.consumed_w[d.device_id] > 0 for r in result.slots for d in nodes)
    for name, preheat_from in (("warm_feeder_71", 5), ("hot_feeder_8", 10)):
        scenario = CASES[name]()
        (node,) = [d for d in scenario.devices if isinstance(d, ThermalConfig)]
        assert node.preheat_from == preheat_from and node.service_end < scenario.grid.horizon
    stepped = _stepped_fleet(1)
    rated_w = stepped.devices[0].params.rated_w
    epochs = run_scenario(stepped).fleet
    assert any(r.force_on for r in epochs) and any(r.force_off for r in epochs)
    assert any(r.accepted < r.requests for r in epochs)
    assert any(r.accepted == r.requests and r.reference_w - r.aggregate_w >= rated_w for r in epochs)
    assert any(r.aggregate_w > r.reference_w for r in epochs)


@pytest.mark.parametrize("name", sorted(CASES))
def test_bundle_bytes_are_pinned(tmp_path, name):
    assert bundle_digests(CASES[name](), tmp_path) == DIGESTS[name]
