import gc
import json
import weakref
from dataclasses import FrozenInstanceError, fields
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from provlab import scenarios
from provlab.netsim import LossModel, SimClock, Simulation
from provlab.stego import BmpImage, make_bmp


@pytest.fixture
def sims(monkeypatch):
    """Weak references to the simulation of every world built from here on."""
    refs = []
    build_world = scenarios.build_world

    def recording_build_world(*args, **kwargs):
        world = build_world(*args, **kwargs)
        refs.append(weakref.ref(world.sim))
        return world

    monkeypatch.setattr(scenarios, "build_world", recording_build_world)
    gc.collect()
    return refs


def test_a_finished_scenario_frees_its_world(sims):
    # back-to-back runs hold one world at a time, not one per run until the
    # oldest generation is next collected
    for name in sorted(scenarios.SCENARIOS):
        scenarios.run_scenario(name, 0)
        assert [ref() for ref in sims] == [None] * len(sims), name


def test_a_failed_scenario_still_frees_its_world(sims, monkeypatch):
    def broken(report, world):
        scenarios._device(world, "bulb-01")  # a listener: its handlers form cycles
        raise RuntimeError("body failed")

    monkeypatch.setitem(scenarios.SCENARIOS, "broken", None)  # deleted again on undo
    scenarios._scenario("broken")(broken)  # files its runner over the placeholder
    with pytest.raises(RuntimeError, match="body failed"):
        scenarios.run_scenario("broken", 0)
    assert len(sims) == 1
    assert [ref() for ref in sims] == [None]


def test_a_closed_world_is_freed_by_reference_counting():
    # the cycles run through device, cloud and proxy handlers, device
    # channels and stream callbacks; close() breaks them all, and the
    # capture stays readable
    gc.collect()
    gc.disable()
    try:
        world = scenarios.build_world(0)
        device = scenarios._device(world, "bulb-01")
        app = scenarios._app(world)
        scenarios._provision(world, app, device)
        app.control_device("bulb-01", {"power": "on"})
        proxy = scenarios._proxy(world, scenarios.ProxyPolicy())
        proxied, _outcome = scenarios._isolated_device(world, proxy, "plug-02")
        proxy.local_control("plug-02", {"power": "on"})
        listening = scenarios._device(world, "lamp-03")  # still on port 30011
        capture = world.sim.capture
        frames, text = capture.frames(), capture.to_jsonl()
        refs = [weakref.ref(obj)
                for obj in (world.sim, world.cloud, device, proxy, proxied, listening)]
        world.sim.close()
        del world, device, app, proxy, proxied, listening
        assert [ref() for ref in refs] == [None] * len(refs)
        assert capture.frames() == frames
        assert capture.to_jsonl() == text
    finally:
        gc.enable()


# every vendor's secret2 is embedded into the one carrier image built at import
@pytest.mark.parametrize("name", [f.name for f in fields(BmpImage)])
def test_the_shared_carrier_cannot_be_changed(name):
    with pytest.raises(FrozenInstanceError):
        setattr(scenarios._CARRIER, name, getattr(scenarios._CARRIER, name))


def test_the_shared_carrier_is_the_fixture_image():
    assert scenarios._CARRIER.to_bytes() == make_bmp(64, 64).to_bytes()


def test_copies_to_counts_what_the_per_copy_records_show():
    # a lossy, dup-heavy capture on two networks whose named receivers do get
    # copies; each named receiver also sends, and a stream runs on one ssid
    sim = Simulation(loss=LossModel(drop_prob=0.3, dup_prob=0.6, seed=12), clock=SimClock())
    members = {"net-a": ["tx-a", "bulb-01", "plug-02", "lamp-03"],
               "net-b": ["plug-02", "tx-b", "bulb-01"]}
    for name in dict.fromkeys(members["net-a"] + members["net-b"]):
        sim.register(name)
    for ssid, names in members.items():
        sim.create_network(ssid, f"password-{ssid}")
        for name in names:
            sim.join(name, ssid, f"password-{ssid}")
    sim.set_stream_handler("plug-02", 6668, lambda end, src: None)
    sim.open_stream("bulb-01", "plug-02", 6668).send(b"status")
    for k in range(40):
        for src, ssid in (("tx-a", "net-a"), ("tx-b", "net-b"), ("plug-02", "net-a"),
                          ("bulb-01", "net-b")):
            sim.broadcast_lengths(src, 30011, [1 + k, 2 + k], ssid)
    dst_on = {"net-a": "plug-02", "net-b": "bulb-01"}
    # the last pairs name two receivers on one ssid, as equal decoy ssids would
    for pairs in (set(dst_on.items()), {("net-a", "plug-02"), ("net-a", "bulb-01")}):
        per_copy = sum(1 for row in sim.capture.rows()
                       if row[5] == "deliver" and (row[1], row[6]) in pairs)
        assert scenarios._copies_to(SimpleNamespace(sim=sim), pairs) == per_copy > 100
    # both named receivers got duplicates and drops, and the stream shares an ssid
    outcomes = [row[7][row[6].index(dst_on[row[1]])] for row in sim.capture.frames()
                if len(row) == 8 and dst_on[row[1]] in row[6]]
    assert {0, 1, 2} <= set(outcomes)
    assert any(len(row) == 7 and row[1] in dst_on for row in sim.capture.frames())


# any code point, lone surrogates and control characters among them
ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=12)
SEEDS = st.integers() | st.sampled_from(
    [-1, 2**63, -(10**4299), 10**4299, 10**4300, -(10**4300), 10**5000])


def _dumps_report(report):
    """The report as ``json.dumps`` writes it, the writer ``to_json`` replaced."""
    return json.dumps(
        {
            "scenario": report.scenario,
            "seed": report.seed,
            "pass": report.passed,
            "steps": [{"expect": s.expect, "observe": s.observe, "pass": s.ok}
                      for s in report.steps],
        },
        sort_keys=True,
        indent=2,
    ) + "\n"


def _text_or_error(write, report):
    try:
        return write(report)
    except ValueError as exc:  # an int past the int-string limit
        return type(exc), str(exc)


class TestReportJson:
    @settings(max_examples=300, deadline=None)
    @given(scenario=ANY_TEXT, seed=SEEDS,
           steps=st.lists(st.tuples(ANY_TEXT, ANY_TEXT, st.booleans()), max_size=4))
    @example(scenario="", seed=0, steps=[])
    @example(scenario="héllo ☃ \U0001f600", seed=-7,
             steps=[("\x00\x1f\x7f\n\t\"\\", "\ud800 \udfff", False)])
    @example(scenario="x", seed=10**4300, steps=[])
    @example(scenario="x", seed=-(10**4299), steps=[("a", "b", True), ("c", "d", True)])
    def test_matches_json_dumps_with_sorted_keys_and_indent_2(self, scenario, seed, steps):
        report = scenarios.ScenarioReport(
            scenario, seed, [scenarios.Step(*step) for step in steps])
        assert (_text_or_error(scenarios.ScenarioReport.to_json, report)
                == _text_or_error(_dumps_report, report))
