import gc
import weakref
from dataclasses import FrozenInstanceError, fields

import pytest

from provlab import scenarios
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
