import gc
import weakref

from provlab import scenarios


def test_a_finished_scenario_frees_its_world(monkeypatch):
    # back-to-back runs hold one world at a time, not one per run until the
    # oldest generation is next collected
    sims = []
    build_world = scenarios.build_world

    def recording_build_world(*args, **kwargs):
        world = build_world(*args, **kwargs)
        sims.append(weakref.ref(world.sim))
        return world

    monkeypatch.setattr(scenarios, "build_world", recording_build_world)
    gc.collect()
    for name in sorted(scenarios.SCENARIOS):
        scenarios.run_scenario(name, 0)
        assert [ref() for ref in sims] == [None] * len(sims), name
