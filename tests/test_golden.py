"""Golden lock: every scenario's observable output, pinned by sha256.

For each registered scenario at each seed in ``SEEDS`` the lock pins
four digests: the report JSON, the concatenated capture JSONL of every
world the scenario builds, the concatenated cloud registry snapshots of
those worlds, and the stdout of ``provlab decode --unmask`` on that
capture.  A refactor that keeps behaviour leaves every digest unchanged.

A change that alters behaviour on purpose regenerates the file and says
why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from provlab import cli, scenarios

GOLDEN_PATH = Path(__file__).with_name("golden.json")
SEEDS = (0, 2026)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _decode_stdout(capture: str) -> str:
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(capture)
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            cli.main(["decode", path, "--unmask"])
        return out.getvalue()
    finally:
        os.unlink(path)


def digests(name: str, seed: int, monkeypatch) -> dict[str, str]:
    """Run one scenario with ``build_world`` wrapped so every world it
    builds is kept, then hash what the run left behind."""
    worlds = []
    build_world = scenarios.build_world

    def recording_build_world(*args, **kwargs):
        world = build_world(*args, **kwargs)
        worlds.append(world)
        return world

    monkeypatch.setattr(scenarios, "build_world", recording_build_world)
    report = scenarios.run_scenario(name, seed)
    capture = "".join(w.sim.capture.to_jsonl() for w in worlds)
    return {
        "report": _sha(report.to_json()),
        "capture": _sha(capture),
        "registry": _sha("".join(w.cloud.registry.to_json() for w in worlds)),
        "decode": _sha(_decode_stdout(capture)),
    }


def _key(name: str, seed: int) -> str:
    return f"{name}@{seed}"


CASES = [(name, seed) for name in sorted(scenarios.SCENARIOS) for seed in SEEDS]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_scenario(golden):
    assert sorted(golden) == sorted(_key(n, s) for n, s in CASES)


@pytest.mark.parametrize("name,seed", CASES)
def test_scenario_output_matches_golden(name, seed, golden, monkeypatch):
    assert digests(name, seed, monkeypatch) == golden[_key(name, seed)]


def _regenerate() -> None:
    out = {}
    for name, seed in CASES:
        with pytest.MonkeyPatch.context() as monkeypatch:
            out[_key(name, seed)] = digests(name, seed, monkeypatch)
    GOLDEN_PATH.write_text(json.dumps(out, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(out)} entries to {GOLDEN_PATH}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
