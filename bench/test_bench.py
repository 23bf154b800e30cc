"""Self-tests of the benchmark: generators, metric lists, smoke runs, loss grid.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, CaptureDecode  # noqa: E402

from provlab.netsim import CaptureLog  # noqa: E402
from provlab.stego import MagicMismatch, parse_bmp, stego_extract  # noqa: E402

# the seed at which the loss frontier is recorded
GRID_SEED = 2026


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_capture_lines_are_netsim_jsonl(tmp_path):
    f = gen.write_capture(tmp_path / "c.jsonl", 1, (0.3, 0.1, 5), 0)
    text = f.path.read_text()
    entries = CaptureLog.parse_jsonl(text)
    assert len(entries) == f.lines
    assert {e.kind for e in entries} == {"bcast", "deliver", "drop", "stream"}
    assert "".join(json.dumps(e.to_json(), sort_keys=True) + "\n" for e in entries) == text


def test_same_seed_gives_identical_captures(tmp_path):
    a = gen.write_capture_set(tmp_path / "a", 7, 1)
    b = gen.write_capture_set(tmp_path / "b", 7, 1)
    c = gen.write_capture_set(tmp_path / "c", 8, 1)
    assert len(a) == len(gen.GRID)
    assert [f.path.read_bytes() for f in a] == [f.path.read_bytes() for f in b]
    assert [f.path.read_bytes() for f in a] != [f.path.read_bytes() for f in c]


def test_same_seed_gives_identical_bundles(tmp_path):
    a = gen.write_bundle(tmp_path / "a", 7, "k" * 32)
    b = gen.write_bundle(tmp_path / "b", 7, "k" * 32)
    c = gen.write_bundle(tmp_path / "c", 8, "k" * 32)
    assert [p.read_bytes() for p in a.paths] == [p.read_bytes() for p in b.paths]
    assert [p.read_bytes() for p in a.paths] != [p.read_bytes() for p in c.paths]


def test_bundle_hides_the_key_in_exactly_one_asset(tmp_path):
    key = "4j8vqy4egph3thd7fdchk435hjudwsey"
    bundle = gen.write_bundle(tmp_path, 3, key)
    for i, path in enumerate(bundle.paths):
        image = parse_bmp(path.read_bytes())
        if i == bundle.hit:
            record, _ = stego_extract(image, bundle.seed_str)
            assert record.keys == [key.encode()]
        else:
            with pytest.raises(MagicMismatch):
                stego_extract(image, bundle.seed_str)


def test_benchmark_json_names_what_run_prints():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_specs()


@pytest.mark.parametrize("trace_on", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_smoke_run_has_no_failure(workload, trace_on):
    result, raw = run.run_benchmark(workload, 3, 0.2, trace_on, tiny=True)
    assert raw["ref_ms"] > 0 and raw["op_per_s"] > 0
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] >= 2
    key = "per_layer" if trace_on else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in _spec()[key]]
    if not trace_on:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_loss_grid_has_no_wrong_completion(tmp_path):
    workload = CaptureDecode(GRID_SEED, tmp_path)
    workload.setup()
    workload.finish()
    cells = workload.cells()
    assert set(cells) == set(gen.CELLS)
    for cell, (senders, recovered, wrong) in cells.items():
        assert senders > 0, cell
        assert wrong == 0, f"{cell}: {wrong} wrong-credential completions"
    # the lossless-enough corner always recovers, the hopeless one never does
    assert cells["drop0.1-dup0-r16"][1] == cells["drop0.1-dup0-r16"][0]
    assert cells["drop0.5-dup0-r1"][1] == 0
