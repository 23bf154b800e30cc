"""Run the benchmark over several seeds and collect the results in one file.

    python3 bench/sweep.py --out results.jsonl [--workloads a,b] [--seeds 1-10]
                           [--seconds N] [--trace 0|1]

Each run is a separate ``bench/run.py`` process, one after another, so
runs never compete for the machine.  Defaults come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", args.out]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
            print(f"{workload} seed={seed}: {status} {last[0][:160]}", flush=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
