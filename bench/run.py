"""provlab benchmark: one workload, one seed, one line of JSON results.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                         [--out results.jsonl] [--spans spans.jsonl]

Run from the root of a checkout.  With ``--trace 0`` the last line of
standard output carries the end-to-end metrics; with ``--trace 1`` the
run measures half its time untraced and half with every provlab module
wrapped, and the last line carries the per-module metrics.  The line
before it carries the run's metadata.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    import provlab
    import gen
    import tracing
    from hostspeed import HostSpeed
    from workloads import SCENARIO_NAMES, WORKLOADS, Tally
except ImportError as exc:
    print(f"cannot import provlab from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)
if Path(provlab.__file__).resolve().parent != ROOT / "src" / "provlab":
    # measure the checkout's own sources, never an installed copy
    print(f"provlab was imported from {provlab.__file__}, not {ROOT / 'src'}", file=sys.stderr)
    sys.exit(2)

SETUP_REPEATS = 3

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("op_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("outcome_ratio", "ratio", "higher"),
]


def per_layer_specs() -> list[tuple[str, str, str]]:
    """Every per-module metric of a traced run: (name, unit, better)."""
    specs = []

    def add(names, unit, better):
        specs.extend((name, unit, better) for name in names)

    add(["netsim.broadcast.calls"], "1/op", "lower")
    add(["netsim.broadcast.self_ms"], "ms/op", "lower")
    add(["netsim.broadcast.deliveries_per_call"], "ratio", "lower")
    add(["netsim.broadcast.drops", "netsim.broadcast.dups", "netsim.capture.entries",
         "netsim.stream_send.calls"], "1/op", "lower")
    add(["netsim.stream_send.self_ms"], "ms/op", "lower")
    add(["netsim.parse_jsonl.lines"], "1/op", "lower")
    add(["netsim.parse_jsonl.self_ms"], "ms/op", "lower")
    add(["dpl.feed.calls"], "1/op", "lower")
    add(["dpl.feed.self_ms"], "ms/op", "lower")
    add(["dpl.finalize.calls"], "1/op", "lower")
    add(["dpl.finalize.self_ms"], "ms/op", "lower")
    add(["dpl.finalize.complete_at_finalize"], "1/op", "higher")
    add(["dpl.crc8.calls"], "1/op", "lower")
    add(["dpl.crc8.self_ms", "dpl.encode.self_ms"], "ms/op", "lower")
    add([f"dpl.recovered.{cell}" for cell in gen.CELLS], "ratio", "higher")
    add([f"dpl.wrong.{cell}" for cell in gen.CELLS], "count", "lower")
    add(["stego.make_bmp.calls"], "1/op", "lower")
    add(["stego.make_bmp.self_ms"], "ms/op", "lower")
    add(["stego.extract.hit_ms", "stego.extract.miss_ms"], "ms", "lower")
    add(["stego.extract.miss_calls"], "1/op", "lower")
    add(["stego.embed.self_ms"], "ms/op", "lower")
    add(["signing.sign.calls"], "1/op", "lower")
    add(["signing.sign.self_ms", "signing.verify.self_ms", "signing.seal.self_ms",
         "signing.open.self_ms", "protocol.canonicalize.self_ms",
         "protocol.encode_frame.self_ms"], "ms/op", "lower")
    add(["protocol.frame_push.calls"], "1/op", "lower")
    add(["protocol.frame_push.self_ms", "protocol.token_check.self_ms"], "ms/op", "lower")
    add(["cloud.post.calls"], "1/op", "lower")
    add(["cloud.post.self_ms"], "ms/op", "lower")
    add([f"cloud.verdict.{v}" for v in tracing.VERDICTS], "1/op", "lower")
    add(["cloud.relay.self_ms", "device.idle.self_ms"], "ms/op", "lower")
    add(["device.command.calls"], "1/op", "lower")
    add(["device.command.self_ms", "provisioner.provision.self_ms"], "ms/op", "lower")
    add(["provisioner.provision.polls_per_call"], "ratio", "lower")
    add(["provisioner.broadcast.self_ms"], "ms/op", "lower")
    add(["provisioner.broadcast.frames"], "1/op", "lower")
    add(["provisioner.control.self_ms"], "ms/op", "lower")
    add(["proxy.relay.calls"], "1/op", "lower")
    add(["proxy.relay.self_ms", "proxy.provision_isolated.self_ms",
         "scenarios.build_world.self_ms"], "ms/op", "lower")
    add([f"scenarios.{name}.ms" for name in SCENARIO_NAMES], "ms", "lower")
    add(["cli.decode.ms"], "ms", "lower")
    add(["cli.decode.lines_per_s"], "1/s", "higher")
    add(["cli.rkeys.ms"], "ms", "lower")
    add(["cli.rkeys.miss_calls"], "1/op", "lower")
    add(["attack.keyhunt_ms_p50"], "ms", "lower")
    add(["trace.overhead_pct"], "%", "lower")
    return specs


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (exclusive method) of at least two values."""
    return statistics.quantiles(values, n=100)[q - 1]


def measure(workload, seconds: float, host: HostSpeed) -> Tally:
    """Run steps for ``seconds``; scale each step's latencies by the host
    speed sampled just before and after it."""
    tally = Tally()
    first_sample = host.sample()
    steps = []  # (first op of the step, last sample taken before it)
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or tally.attempted < 2:
        steps.append((tally.attempted, len(host.samples_ms) - 1))
        workload.step(tally)
        host.sample_if_due()
    last_sample = host.sample()
    ends = [first for first, _ in steps[1:]] + [tally.attempted]
    for (first, before), end in zip(steps, ends):
        scale = host.scale(before - 1, before + 1)
        tally.scaled.extend(s * scale for s in tally.latencies[first:end])
    tally.scale = host.scale(first_sample, last_sample)
    return tally


def timings(tally, latencies: list[float]) -> dict:
    ms = [1000 * s for s in latencies]
    return {
        "op_per_s": tally.attempted / sum(latencies),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": percentile(ms, 90),
    }


def end_to_end(workload, tally, setup_s) -> dict:
    return {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **timings(tally, tally.scaled),
        "outcome_ratio": workload.outcome_ratio(tally),
    }


def per_layer(workload, tracer, untraced, traced) -> dict:
    ops = traced.attempted
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    out = {}
    for name in ("netsim.broadcast", "netsim.stream_send", "dpl.feed", "dpl.finalize",
                 "dpl.crc8", "stego.make_bmp", "signing.sign", "protocol.frame_push",
                 "cloud.post", "device.command", "proxy.relay"):
        out[name + ".calls"] = calls[name] / ops
    for name in ("netsim.broadcast", "netsim.stream_send", "netsim.parse_jsonl",
                 "dpl.feed", "dpl.finalize", "dpl.crc8", "dpl.encode", "stego.make_bmp",
                 "stego.embed", "signing.sign", "signing.verify", "signing.seal",
                 "signing.open", "protocol.canonicalize", "protocol.encode_frame",
                 "protocol.frame_push", "protocol.token_check", "cloud.post",
                 "cloud.relay", "device.idle", "device.command", "provisioner.provision",
                 "provisioner.broadcast", "provisioner.control", "proxy.relay",
                 "proxy.provision_isolated", "scenarios.build_world"):
        out[name + ".self_ms"] = 1000 * traced.scale * self_s[name] / ops
    for name in ("netsim.broadcast.drops", "netsim.broadcast.dups", "netsim.capture.entries",
                 "netsim.parse_jsonl.lines", "dpl.finalize.complete_at_finalize"):
        out[name] = counts[name] / ops
    out["netsim.broadcast.deliveries_per_call"] = (
        counts["netsim.broadcast.deliveries"] / max(calls["netsim.broadcast"], 1))
    out["provisioner.provision.polls_per_call"] = (
        counts["provisioner.provision.polls"] / max(calls["provisioner.provision"], 1))
    out["provisioner.broadcast.frames"] = counts["provisioner.broadcast.frames"] / ops
    for verdict in tracing.VERDICTS:
        out["cloud.verdict." + verdict] = counts["cloud.verdict." + verdict] / ops
    hits, misses = tracer.durations["stego.extract.hit"], tracer.durations["stego.extract.miss"]
    ms = 1000 * traced.scale
    out["stego.extract.hit_ms"] = ms * statistics.median(hits) if hits else 0.0
    out["stego.extract.miss_ms"] = ms * statistics.median(misses) if misses else 0.0
    out["stego.extract.miss_calls"] = len(misses) / ops

    # timings taken from outside the program come from the untraced half
    ms = 1000 * untraced.scale
    cells = workload.cells()
    for cell in gen.CELLS:
        senders, recovered, wrong = cells.get(cell, (0, 0, 0))
        out[f"dpl.recovered.{cell}"] = recovered / senders if senders else 0.0
        out[f"dpl.wrong.{cell}"] = wrong
    for name in SCENARIO_NAMES:
        runs = untraced.samples["scenario:" + name]
        out[f"scenarios.{name}.ms"] = ms * statistics.median(runs) if runs else 0.0
    for name, sample in (("cli.decode.ms", "decode"), ("cli.rkeys.ms", "rkeys"),
                         ("attack.keyhunt_ms_p50", "keyhunt")):
        runs = untraced.samples[sample]
        out[name] = ms * statistics.median(runs) if runs else 0.0
    busy = untraced.scale * sum(untraced.samples["decode"])
    out["cli.decode.lines_per_s"] = untraced.counts["lines"] / busy if busy else 0.0
    out["cli.rkeys.miss_calls"] = traced.counts["rkeys_miss"] / ops
    rate_untraced = untraced.attempted / sum(untraced.scaled)
    rate_traced = traced.attempted / sum(traced.scaled)
    out["trace.overhead_pct"] = 100 * (rate_untraced / rate_traced - 1)
    return out


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_benchmark(name: str, seed: int, seconds: float, trace_on: bool,
                  tiny: bool = False, spans_path=None) -> dict:
    """Set up, measure and check one workload.

    Returns the result object and the raw (unscaled) timings.
    """
    host = HostSpeed()
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=scratch))
    try:
        workload = WORKLOADS[name](seed, workdir, tiny=tiny)
        setup_raw, setup_s = [], []
        for _ in range(SETUP_REPEATS):
            workload.release()
            gc.collect()
            before = host.sample()
            t0 = perf_counter()
            workload.setup()
            setup_raw.append(perf_counter() - t0)
            setup_s.append(setup_raw[-1] * host.scale(before, host.sample()))
        gc.collect()
        if not trace_on:
            tally = measure(workload, seconds, host)
            workload.finish()
            phases = [tally]
            metrics = end_to_end(workload, tally, setup_s)
        else:
            untraced = measure(workload, seconds / 2, host)
            tracer = tracing.Tracer().install()
            try:
                traced = measure(workload, seconds / 2, host)
            finally:
                tracer.uninstall()
            workload.finish()
            phases = [untraced, traced]
            metrics = per_layer(workload, tracer, untraced, traced)
            if spans_path:
                tracer.write_spans(spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.attempted for p in phases) + workload.setup_checks
    failed = sum(p.failed for p in phases) + workload.setup_failures
    specs = per_layer_specs() if trace_on else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": unit} for n, unit, _ in specs},
    }
    raw = {"setup_s": statistics.median(setup_raw), "ref_ms": statistics.median(host.samples_ms)}
    raw.update(timings(phases[0], phases[0].latencies))
    return result, raw


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result and its metadata to this JSONL file")
    parser.add_argument("--spans", help="traced runs: write every span to this JSONL file")
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result, raw = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                                spans_path=args.spans)
    meta = metadata(args)
    meta["raw"] = raw
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "result": result}, sort_keys=True) + "\n")
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
