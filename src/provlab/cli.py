"""provlab command line.

    provlab scenario <name> --seed N --report out.json
    provlab decode <capture.jsonl> [--unmask]
    provlab r-keys <seed> <file.bmp>
    provlab embed-secret <seed> <key> <in.bmp> <out.bmp>

PROVLAB_SEED in the environment overrides --seed.

``decode`` prints one line per attempt: every unprintable character of a
sender, SSID, passphrase or token is escaped (a newline as ``\\n``), so
a broadcast cannot forge a line of its own.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from . import dpl
from .netsim import CaptureLog
from .scenarios import SCENARIOS, UnknownScenario, run_scenario
from .stego import (
    MagicMismatch,
    StegoError,
    StegoRecord,
    parse_bmp,
    seed_hash,
    stego_embed,
    stego_extract,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2  # the code argparse exits with on a usage error
EXIT_MAGIC_MISMATCH = 2
EXIT_NO_TRAFFIC = 3


@cache  # each parse makes a fresh namespace, so one parser serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="provlab",
        description="EZ-mode provisioning testbed: scenarios, capture decoding, key recovery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scenario = sub.add_parser("scenario", help="run a named deterministic scenario")
    p_scenario.add_argument("name", nargs="?", help="scenario name")
    p_scenario.add_argument("--seed", type=int, default=0)
    p_scenario.add_argument("--report", help="write the JSON report here")
    p_scenario.add_argument("--list", action="store_true", help="list scenario names")

    p_decode = sub.add_parser("decode", help="recover credentials from a capture file")
    p_decode.add_argument("capture", help="capture log in JSONL form")
    p_decode.add_argument("--unmask", action="store_true",
                          help="print the recovered passphrase in the clear")

    p_rkeys = sub.add_parser("r-keys", help="recover hidden keys from a BMP asset")
    p_rkeys.add_argument("seed")
    p_rkeys.add_argument("bmp")

    p_embed = sub.add_parser("embed-secret", help="hide a key inside a BMP asset")
    p_embed.add_argument("seed")
    p_embed.add_argument("key")
    p_embed.add_argument("infile")
    p_embed.add_argument("outfile")
    return parser


def _cmd_scenario(args) -> int:
    if args.list:
        for name in sorted(SCENARIOS):
            print(name)
        return EXIT_OK
    if not args.name:
        print("scenario name required (or --list)", file=sys.stderr)
        return EXIT_FAIL
    seed = args.seed
    env_seed = os.environ.get("PROVLAB_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            print(f"PROVLAB_SEED is not an integer: {env_seed!r}", file=sys.stderr)
            return EXIT_USAGE
    try:
        report = run_scenario(args.name, seed)
    except UnknownScenario:
        print(f"unknown scenario: {args.name}", file=sys.stderr)
        print("known scenarios: " + ", ".join(sorted(SCENARIOS)), file=sys.stderr)
        return EXIT_USAGE
    for step in report.steps:
        mark = "PASS" if step.ok else "FAIL"
        print(f"[{mark}] {step.expect} | observed: {step.observe}")
    print(f"scenario {report.scenario} seed={report.seed}: "
          f"{'PASS' if report.passed else 'FAIL'}")
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return EXIT_FAIL
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_decode(args) -> int:
    try:
        with open(args.capture, "r", encoding="utf-8", newline="") as fh:
            rows = CaptureLog.parse_rows(fh.read(), dpl.PROVISION_PORT)
    except (OSError, ValueError) as exc:
        print(f"cannot read capture: {exc}", file=sys.stderr)
        return EXIT_FAIL
    attempts = dpl.decode_capture(rows)
    if not attempts:
        print("no provisioning traffic on port 30011 in this capture", file=sys.stderr)
        return EXIT_NO_TRAFFIC
    for i, (src, state) in enumerate(attempts):
        if state.phase is not dpl.Phase.COMPLETE:
            print(f"attempt {i}: src={_printable(src)} incomplete")
            continue
        creds = state.credentials
        psk = creds.passphrase if args.unmask else "*" * len(creds.passphrase)
        print(
            f"attempt {i}: src={_printable(src)} ssid={_printable(creds.ssid)} "
            f"passphrase={_printable(psk)} token={_printable(creds.token)}"
        )
    return EXIT_OK


def _printable(text: str) -> str:
    """``text`` with each unprintable character escaped as ``repr`` writes it."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def _cmd_r_keys(args) -> int:
    print(f"opening: {args.bmp}")
    try:
        with open(args.bmp, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        print(f"cannot read file: {exc}", file=sys.stderr)
        return EXIT_FAIL
    print(f"read {len(data)} bytes")
    try:
        image = parse_bmp(data)
        del data  # extraction adds a bit plane; hold two pixel-sized buffers, not three
        record, report = stego_extract(image, args.seed)
    except MagicMismatch as exc:
        print(f"str hash: 0x{seed_hash(args.seed):08x}")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MAGIC_MISMATCH
    except StegoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    print(f"str hash: 0x{report.seed_hash:08x}")
    print(f"keys_cnt: {report.keys_cnt}")
    for i, offs in enumerate(report.offsets):
        print(f"[{i}] offs = 0x{offs:08x}")
    for i, key in enumerate(record.keys):
        print(f"[KEY] [{i}] str: {key.decode('utf-8', errors='replace')}")
    return EXIT_OK


def _cmd_embed(args) -> int:
    try:
        with open(args.infile, "rb") as fh:
            image = parse_bmp(fh.read())
        record = StegoRecord(keys=[args.key.encode("utf-8")])
        out = stego_embed(image, args.seed, record)
        with open(args.outfile, "wb") as fh:
            fh.write(out.to_bytes())
    except (OSError, StegoError) as exc:
        print(f"embed failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    print(f"embedded {len(args.key)}-char key into {args.outfile}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # argv bytes that are not UTF-8 arrive as lone surrogates, which no
    # seed or key can be encoded with
    for name in ("seed", "key"):
        value = getattr(args, name, None)
        if not isinstance(value, str):
            continue
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            print(f"{name} is not valid UTF-8", file=sys.stderr)
            return EXIT_FAIL
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "decode":
        return _cmd_decode(args)
    if args.command == "r-keys":
        return _cmd_r_keys(args)
    if args.command == "embed-secret":
        return _cmd_embed(args)
    return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
