import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from provlab import cli, dpl
from provlab.device import DevicePhase, IoTDevice
from provlab.netsim import LossModel, SimClock, Simulation
from provlab.stego import StegoRecord, make_bmp, parse_bmp, stego_embed

SEED = "8c4wxjarqdtnuju4wut5"
KEY = "4j8vqy4egph3thd7fdchk435hjudwsey"


def make_capture(tmp_path, drop=0.0, rounds=1, extra_stream=False):
    sim = Simulation(loss=LossModel(drop_prob=drop, seed=77), clock=SimClock())
    sim.create_network("home-net", "hunter2-long")
    tx = sim.register("phone")
    rx = sim.register("bulb")
    sim.join(tx, "home-net", "hunter2-long")
    sim.join(rx, "home-net", "hunter2-long")
    creds = dpl.Credentials("home-net", "hunter2-long", "t" * 32)
    for length in dpl.encode(creds, rounds):
        sim.broadcast(tx, dpl.PROVISION_PORT, length)
    path = tmp_path / "capture.jsonl"
    path.write_text(sim.capture.to_jsonl())
    return path, creds


class TestScenarioCommand:
    def test_runs_and_exits_zero(self, tmp_path, capsys):
        report = tmp_path / "out.json"
        code = cli.main(
            ["scenario", "token-case-1", "--seed", "3", "--report", str(report)]
        )
        assert code == 0
        data = json.loads(report.read_text())
        assert data["scenario"] == "token-case-1"
        assert data["pass"] is True
        assert capsys.readouterr().out.count("[PASS]") == len(data["steps"])

    def test_unknown_scenario(self, capsys):
        assert cli.main(["scenario", "no-such-thing"]) == 2

    def test_report_is_deterministic(self, tmp_path):
        paths = []
        for i in range(2):
            p = tmp_path / f"r{i}.json"
            assert cli.main(
                ["scenario", "replay-defense", "--seed", "9", "--report", str(p)]
            ) == 0
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_env_seed_overrides_flag(self, tmp_path, monkeypatch):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        monkeypatch.setenv("PROVLAB_SEED", "123")
        cli.main(["scenario", "token-case-1", "--seed", "999", "--report", str(a)])
        monkeypatch.delenv("PROVLAB_SEED")
        cli.main(["scenario", "token-case-1", "--seed", "123", "--report", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_list(self, capsys):
        assert cli.main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("token-case-1", "isolation-two-devices", "multi-vendor"):
            assert name in out


class TestDecodeCommand:
    def test_decodes_masked_by_default(self, tmp_path, capsys):
        path, creds = make_capture(tmp_path)
        assert cli.main(["decode", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"ssid={creds.ssid}" in out
        assert creds.passphrase not in out
        assert "*" * len(creds.passphrase) in out
        assert f"token={creds.token}" in out

    def test_unmask_reveals_passphrase(self, tmp_path, capsys):
        path, creds = make_capture(tmp_path)
        assert cli.main(["decode", str(path), "--unmask"]) == 0
        assert creds.passphrase in capsys.readouterr().out

    def test_decodes_despite_twenty_percent_loss(self, tmp_path, capsys):
        path, creds = make_capture(tmp_path, drop=0.2, rounds=5)
        assert cli.main(["decode", str(path), "--unmask"]) == 0
        out = capsys.readouterr().out
        assert f"ssid={creds.ssid}" in out
        assert f"passphrase={creds.passphrase}" in out

    def test_decodes_every_phone_of_a_crowd_the_device_cannot_hold(self, tmp_path, capsys):
        phones = dpl.MAX_SENDERS + 1
        sim = Simulation(clock=SimClock())
        sim.create_network("home-net", "hunter2-long")
        device = IoTDevice(sim, "bulb", sim.register("cloud", wan=True))
        sim.join(device.endpoint, "home-net", "hunter2-long")
        senders, sent, lengths = [], [], []
        for k in range(phones):
            senders.append(sim.register(f"phone-{k}"))
            sim.join(senders[k], "home-net", "hunter2-long")
            sent.append(dpl.Credentials("home-net", f"pass-{k}", f"{k:02d}" * 16))
            lengths.append(dpl.encode(sent[k], 1))
        # round robin: every phone sends its next frame before any sends again
        for t in range(max(map(len, lengths))):
            for k in range(phones):
                if t < len(lengths[k]):
                    sim.broadcast(senders[k], dpl.PROVISION_PORT, lengths[k][t])
        path = tmp_path / "crowd.jsonl"
        path.write_text(sim.capture.to_jsonl())
        assert cli.main(["decode", str(path), "--unmask"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"attempt {k}: src=phone-{k} ssid={creds.ssid} "
            f"passphrase={creds.passphrase} token={creds.token}"
            for k, creds in enumerate(sent)
        ]
        # the device keeps at most MAX_SENDERS attempts: each new sender
        # evicts one that is still sending, so it decodes nothing
        device.idle()
        assert device.phase is DevicePhase.UNPROVISIONED
        assert device.creds is None

    def test_a_broadcast_cannot_forge_a_line_of_the_output(self, tmp_path, capsys):
        sim = Simulation(clock=SimClock())
        sim.create_network("home-net", "hunter2-long")
        forged = "attempt 7: src=phone-01 ssid=HomeNet passphrase=hunter22 token=" + "Z" * 32
        senders = {"phone-01": ("home-net", "hunter2-long", "t" * 32),
                   "mallory": ("home-net", "x", "T" * 8 + "\n" + forged),
                   "eve\r\n" + forged: ("home\x1b[2K", "y\x00", "u" * 32)}
        for src, fields in senders.items():
            sim.join(sim.register(src), "home-net", "hunter2-long")
            for length in dpl.encode_payload(dpl.frame_fields(*fields), 1):
                sim.broadcast(src, dpl.PROVISION_PORT, length)
        path = tmp_path / "forged.jsonl"
        path.write_text(sim.capture.to_jsonl())
        assert cli.main(["decode", str(path), "--unmask"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(senders)
        assert not any(line.startswith("attempt 7") for line in lines)
        assert lines[1] == ("attempt 1: src=mallory ssid=home-net passphrase=x "
                            "token=TTTTTTTT\\n" + forged)
        assert lines[2] == (f"attempt 2: src=eve\\r\\n{forged} ssid=home\\x1b[2K "
                            f"passphrase=y\\x00 token={'u' * 32}")

    def test_other_valid_json_decodes_as_the_canonical_capture(self, tmp_path, capsys):
        # lossy, interleaved senders and a stream: deliver, drop and stream
        # records lie between the broadcasts the decoder keeps
        sim = Simulation(loss=LossModel(drop_prob=0.2, dup_prob=0.1, seed=5), clock=SimClock())
        sim.create_network("home-net", "hunter2-long")
        rx = sim.register("bulb")
        sim.join(rx, "home-net", "hunter2-long")
        sim.set_stream_handler(rx, 6668, lambda end, src: None)
        phones = [sim.register(f"phone-{k}") for k in range(3)]
        for k, phone in enumerate(phones):
            sim.join(phone, "home-net", "hunter2-long")
            sim.open_stream(phone, rx, 6668).send(b"hello")
        bursts = [dpl.encode(dpl.Credentials("home-net", f"pass-{k}", f"{k:02d}" * 16), 3)
                  for k in range(3)]
        for t in range(0, max(map(len, bursts)), 40):
            for phone, lengths in zip(phones, bursts):
                sim.broadcast_lengths(phone, dpl.PROVISION_PORT, lengths[t:t + 40])
        canonical = sim.capture.to_jsonl()
        other = "".join(
            ("\r\n" if i % 7 else " \t\r\n") + " " + line.replace(
                '{"kind": "bcast"', '{"dst": null, "kind": "bcast"') + "\t\r\n"
            for i, line in enumerate(canonical.splitlines())
        )
        assert '"dst": null' in other and canonical.count("\n") > 1000
        runs = []
        for name, text in (("canonical", canonical), ("other", other)):
            path = tmp_path / f"{name}.jsonl"
            path.write_bytes(text.encode())
            runs.append((cli.main(["decode", str(path), "--unmask"]), capsys.readouterr().out))
        assert runs[0] == runs[1]
        assert runs[0][0] == cli.EXIT_OK
        assert {re.search(r"passphrase=(\S+)", line)[1] for line in runs[0][1].splitlines()} == {
            "pass-0", "pass-1", "pass-2"}

    def test_no_provisioning_traffic(self, tmp_path, capsys):
        sim = Simulation()
        sim.create_network("net-x", "password-x")
        a = sim.register("a")
        b = sim.register("b")
        sim.join(a, "net-x", "password-x")
        sim.join(b, "net-x", "password-x")
        sim.set_stream_handler(b, 6668, lambda end, src: None)
        sim.open_stream(a, b, 6668).send(b"stream bytes only")
        path = tmp_path / "cap.jsonl"
        path.write_text(sim.capture.to_jsonl())
        assert cli.main(["decode", str(path)]) == cli.EXIT_NO_TRAFFIC

    @pytest.mark.parametrize("bad_line", [
        '{"t":1,"ssid":"x"}', "[1,2]", "7", "{nope",
        '{"t":1,"ssid":"x","src":"a","port":30011,"len":"5","kind":"bcast"}',
        "[" * 100000,
    ], ids=lambda line: line if len(line) < 100 else f"{line[:2]}x{len(line)}")
    def test_malformed_line_exits_1_naming_the_line(self, tmp_path, capsys, bad_line):
        path, _creds = make_capture(tmp_path)
        first, rest = path.read_text().split("\n", 1)
        path.write_text(first + "\n" + bad_line + "\n" + rest)
        assert cli.main(["decode", str(path)]) == cli.EXIT_FAIL
        assert "line 2 " in capsys.readouterr().err

    def test_lone_carriage_return_inside_a_record(self, tmp_path, capsys):
        # "\r" is JSON whitespace between tokens; only "\n" ends a line
        record = ('{"kind": "bcast",\r"len": 100, "port": 30011, "src": "app",'
                  ' "ssid": "home-net", "t": 1600000000}\n')
        path = tmp_path / "cap.jsonl"
        path.write_bytes(record.encode())
        assert cli.main(["decode", str(path)]) == cli.EXIT_OK
        assert capsys.readouterr().out == "attempt 0: src=app incomplete\n"
        path.write_bytes((record * 2 + "{nope\n").encode())
        assert cli.main(["decode", str(path)]) == cli.EXIT_FAIL
        assert "line 3 " in capsys.readouterr().err


class TestRKeysCommand:
    @pytest.fixture
    def carrier(self, tmp_path):
        image = make_bmp(64, 64)
        out = stego_embed(image, SEED, StegoRecord(keys=[KEY.encode()]))
        path = tmp_path / "secret2.bmp"
        path.write_bytes(out.to_bytes())
        return path

    def test_output_shape(self, carrier, capsys):
        assert cli.main(["r-keys", SEED, str(carrier)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"opening: {carrier}"
        assert lines[1] == f"read {carrier.stat().st_size} bytes"
        assert re.fullmatch(r"str hash: 0x[0-9a-f]{8}", lines[2])
        assert lines[3] == "keys_cnt: 1"
        assert re.fullmatch(r"\[0\] offs = 0x[0-9a-f]{8}", lines[4])
        assert re.fullmatch(r"\[1\] offs = 0x[0-9a-f]{8}", lines[5])
        assert lines[6] == f"[KEY] [0] str: {KEY}"

    def test_str_hash_is_crc32_of_seed(self, carrier, capsys):
        import zlib

        cli.main(["r-keys", SEED, str(carrier)])
        out = capsys.readouterr().out
        expected = zlib.crc32(SEED.encode()) & 0xFFFFFFFF
        assert f"str hash: 0x{expected:08x}" in out

    def test_wrong_seed_exits_2(self, carrier):
        assert cli.main(["r-keys", "wrong-seed", str(carrier)]) == 2


class TestEmbedCommand:
    def test_embed_then_recover(self, tmp_path, capsys):
        src = tmp_path / "clean.bmp"
        dst = tmp_path / "loaded.bmp"
        src.write_bytes(make_bmp(64, 64).to_bytes())
        assert cli.main(["embed-secret", SEED, KEY, str(src), str(dst)]) == 0
        assert cli.main(["r-keys", SEED, str(dst)]) == 0
        assert f"[KEY] [0] str: {KEY}" in capsys.readouterr().out
        # the carrier still parses as a clean 24-bit bitmap
        image = parse_bmp(dst.read_bytes())
        assert (image.width, image.height) == (64, 64)


class TestMalformedInputs:
    """Bad input ends in a declared exit code and a message, not a traceback."""

    def test_env_seed_that_is_not_an_integer_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("PROVLAB_SEED", "abc")
        assert cli.main(["scenario", "token-case-1"]) == cli.EXIT_USAGE
        assert "PROVLAB_SEED" in capsys.readouterr().err

    def test_unwritable_report_path_exits_1(self, tmp_path, capsys):
        report = tmp_path / "missing-dir" / "out.json"
        assert cli.main(
            ["scenario", "token-case-1", "--seed", "3", "--report", str(report)]
        ) == cli.EXIT_FAIL
        assert "cannot write report" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["r-keys", "{bad}", "{bmp}"],
        ["embed-secret", "{bad}", KEY, "{bmp}", "{out}"],
        ["embed-secret", SEED, "{bad}", "{bmp}", "{out}"],
    ], ids=["r-keys-seed", "embed-seed", "embed-key"])
    def test_argument_that_is_not_utf8_exits_1(self, tmp_path, capsys, argv):
        bmp, out = tmp_path / "in.bmp", tmp_path / "out.bmp"
        bmp.write_bytes(make_bmp(64, 64).to_bytes())
        # what the interpreter makes of the raw argument byte 0xff
        bad = os.fsdecode(b"\xff")
        argv = [a.format(bad=bad, bmp=bmp, out=out) for a in argv]
        assert cli.main(argv) == cli.EXIT_FAIL
        assert "not valid UTF-8" in capsys.readouterr().err
        assert not out.exists()


class TestRepeatedCallsInOneProcess:
    """``cli.main`` called again and again in one process, as the bench and
    any embedding caller do, answers each call as a fresh process would."""

    def test_each_call_matches_a_fresh_process(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("PROVLAB_SEED", raising=False)
        capture, _creds = make_capture(tmp_path, drop=0.2, rounds=5)
        bad = b"\xff"  # not UTF-8; the interpreter turns it into a lone surrogate
        calls = [
            ([b"scenario", b"--seed", b"x"], cli.EXIT_USAGE, None),
            ([b"scenario", b"--list"], cli.EXIT_OK, {"command", "name", "seed", "report", "list"}),
            ([b"decode", os.fsencode(capture), b"--unmask"], cli.EXIT_OK,
             {"command", "capture", "unmask"}),
            ([b"r-keys", bad, os.fsencode(tmp_path / "none.bmp")], cli.EXIT_FAIL,
             {"command", "seed", "bmp"}),
        ]
        parsed = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(parser, *args, **kwargs):
            namespace = parse_args(parser, *args, **kwargs)
            parsed.append(namespace)
            return namespace

        # parse_args is argparse's top-level entry; subparsers parse without it
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        for argv, code, dests in calls:
            fresh = subprocess.run([sys.executable, "-m", "provlab.cli", *argv],
                                   capture_output=True, env=env, check=False, timeout=60)
            del parsed[:]
            try:
                got = cli.main([os.fsdecode(a) for a in argv])
            except SystemExit as exc:  # argparse ends a usage error this way
                got = exc.code
            out, err = capsys.readouterr()
            assert (got, fresh.returncode) == (code, code), argv
            assert (out, err) == (os.fsdecode(fresh.stdout), os.fsdecode(fresh.stderr)), argv
            # a fresh namespace per call, holding only its own command's options
            assert [set(vars(ns)) for ns in parsed] == ([] if dests is None else [dests]), argv
