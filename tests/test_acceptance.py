"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import random
import re
import string
import time

from provlab import cli, dpl, protocol
from provlab.protocol import RejectReason, TokenStore, issue_token
from provlab.provisioner import hardcoded_endpoints
from provlab.scenarios import (
    SCENARIOS,
    build_world,
    run_scenario,
    scenario_hijack_surface,
    scenario_isolation_two_devices,
    scenario_proxy_offline_control,
    scenario_proxy_transparency,
    scenario_stovepipe_baseline,
    scenario_token_case_1,
    scenario_token_case_2_random,
    scenario_token_case_2_stale,
    scenario_token_case_3,
)
from provlab.stego import StegoRecord, make_bmp, seed_hash, stego_embed, stego_extract

ALPHA = string.ascii_lowercase + string.digits


def _ok(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num} PASS: {text}")


def _budget(num: int, elapsed: float, limit: float) -> None:
    assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s, budget {limit}s"


def test_criterion_1_sync_and_som_fidelity():
    t0 = time.monotonic()
    rng = random.Random(1)
    for _ in range(25):
        creds = dpl.Credentials(
            "".join(rng.choice(ALPHA) for _ in range(rng.randint(1, 32))),
            "".join(rng.choice(ALPHA) for _ in range(rng.randint(0, 64))),
            "".join(rng.choice(ALPHA) for _ in range(32)),
        )
        rounds = rng.randint(1, 16)
        seq = dpl.encode(creds, rounds)
        size = 4 * dpl.GUIDE_REPS + 4 + 1 + 2 * len(dpl.build_payload(creds)) + 1
        assert len(seq) == rounds * size
        for start in range(0, len(seq), size):
            rnd = seq[start : start + size]
            assert rnd[: 4 * dpl.GUIDE_REPS] == [1, 3, 6, 10] * dpl.GUIDE_REPS
            assert rnd[4 * dpl.GUIDE_REPS : 4 * dpl.GUIDE_REPS + 4] == [18, 35, 60, 65]
    elapsed = time.monotonic() - t0
    _budget(1, elapsed, 1.0)
    _ok(1, f"every round opens [1,3,6,10]x{dpl.GUIDE_REPS} then [18,35,60,65] "
           f"({elapsed:.2f}s)")


def test_criterion_2_codec_round_trip():
    t0 = time.monotonic()
    # 500 random credentials x rounds in {1, 5}, lossless: all exact
    rng = random.Random(2)
    for trial in range(500):
        creds = dpl.Credentials(
            "".join(rng.choice(ALPHA) for _ in range(rng.randint(1, 32))),
            "".join(rng.choice(ALPHA) for _ in range(rng.randint(0, 64))),
            "".join(rng.choice(ALPHA) for _ in range(32)),
        )
        for rounds in (1, 5):
            state = dpl.decode_lengths(dpl.encode(creds, rounds))
            assert state.phase is dpl.Phase.COMPLETE
            assert state.credentials == creds

    # drop 0.2 / dup 0.1, 5 rounds, 200 seeded trials
    complete = wrong = 0
    for trial in range(200):
        trng = random.Random(1000 + trial)
        creds = dpl.Credentials(
            "".join(trng.choice(ALPHA) for _ in range(trng.randint(4, 16))),
            "".join(trng.choice(ALPHA) for _ in range(trng.randint(8, 16))),
            "".join(trng.choice(ALPHA) for _ in range(32)),
        )
        lengths = []
        for L in dpl.encode(creds, 5):
            if trng.random() < 0.2:
                continue
            lengths.append(L)
            if trng.random() < 0.1:
                lengths.append(L)
        state = dpl.decode_lengths(lengths)
        if state.phase is dpl.Phase.COMPLETE:
            if state.credentials == creds:
                complete += 1
            else:
                wrong += 1
    assert wrong == 0, f"{wrong} wrong-credential completions"
    rate = complete / 200
    assert rate >= 0.95, f"lossy completion rate {rate:.3f} < 0.95"
    elapsed = time.monotonic() - t0
    _budget(2, elapsed, 30.0)
    _ok(2, f"lossless 1000/1000 exact; lossy {complete}/200 complete, 0 wrong "
           f"({elapsed:.1f}s)")


def test_criterion_3_token_experiment_matrix():
    t0 = time.monotonic()
    case1 = scenario_token_case_1(101)
    assert case1.passed, case1.to_json()
    case2r = scenario_token_case_2_random(102)
    assert case2r.passed, case2r.to_json()
    case2s = scenario_token_case_2_stale(103)
    assert case2s.passed, case2s.to_json()
    case3 = scenario_token_case_3(104)
    assert case3.passed, case3.to_json()

    # determinism of the verdicts per (scenario, seed)
    assert scenario_token_case_1(101).to_json() == case1.to_json()
    elapsed = time.monotonic() - t0
    _budget(3, elapsed, 20.0)
    _ok(3, "case 1 silent reject, case 2 cloud reject (random+stale), "
           f"case 3 registered ({elapsed:.1f}s)")


def test_criterion_4_ttl_boundary():
    t0 = time.monotonic()
    rng = random.Random(4)
    store = TokenStore()
    token = issue_token(rng, 1_700_000_000, "EU", "com.xyz.smart", "user-01")
    store.add(token)
    young = store.check(token.value, 1_700_000_000 + 7199, "com.xyz.smart", "user-01")
    assert young.accepted
    old = store.check(token.value, 1_700_000_000 + 7201, "com.xyz.smart", "user-01")
    assert not old.accepted and old.reason is RejectReason.EXPIRED
    # and through the full bind path
    bind_young = store.bind(token.value, "dev-a", 1_700_000_000 + 7199)
    assert bind_young.accepted
    elapsed = time.monotonic() - t0
    _budget(4, elapsed, 1.0)
    _ok(4, f"age 7199s accepted, age 7201s Expired ({elapsed:.2f}s)")


def test_criterion_5_signature_gate():
    t0 = time.monotonic()
    world = build_world(5)
    from provlab.scenarios import _app

    app = _app(world)
    rng = random.Random(55)
    numeric_fields = {"time", "lat", "lon"}
    rejected = 0
    fingerprint = world.cloud.registry.fingerprint()
    for trial in range(1000):
        envelope = app.envelopes.build(
            protocol.ACTION_TOKEN_GET,
            {"region": "EU", "userId": "user-01"},
            world.clock.now,
        )
        victim = rng.choice([f for f in envelope if f != "sign"])
        original = envelope[victim]
        if victim in numeric_fields or isinstance(original, (int, float)):
            envelope[victim] = original + rng.randint(1, 1_000_000)
        else:
            envelope[victim] = str(original) + rng.choice(ALPHA)
        response = world.cloud.handle_app_request(envelope)
        assert response["success"] is False, f"tamper of {victim} accepted"
        rejected += 1
    assert rejected == 1000
    assert world.cloud.registry.fingerprint() == fingerprint, "registry mutated"
    elapsed = time.monotonic() - t0
    _budget(5, elapsed, 10.0)
    _ok(5, f"1000/1000 single-field tampers rejected, registry untouched "
           f"({elapsed:.1f}s)")


def test_criterion_6_stego_round_trip(tmp_path, capsys):
    t0 = time.monotonic()
    rng = random.Random(6)
    sizes = [(48, 48), (64, 64), (128, 96)]
    recovered = 0
    for trial in range(100):
        key = "".join(rng.choice(ALPHA) for _ in range(32))
        width, height = sizes[trial % 3]
        image = make_bmp(width, height)
        record = StegoRecord(keys=[key.encode()])
        while True:
            seed = "".join(rng.choice(ALPHA) for _ in range(20))
            start = seed_hash(seed) % (len(image.pixels) - len(record.to_bytes()) - 1)
            if start + 8 * len(record.to_bytes()) <= len(image.pixels):
                break
        carrier = stego_embed(image, seed, record)
        assert carrier.header == image.header, "header bytes changed"
        assert max(
            abs(a - b) for a, b in zip(image.pixels, carrier.pixels)
        ) <= 1, "pixel delta exceeds 1"
        out, _ = stego_extract(carrier, seed)
        assert out.keys == [key.encode()]
        recovered += 1
    assert recovered == 100

    # r-keys output matches the recovery-tool listing line for line
    image = make_bmp(64, 64)
    carrier = stego_embed(
        image, "8c4wxjarqdtnuju4wut5",
        StegoRecord(keys=[b"4j8vqy4egph3thd7fdchk435hjudwsey"]),
    )
    path = tmp_path / "secret2.bmp"
    path.write_bytes(carrier.to_bytes())
    assert cli.main(["r-keys", "8c4wxjarqdtnuju4wut5", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    shapes = [
        r"opening: .+\.bmp",
        r"read \d+ bytes",
        r"str hash: 0x[0-9a-f]{8}",
        r"keys_cnt: 1",
        r"\[0\] offs = 0x[0-9a-f]{8}",
        r"\[1\] offs = 0x[0-9a-f]{8}",
        r"\[KEY\] \[0\] str: [a-z0-9]{32}",
    ]
    assert len(lines) == len(shapes)
    for line, shape in zip(lines, shapes):
        assert re.fullmatch(shape, line), f"{line!r} !~ {shape!r}"
    elapsed = time.monotonic() - t0
    _budget(6, elapsed, 10.0)
    _ok(6, f"100/100 keys recovered across 3 image sizes, LSB-confined, "
           f"listing shape exact ({elapsed:.1f}s)")


def test_criterion_7_isolation():
    t0 = time.monotonic()
    report = scenario_isolation_two_devices(7)
    assert report.passed, report.to_json()
    wanted = [
        "provisions successfully on its fake network",
        "cross-network delivered frames",
        "only the fake SSIDs",
        "true home SSID appears nowhere",
    ]
    for needle in wanted:
        assert any(needle in s.expect for s in report.steps), needle
    elapsed = time.monotonic() - t0
    _budget(7, elapsed, 5.0)
    _ok(7, f"both devices registered on decoy networks, zero cross-network "
           f"deliveries, no home credentials cloud-side ({elapsed:.1f}s)")


def test_criterion_8_replay_hijack_surface():
    t0 = time.monotonic()
    report = scenario_hijack_surface(8)
    assert report.passed, report.to_json()
    assert any("commands the device over its open port" in s.expect for s in report.steps)
    assert any("cannot reach the device" in s.expect for s in report.steps)
    assert any("zero frames delivered" in s.expect.lower() for s in report.steps)
    elapsed = time.monotonic() - t0
    _budget(8, elapsed, 5.0)
    _ok(8, f"open-port hijack reproduced on a shared network and fully "
           f"blocked across isolation networks ({elapsed:.1f}s)")


def test_criterion_9_proxy():
    t0 = time.monotonic()
    transparency = scenario_proxy_transparency(9)
    assert transparency.passed, transparency.to_json()
    assert any(
        "equals state after direct control" in s.expect for s in transparency.steps
    )
    assert any(
        "every proxy-originated envelope verified" in s.expect
        for s in transparency.steps
    )
    offline = scenario_proxy_offline_control(9)
    assert offline.passed, offline.to_json()
    baseline = scenario_stovepipe_baseline(9)
    assert baseline.passed, baseline.to_json()
    assert any("loses control" in s.expect for s in baseline.steps)
    elapsed = time.monotonic() - t0
    _budget(9, elapsed, 10.0)
    _ok(9, f"proxied control transparent, offline local control works while "
           f"direct control dies with the cloud ({elapsed:.1f}s)")


def test_criterion_10_endpoint_fallback():
    t0 = time.monotonic()
    assert hardcoded_endpoints("EU") == ["52.29.0.171", "35.156.160.91"]
    assert hardcoded_endpoints("AY") == ["162.14.14.134"]
    assert hardcoded_endpoints("IN") == ["13.234.164.70", "13.234.09.49"]
    assert hardcoded_endpoints("AZ") == ["35.167.213.203", "52.27.05.79"]
    assert hardcoded_endpoints("XX") == []
    assert hardcoded_endpoints("") == []
    elapsed = time.monotonic() - t0
    _budget(10, elapsed, 1.0)
    _ok(10, f"fallback tables exact per region, unknown regions empty "
            f"({elapsed:.2f}s)")


def test_all_registered_scenarios_pass_and_are_deterministic():
    # supporting check: the whole scenario registry is green and stable
    for name in sorted(SCENARIOS):
        first = run_scenario(name, 2026)
        assert first.passed, f"{name}: {first.to_json()}"
        again = run_scenario(name, 2026)
        assert first.to_json() == again.to_json(), f"{name} not deterministic"
