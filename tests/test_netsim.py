import json
import random
import threading

import pytest

from provlab.netsim import (
    CaptureLog,
    DuplicateSsid,
    InvalidLength,
    LossModel,
    NotJoined,
    PeerUnreachable,
    SimClock,
    Simulation,
    UnknownSsid,
    WrongPassphrase,
)


def fresh_sim(drop=0.0, dup=0.0, seed=0):
    return Simulation(loss=LossModel(drop_prob=drop, dup_prob=dup, seed=seed),
                      clock=SimClock(1_613_000_000))


class TestNetworks:
    def test_create_fresh_network(self, sim):
        net = sim.create_network("home-net", "hunter2-long")
        assert net.ssid == "home-net"
        assert net.members == []

    def test_duplicate_ssid_rejected(self, sim):
        sim.create_network("home-net", "hunter2-long")
        with pytest.raises(DuplicateSsid):
            sim.create_network("home-net", "other-password")

    def test_length_bounds(self, sim):
        with pytest.raises(InvalidLength):
            sim.create_network("", "hunter2-long")
        with pytest.raises(InvalidLength):
            sim.create_network("s" * 33, "hunter2-long")
        with pytest.raises(InvalidLength):
            sim.create_network("net", "short")

    def test_join_requires_exact_pair(self, sim):
        sim.create_network("home-net", "hunter2-long")
        ep = sim.register("dev", "device")
        with pytest.raises(UnknownSsid):
            sim.join(ep, "nope", "hunter2-long")
        with pytest.raises(WrongPassphrase):
            sim.join(ep, "home-net", "wrong-pass-1")
        sim.join(ep, "home-net", "hunter2-long")
        assert "home-net" in sim.networks_of(ep)

    def test_leave(self, sim):
        sim.create_network("home-net", "hunter2-long")
        ep = sim.register("dev", "device")
        sim.join(ep, "home-net", "hunter2-long")
        sim.leave(ep, "home-net")
        assert sim.networks_of(ep) == set()


class TestBroadcast:
    def test_zero_loss_delivers_exactly_once_in_order(self, sim):
        sim.create_network("net-a", "password-a")
        tx = sim.register("tx", "app")
        rx = sim.register("rx", "device")
        sim.join(tx, "net-a", "password-a")
        sim.join(rx, "net-a", "password-a")
        for i in range(100):
            sim.broadcast(tx, 30011, bytes([i % 251 + 1]) * (i + 1))
        got = sim.poll_datagrams(rx)
        assert [len(d.payload) for d in got] == list(range(1, 101))
        delivered = [e for e in sim.capture.snapshot() if e.kind == "deliver"]
        assert len(delivered) == 100

    def test_not_joined(self, sim):
        sim.create_network("net-a", "password-a")
        lone = sim.register("lone", "app")
        with pytest.raises(NotJoined):
            sim.broadcast(lone, 30011, b"x")

    def test_payload_bounds(self, sim):
        sim.create_network("net-a", "password-a")
        tx = sim.register("tx", "app")
        sim.join(tx, "net-a", "password-a")
        with pytest.raises(InvalidLength):
            sim.broadcast(tx, 30011, b"")
        with pytest.raises(InvalidLength):
            sim.broadcast(tx, 30011, b"x" * 2049)

    def test_cross_network_silence(self, sim):
        sim.create_network("net-a", "password-a")
        sim.create_network("net-b", "password-b")
        tx = sim.register("tx", "app")
        rx_b = sim.register("rx-b", "device")
        sim.join(tx, "net-a", "password-a")
        sim.join(rx_b, "net-b", "password-b")
        for _ in range(50):
            sim.broadcast(tx, 30011, b"xx", ssid="net-a")
        assert sim.poll_datagrams(rx_b) == []
        bad = [
            e for e in sim.capture.snapshot()
            if e.kind == "deliver" and e.dst == "rx-b"
        ]
        assert bad == []

    def test_seeded_loss_matches_independent_replay(self):
        # oracle: replay the documented draw sequence outside the broker
        drop, dup, seed, frames = 0.2, 0.0, 99, 1000
        sim = fresh_sim(drop=drop, dup=dup, seed=seed)
        sim.create_network("net-a", "password-a")
        tx = sim.register("tx", "app")
        rx = sim.register("rx", "device")
        sim.join(tx, "net-a", "password-a")
        sim.join(rx, "net-a", "password-a")
        for _ in range(frames):
            sim.broadcast(tx, 30011, b"abc")
        delivered = len(sim.poll_datagrams(rx))

        rng = random.Random(seed)
        expected = 0
        for _ in range(frames):
            if rng.random() >= drop:
                expected += 1
                if rng.random() < dup:
                    expected += 1
        assert delivered == expected

    def test_duplication_delivers_twice(self):
        sim = fresh_sim(drop=0.0, dup=1.0, seed=5)
        sim.create_network("net-a", "password-a")
        tx = sim.register("tx", "app")
        rx = sim.register("rx", "device")
        sim.join(tx, "net-a", "password-a")
        sim.join(rx, "net-a", "password-a")
        sim.broadcast(tx, 30011, b"abc")
        assert len(sim.poll_datagrams(rx)) == 2

    def test_drops_recorded_as_sent_not_delivered(self):
        sim = fresh_sim(drop=1.0)
        sim.create_network("net-a", "password-a")
        tx = sim.register("tx", "app")
        rx = sim.register("rx", "device")
        sim.join(tx, "net-a", "password-a")
        sim.join(rx, "net-a", "password-a")
        sim.broadcast(tx, 30011, b"abc")
        kinds = [e.kind for e in sim.capture.snapshot()]
        assert kinds == ["bcast", "drop"]

    def test_handler_gets_frames_synchronously(self, sim):
        sim.create_network("net-a", "password-a")
        tx = sim.register("tx", "app")
        rx = sim.register("rx", "device")
        sim.join(tx, "net-a", "password-a")
        sim.join(rx, "net-a", "password-a")
        seen = []
        sim.set_datagram_handler(rx, 30011, lambda d: seen.append(len(d.payload)))
        sim.broadcast(tx, 30011, b"abcd")
        assert seen == [4]


class TestDeterminism:
    @staticmethod
    def _run(seed):
        sim = fresh_sim(drop=0.25, dup=0.15, seed=seed)
        sim.create_network("net-a", "password-a")
        tx = sim.register("tx", "app")
        rx = sim.register("rx", "device")
        sim.join(tx, "net-a", "password-a")
        sim.join(rx, "net-a", "password-a")
        rng = random.Random(7)
        for _ in range(300):
            sim.clock.advance(1)
            sim.broadcast(tx, 30011, b"y" * rng.randint(1, 64))
        return sim.capture.to_jsonl()

    def test_identical_seed_identical_capture(self):
        assert self._run(4242) == self._run(4242)

    def test_different_seed_differs(self):
        assert self._run(1) != self._run(2)


class TestStreams:
    def _pair(self, sim):
        sim.create_network("net-a", "password-a")
        a = sim.register("a", "app")
        b = sim.register("b", "device")
        sim.join(a, "net-a", "password-a")
        sim.join(b, "net-a", "password-a")
        return a, b

    def test_stream_is_ordered_and_lossless(self):
        sim = fresh_sim(drop=0.9, seed=3)  # loss model must not touch streams
        a, b = self._pair(sim)
        ends = {}
        sim.set_stream_handler(b, 6668, lambda end, src: ends.setdefault("b", end))
        end_a = sim.open_stream(a, b, 6668)
        for i in range(20):
            end_a.send(bytes([i]))
        assert ends["b"].recv() == bytes(range(20))

    def test_bidirectional(self, sim):
        a, b = self._pair(sim)
        sim.set_stream_handler(b, 6668, lambda end, src: end.send(b"pong"))
        end_a = sim.open_stream(a, b, 6668)
        assert end_a.recv() == b"pong"

    def test_unreachable_without_shared_network_or_uplink(self, sim):
        sim.create_network("net-a", "password-a")
        sim.create_network("net-b", "password-b")
        a = sim.register("a", "app")
        b = sim.register("b", "device")
        sim.join(a, "net-a", "password-a")
        sim.join(b, "net-b", "password-b")
        sim.set_stream_handler(b, 6668, lambda end, src: None)
        with pytest.raises(PeerUnreachable):
            sim.open_stream(a, b, 6668)

    def test_wan_endpoint_reachable_from_any_network(self, sim):
        sim.create_network("net-a", "password-a")
        a = sim.register("a", "device")
        cloud = sim.register("cloud", "cloud", wan=True)
        sim.join(a, "net-a", "password-a")
        sim.set_stream_handler(cloud, 6668, lambda end, src: None)
        end = sim.open_stream(a, cloud, 6668)
        end.send(b"hello")
        entries = [e for e in sim.capture.snapshot() if e.kind == "stream"]
        assert entries[0].ssid == "wan"

    def test_offline_peer_unreachable(self, sim):
        a, b = self._pair(sim)
        sim.set_stream_handler(b, 6668, lambda end, src: None)
        end = sim.open_stream(a, b, 6668)
        sim.set_online(b, False)
        with pytest.raises(PeerUnreachable):
            end.send(b"x")
        with pytest.raises(PeerUnreachable):
            sim.open_stream(a, b, 6668)

    def test_not_listening_is_unreachable(self, sim):
        a, b = self._pair(sim)
        with pytest.raises(PeerUnreachable):
            sim.open_stream(a, b, 4242)


class TestConcurrency:
    def test_per_sender_order_under_concurrent_sends(self, sim):
        sim.create_network("net-a", "password-a")
        rx = sim.register("rx", "device")
        sim.join(rx, "net-a", "password-a")
        senders = []
        for i in range(4):
            tx = sim.register(f"tx-{i}", "app")
            sim.join(tx, "net-a", "password-a")
            senders.append(tx)

        def pump(tx, base):
            for k in range(100):
                sim.broadcast(tx, 30011, bytes([base]) * (k + 1))

        threads = [
            threading.Thread(target=pump, args=(tx, i + 1))
            for i, tx in enumerate(senders)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        got = sim.poll_datagrams(rx)
        assert len(got) == 400
        per_sender = {}
        for d in got:
            per_sender.setdefault(d.src.id, []).append(len(d.payload))
        for seq in per_sender.values():
            assert seq == sorted(seq)  # each sender's frames stay in order

    def test_capture_snapshot_is_consistent_prefix(self, sim):
        sim.create_network("net-a", "password-a")
        tx = sim.register("tx", "app")
        rx = sim.register("rx", "device")
        sim.join(tx, "net-a", "password-a")
        sim.join(rx, "net-a", "password-a")
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                snap = sim.capture.snapshot()
                sends = [e for e in snap if e.kind == "bcast"]
                if len(snap) and len(sends) == 0:
                    errors.append("saw deliveries without a send")

        t = threading.Thread(target=reader)
        t.start()
        for _ in range(500):
            sim.broadcast(tx, 30011, b"zz")
        stop.set()
        t.join()
        assert errors == []


class TestCaptureFormat:
    def test_jsonl_round_trip(self, sim):
        sim.create_network("net-a", "password-a")
        tx = sim.register("tx", "app")
        rx = sim.register("rx", "device")
        sim.join(tx, "net-a", "password-a")
        sim.join(rx, "net-a", "password-a")
        sim.broadcast(tx, 30011, b"abc")
        text = sim.capture.to_jsonl()
        for line in text.strip().splitlines():
            rec = json.loads(line)
            assert set(rec) >= {"t", "ssid", "src", "port", "len", "kind"}
        parsed = CaptureLog.parse_jsonl(text)
        assert [e.to_json() for e in parsed] == [
            e.to_json() for e in sim.capture.snapshot()
        ]

    @pytest.mark.parametrize("field, value", [
        ("t", "1"), ("port", 30011.0), ("len", True), ("ssid", 3),
        ("src", None), ("kind", ["bcast"]), ("dst", 5),
    ])
    def test_wrong_field_type_names_the_line(self, field, value):
        rec = {"t": 1, "ssid": "x", "src": "a", "port": 30011, "len": 5, "kind": "bcast"}
        good = json.dumps(rec)
        rec[field] = value
        with pytest.raises(ValueError, match="^line 2 "):
            CaptureLog.parse_jsonl(good + "\n" + json.dumps(rec) + "\n")

    def test_dst_may_be_null_or_absent(self):
        rec = {"t": 1, "ssid": "x", "src": "a", "port": 30011, "len": 5, "kind": "bcast"}
        parsed = CaptureLog.parse_jsonl(json.dumps(rec) + "\n" + json.dumps({**rec, "dst": None}))
        assert [e.dst for e in parsed] == [None, None]
