import json
import math
import random
import tracemalloc
from dataclasses import astuple
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from provlab import dpl, scenarios
from provlab.netsim import (
    CHUNK_SLOTS,
    CaptureEntry,
    CaptureLog,
    DuplicateSsid,
    InvalidLength,
    LossModel,
    NetSimError,
    NotJoined,
    PeerUnreachable,
    SimClock,
    Simulation,
    UnknownEndpoint,
    UnknownSsid,
    WrongPassphrase,
)

FIELDS = ("t", "ssid", "src", "port", "len", "kind", "dst")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=4), inner, max_size=8),
    max_leaves=16,
)


def fresh_sim(drop=0.0, dup=0.0, seed=0):
    return Simulation(loss=LossModel(drop_prob=drop, dup_prob=dup, seed=seed),
                      clock=SimClock(1_613_000_000))


def recorder(got: list):
    """A datagram handler that takes every delivery of each run it is given and
    appends each one's ``(src, length)`` to ``got``."""
    def hear(src, lengths):
        got.extend((src, length) for length in lengths)
        return len(lengths), None
    return hear


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
        ep = sim.register("dev")
        with pytest.raises(UnknownSsid):
            sim.join(ep, "nope", "hunter2-long")
        with pytest.raises(WrongPassphrase):
            sim.join(ep, "home-net", "wrong-pass-1")
        sim.join(ep, "home-net", "hunter2-long")
        assert "home-net" in sim.networks_of(ep)

    def test_leave(self, sim):
        sim.create_network("home-net", "hunter2-long")
        ep = sim.register("dev")
        sim.join(ep, "home-net", "hunter2-long")
        sim.leave(ep, "home-net")
        assert sim.networks_of(ep) == set()


class TestBroadcast:
    def test_zero_loss_delivers_exactly_once_in_order(self, sim):
        sim.create_network("net-a", "password-a")
        tx = sim.register("tx")
        rx = sim.register("rx")
        sim.join(tx, "net-a", "password-a")
        sim.join(rx, "net-a", "password-a")
        got = []
        sim.set_datagram_handler(rx, 30011, recorder(got))
        for i in range(100):
            sim.broadcast(tx, 30011, i + 1)
        assert got == [(tx, i + 1) for i in range(100)]
        delivered = [row for row in sim.capture.rows() if row[5] == "deliver"]
        assert len(delivered) == 100

    def test_a_datagram_carries_only_its_length(self, sim):
        sim.create_network("net-a", "password-a")
        tx, rx = sim.register("tx"), sim.register("rx")
        for ep in (tx, rx):
            sim.join(ep, "net-a", "password-a")
        got = []

        def hear(*args):
            got.append((args[0], list(args[1])))
            return len(args[1]), None

        sim.set_datagram_handler(rx, 30011, hear)
        sim.broadcast(tx, 30011, 3)
        assert got == [(tx, [3])]
        assert sim.capture.rows()[0][4] == 3
        # bytes are not a length: nothing of them could reach a handler
        with pytest.raises(InvalidLength):
            sim.broadcast(tx, 30011, b"abc")
        assert len(got) == 1 and len(sim.capture.frames()) == 1

    @pytest.mark.parametrize("bad", [True, 3.0], ids=["bool", "float"])
    @pytest.mark.parametrize("heard", [True, False], ids=["heard", "unheard"])
    def test_a_length_that_is_not_an_int_raises_before_its_frame(self, bad, heard):
        # heard: a listening receiver and chance outcomes, the per-frame loop;
        # unheard: a closed port and certain outcomes, the one-step tail
        def run(lengths):
            rate = 0.3 if heard else 0.0
            sim = fresh_sim(drop=rate, dup=rate, seed=9)
            sim.create_network("net-a", "password-a")
            tx, rx = sim.register("tx"), sim.register("rx")
            for ep in (tx, rx):
                sim.join(ep, "net-a", "password-a")
            got = []
            if heard:
                sim.set_datagram_handler(rx, 30011, recorder(got))
            try:
                sim.broadcast_lengths(tx, 30011, lengths)
            except InvalidLength:
                return sim, got, True
            return sim, got, False

        sim, got, raised = run([bad])
        assert raised and sim.capture.frames() == [] and got == []
        assert sim._rng.getstate() == random.Random(9).getstate()
        sim, got, raised = run([3, 4, bad, 5])
        want, want_got, _ = run([3, 4])
        assert raised and sim.capture.frames() == want.capture.frames()
        assert sim._rng.getstate() == want._rng.getstate()
        assert got == want_got
        assert heard == bool(got)

    def test_not_joined(self, sim):
        sim.create_network("net-a", "password-a")
        lone = sim.register("lone")
        with pytest.raises(NotJoined):
            sim.broadcast(lone, 30011, 1)

    def test_payload_bounds(self, sim):
        sim.create_network("net-a", "password-a")
        tx = sim.register("tx")
        sim.join(tx, "net-a", "password-a")
        with pytest.raises(InvalidLength):
            sim.broadcast(tx, 30011, 0)
        with pytest.raises(InvalidLength):
            sim.broadcast(tx, 30011, 2049)

    def test_cross_network_silence(self, sim):
        sim.create_network("net-a", "password-a")
        sim.create_network("net-b", "password-b")
        tx = sim.register("tx")
        rx_b = sim.register("rx-b")
        sim.join(tx, "net-a", "password-a")
        sim.join(rx_b, "net-b", "password-b")
        got = []
        sim.set_datagram_handler(rx_b, 30011, recorder(got))
        for _ in range(50):
            sim.broadcast_lengths(tx, 30011, (2,), ssid="net-a")
        assert got == []
        bad = [
            row for row in sim.capture.rows()
            if row[5] == "deliver" and row[6] == "rx-b"
        ]
        assert bad == []

    def test_seeded_loss_matches_independent_replay(self):
        # oracle: replay the documented draw sequence outside the broker
        drop, dup, seed, frames = 0.2, 0.0, 99, 1000
        sim = fresh_sim(drop=drop, dup=dup, seed=seed)
        sim.create_network("net-a", "password-a")
        tx = sim.register("tx")
        rx = sim.register("rx")
        sim.join(tx, "net-a", "password-a")
        sim.join(rx, "net-a", "password-a")
        got = []
        sim.set_datagram_handler(rx, 30011, recorder(got))
        for _ in range(frames):
            sim.broadcast(tx, 30011, 3)
        delivered = len(got)

        rng = random.Random(seed)
        expected = 0
        for _ in range(frames):
            if rng.random() >= drop:
                expected += 1
                if rng.random() < dup:
                    expected += 1
        assert delivered == expected

    def test_lossy_fan_out_matches_independent_replay(self):
        # oracle for fan-out to several receivers: per receiver in join
        # order (the sender skipped), one drop draw, then one dup draw only
        # if the frame was delivered; a duplicate follows its original
        drop, dup, seed, port = 0.2, 0.15, 99, 30011
        sim = fresh_sim(drop=drop, dup=dup, seed=seed)
        sim.create_network("net-a", "password-a")
        sim.create_network("net-b", "password-b")
        names = ["rx-d", "rx-b", "tx", "rx-a", "rx-c"]
        eps = {name: sim.register(name) for name in names}
        for name in names:
            sim.join(eps[name], "net-a", "password-a")
        elsewhere = sim.register("rx-e")
        sim.join(elsewhere, "net-b", "password-b")
        handled = []

        def on_datagram(src, lengths):
            assert src == "tx"
            handled.extend(lengths)
            return len(lengths), None

        sim.set_datagram_handler(eps["rx-b"], port, on_datagram)
        recorded = [eps["rx-d"], eps["rx-a"], eps["rx-c"], eps["tx"], elsewhere]
        got = {ep: [] for ep in recorded}
        for ep in recorded:
            sim.set_datagram_handler(ep, port, recorder(got[ep]))
        draw = random.Random(7)
        lengths = [draw.randint(1, 2048) for _ in range(400)]
        for length in lengths:
            sim.broadcast(eps["tx"], port, length)

        rng = random.Random(seed)
        receivers = [name for name in names if name != "tx"]
        records, delivered = [], {name: [] for name in receivers}
        for length in lengths:
            records.append(("bcast", None, length))
            for name in receivers:
                if rng.random() < drop:
                    records.append(("drop", name, length))
                    continue
                copies = 2 if rng.random() < dup else 1
                records.extend([("deliver", name, length)] * copies)
                delivered[name].extend([length] * copies)
        snap = [CaptureEntry(*row) for row in sim.capture.rows()]
        assert [(e.kind, e.dst, e.len) for e in snap] == records
        assert {(e.t, e.ssid, e.src, e.port) for e in snap} == {
            (1_613_000_000, "net-a", "tx", port)}
        assert {"drop", "deliver"} <= {record[0] for record in records}
        assert any(a == b and a[0] == "deliver" for a, b in zip(records, records[1:]))
        assert handled == delivered["rx-b"]
        for name in ("rx-d", "rx-a", "rx-c"):
            assert got[name] == [("tx", length) for length in delivered[name]]
        assert got["tx"] == got["rx-e"] == []

    def test_handler_stream_send_follows_the_fan_out_records(self):
        sim = fresh_sim(drop=0.3, dup=0.3, seed=4)
        sim.create_network("net-a", "password-a")
        tx = sim.register("tx")
        rxs = [sim.register(f"rx-{i}") for i in range(4)]
        hub = sim.register("hub", wan=True)
        for ep in [rxs[0], tx, *rxs[1:]]:
            sim.join(ep, "net-a", "password-a")
        sim.set_stream_handler(hub, 6668, lambda end, src: None)
        end = sim.open_stream(rxs[0], hub, 6668)
        # one delivery per take, answered on the stream in its then
        sim.set_datagram_handler(
            rxs[0], 30011, lambda src, lengths: (1, lambda: end.send(b"\x55" * lengths[0])))
        for _ in range(50):
            sim.broadcast(tx, 30011, 3)
        snap = sim.capture.rows()
        starts = [i for i, row in enumerate(snap) if row[5] == "bcast"] + [len(snap)]
        streams = 0
        for start, stop in zip(starts, starts[1:]):
            kinds = [row[5] for row in snap[start + 1:stop]]
            fan_out = len(kinds) - kinds.count("stream")
            assert set(kinds[:fan_out]) <= {"deliver", "drop"}
            assert set(kinds[fan_out:]) <= {"stream"}
            delivered = [row for row in snap[start + 1:stop]
                         if row[5] == "deliver" and row[6] == "rx-0"]
            assert kinds.count("stream") == len(delivered)
            streams += len(delivered)
        assert streams > 0

    def test_duplication_delivers_twice(self):
        sim = fresh_sim(drop=0.0, dup=1.0, seed=5)
        sim.create_network("net-a", "password-a")
        tx = sim.register("tx")
        rx = sim.register("rx")
        sim.join(tx, "net-a", "password-a")
        sim.join(rx, "net-a", "password-a")
        got = []
        sim.set_datagram_handler(rx, 30011, recorder(got))
        sim.broadcast(tx, 30011, 3)
        assert got == [(tx, 3), (tx, 3)]

    def test_drops_recorded_as_sent_not_delivered(self):
        sim = fresh_sim(drop=1.0)
        sim.create_network("net-a", "password-a")
        tx = sim.register("tx")
        rx = sim.register("rx")
        sim.join(tx, "net-a", "password-a")
        sim.join(rx, "net-a", "password-a")
        sim.broadcast(tx, 30011, 3)
        kinds = [row[5] for row in sim.capture.rows()]
        assert kinds == ["bcast", "drop"]

    def test_closed_port_keeps_its_records_but_runs_and_buffers_nothing(self):
        def run(port):
            sim = fresh_sim(drop=0.2, dup=0.15, seed=3)
            sim.create_network("net-a", "password-a")
            eps = {name: sim.register(name) for name in ("tx", "rx-a", "rx-b", "rx-c")}
            for ep in eps.values():
                sim.join(ep, "net-a", "password-a")
            got = {name: [] for name in ("rx-a", "rx-b", "rx-c")}
            for name in got:
                if name != "rx-b" or port != "never opened":
                    sim.set_datagram_handler(eps[name], 30011, recorder(got[name]))
            if port == "closed":
                sim.set_datagram_handler(eps["rx-b"], 30011, None)
            for length in range(1, 300):
                sim.broadcast(eps["tx"], 30011, length)
            return sim, eps, got

        for port in ("closed", "never opened"):
            open_sim, open_eps, open_got = run("open")
            sim, eps, got = run(port)
            # every draw shows in the records, so equal records mean equal draws
            assert sim.capture.rows() == open_sim.capture.rows()
            assert open_got["rx-b"] and got == {**open_got, "rx-b": []}
            # a handler set later opens the port
            sim.set_datagram_handler(eps["rx-b"], 30011, recorder(got["rx-b"]))
            opened = len(open_got["rx-b"])
            for s, ep in ((sim, eps), (open_sim, open_eps)):
                for _ in range(20):
                    s.broadcast(ep["tx"], 30011, 8)
            assert got["rx-b"] and got["rx-b"] == open_got["rx-b"][opened:]
            assert sim.capture.rows() == open_sim.capture.rows()

    def test_handler_gets_frames_synchronously(self, sim):
        sim.create_network("net-a", "password-a")
        tx = sim.register("tx")
        rx = sim.register("rx")
        sim.join(tx, "net-a", "password-a")
        sim.join(rx, "net-a", "password-a")
        seen = []
        sim.set_datagram_handler(rx, 30011, recorder(seen))
        sim.broadcast(tx, 30011, 4)
        assert seen == [(tx, 4)]

    def test_offline_sender_raises_before_any_record(self):
        sim = fresh_sim(drop=0.3, dup=0.3, seed=2)
        sim.create_network("net-a", "password-a")
        tx, rx = sim.register("tx"), sim.register("rx")
        for ep in (tx, rx):
            sim.join(ep, "net-a", "password-a")
        got = []
        sim.set_datagram_handler(rx, 30011, recorder(got))
        sim.set_online(tx, False)
        with pytest.raises(PeerUnreachable):
            sim.broadcast(tx, 30011, 3)
        with pytest.raises(PeerUnreachable):
            sim.broadcast_lengths(tx, 30011, [3, 4])
        assert sim.capture.rows() == [] and got == []
        assert sim._rng.getstate() == random.Random(2).getstate()
        sim.set_online(tx, True)
        sim.broadcast(tx, 30011, 3)
        assert sim.capture.rows()[0][5] == "bcast"

    def test_offline_member_gets_no_record_draw_or_handler_call(self):
        def run(offline_member):
            # with offline_member, rx-b joins but is offline; else it never joins
            sim = fresh_sim(drop=0.2, dup=0.2, seed=6)
            sim.create_network("net-a", "password-a")
            eps = {name: sim.register(name) for name in ("tx", "rx-a", "rx-b", "rx-c")}
            for name, ep in eps.items():
                if name != "rx-b" or offline_member:
                    sim.join(ep, "net-a", "password-a")
            calls = []
            sim.set_datagram_handler(eps["rx-b"], 30011, recorder(calls))
            if offline_member:
                sim.set_online(eps["rx-b"], False)
            sim.broadcast_lengths(eps["tx"], 30011, list(range(1, 200)))
            return sim, eps, calls

        absent, _, _ = run(offline_member=False)
        sim, eps, calls = run(offline_member=True)
        assert sim.capture.rows() == absent.capture.rows()
        assert sim._rng.getstate() == absent._rng.getstate()
        assert calls == [] and not sim.is_online(eps["rx-b"])
        # back online, it is a receiver again in its join position
        sim.set_online(eps["rx-b"], True)
        before = len(sim.capture.rows())
        sim.broadcast(eps["tx"], 30011, 1)
        receivers = [row[6] for row in sim.capture.rows()[before + 1:]]
        assert list(dict.fromkeys(receivers)) == ["rx-a", "rx-b", "rx-c"]


T0, PORT = 1_613_000_000, dpl.PROVISION_PORT
BURST_RX = ("rx-a", "rx-b", "rx-c", "rx-d")
BURST_RATES = st.sampled_from([0.0, 0.15, 0.5, 1.0])
# what a receiver's handler does on one of its calls; "close" and "leave" act
# on its own receiver, "open" sets a receiver's port to a handler, "send"
# broadcasts a frame of that length from its own receiver on net-a, and the
# rest act on net-a or on the whole simulation
BURST_ACTIONS = (
    st.sampled_from([("leave",), ("close",), ("clock",), ("sender-joins-b",)])
    | st.tuples(st.sampled_from(["join", "open"]), st.sampled_from(BURST_RX))
    | st.tuples(st.sampled_from(["offline", "online"]), st.sampled_from(("tx",) + BURST_RX))
    | st.tuples(st.just("loss"), BURST_RATES, BURST_RATES)
    | st.tuples(st.just("send"), st.integers(1, 2048))
)


@st.composite
def _burst_case(draw):
    """``tx`` sends a burst of filler lengths, perhaps with one invalid
    length among them, to receivers that handle the port or leave it
    closed; a handler's n-th call may act as ``BURST_ACTIONS`` says."""
    order = draw(st.permutations(("tx",) + BURST_RX))
    lengths = draw(st.lists(st.integers(1, 2048), min_size=4, max_size=40))
    if draw(st.integers(0, 2)) == 0:
        lengths.insert(draw(st.integers(0, len(lengths))),
                       draw(st.sampled_from([0, 2049, True, 3.0])))
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "drop": draw(BURST_RATES),
        "dup": draw(BURST_RATES),
        "net-a": [name for name in order if name == "tx" or draw(st.booleans())],
        "net-b": [name for name in BURST_RX if draw(st.booleans())],
        "ports": {name: draw(st.sampled_from(["handler", "handler", "closed"]))
                  for name in BURST_RX},
        "scripts": {name: draw(st.dictionaries(st.integers(0, 4), BURST_ACTIONS, max_size=3))
                    for name in BURST_RX},
        "ssid": draw(st.sampled_from([None, "net-a"])),
        "lengths": lengths,
    }


def _burst_oracle(case):
    """Replay a burst one frame at a time from the documented contract: per
    frame the ``bcast`` record, then per receiving online member in join
    order one drop draw and, if delivered, one dup draw; then handlers run
    in delivery order, and a frame a handler sends is replayed the same way
    inside it.  An offline sender raises ``PeerUnreachable``.  Returns
    (rows, handler calls, rng state, error type)."""
    rng = random.Random(case["seed"])
    drop, dup, t = case["drop"], case["dup"], T0
    members = {ssid: list(case[ssid]) for ssid in ("net-a", "net-b")}
    ports, seen, offline = dict(case["ports"], tx="closed"), dict.fromkeys(BURST_RX, 0), set()
    rows, calls = [], []

    def send(src, ssid, length):
        nonlocal drop, dup, t
        if type(length) is not int or not 1 <= length <= 2048:
            raise InvalidLength
        if src in offline:
            raise PeerUnreachable
        joined = [net for net, names in members.items() if src in names]
        if ssid is None:
            if len(joined) != 1:
                raise NotJoined
            ssid = joined[0]
        if ssid not in joined:
            raise NotJoined
        record = (t, ssid, src, PORT, length)
        rows.append(record + ("bcast", None))
        deliveries = []
        for name in members[ssid]:
            if name == src or name in offline:
                continue
            if rng.random() < drop:
                rows.append(record + ("drop", name))
                continue
            copies = 2 if rng.random() < dup else 1
            rows.extend([record + ("deliver", name)] * copies)
            deliveries.extend([name] * copies)
        for name in deliveries:
            if ports[name] != "handler":
                continue
            calls.append((name, src, length))
            action = case["scripts"][name].get(seen[name], ("none",))
            seen[name] += 1
            if action[0] == "leave" and name in members["net-a"]:
                members["net-a"].remove(name)
            elif action[0] == "join" and action[1] not in members["net-a"]:
                members["net-a"].append(action[1])
            elif action[0] == "close":
                ports[name] = "closed"
            elif action[0] == "open":
                ports[action[1]] = "handler"
            elif action[0] == "clock":
                t += 1
            elif action[0] == "loss":
                drop, dup = action[1:]
            elif action[0] == "sender-joins-b" and "tx" not in members["net-b"]:
                members["net-b"].append("tx")
            elif action[0] == "offline":
                offline.add(action[1])
            elif action[0] == "online":
                offline.discard(action[1])
            elif action[0] == "send":
                send(name, "net-a", action[1])

    try:
        for length in case["lengths"]:
            send("tx", case["ssid"], length)
    except (InvalidLength, NotJoined, PeerUnreachable) as exc:
        return rows, calls, rng.getstate(), type(exc)
    return rows, calls, rng.getstate(), None


def _burst_sim(case, snapshots=None):
    """The case's simulation and endpoints, with its receivers' ports set;
    returns (sim, endpoints, handler calls), a call per delivery taken.  Each
    delivery taken appends ``capture.frames()`` to ``snapshots`` when it is
    given."""
    sim = fresh_sim(drop=case["drop"], dup=case["dup"], seed=case["seed"])
    eps = {name: sim.register(name) for name in ("tx",) + BURST_RX}
    for ssid, passphrase in (("net-a", "password-a"), ("net-b", "password-b")):
        sim.create_network(ssid, passphrase)
        for name in case[ssid]:
            sim.join(eps[name], ssid, passphrase)
    calls, seen = [], dict.fromkeys(BURST_RX, 0)

    def handler_of(name):
        def on_datagram(src, lengths):
            # a scripted call is the last delivery taken; its action is the then
            assert src in eps
            for taken, length in enumerate(lengths, 1):
                calls.append((name, src, length))
                if snapshots is not None:
                    snapshots.append(sim.capture.frames())
                action = case["scripts"][name].get(seen[name], ("none",))
                seen[name] += 1
                if action[0] != "none":
                    return taken, lambda: act(action)
            return len(lengths), None

        def act(action):
            if action[0] == "leave":
                sim.leave(eps[name], "net-a")
            elif action[0] == "join":
                sim.join(eps[action[1]], "net-a", "password-a")
            elif action[0] == "close":
                sim.set_datagram_handler(eps[name], PORT, None)
            elif action[0] == "open":
                sim.set_datagram_handler(eps[action[1]], PORT, handler_of(action[1]))
            elif action[0] == "clock":
                sim.clock.advance(1)
            elif action[0] == "loss":
                sim.loss.drop_prob, sim.loss.dup_prob = action[1:]
            elif action[0] == "sender-joins-b":
                sim.join(eps["tx"], "net-b", "password-b")
            elif action[0] in ("offline", "online"):
                sim.set_online(eps[action[1]], action[0] == "online")
            elif action[0] == "send":
                sim.broadcast_lengths(eps[name], PORT, [action[1]], "net-a")

        return on_datagram

    for name, mode in case["ports"].items():
        if mode == "handler":  # a closed port is one never opened; "close" sets None
            sim.set_datagram_handler(eps[name], PORT, handler_of(name))
    return sim, eps, calls


def _run_burst(case):
    """Send the case's burst through ``Simulation.broadcast_lengths``; returns what
    :func:`_burst_oracle` does, as the simulation saw it."""
    sim, eps, calls = _burst_sim(case)
    error = None
    try:
        sent = sim.broadcast_lengths(eps["tx"], PORT, case["lengths"], ssid=case["ssid"])
        assert sent == len(case["lengths"])
    except (InvalidLength, NotJoined, PeerUnreachable) as exc:
        error = type(exc)
    return sim.capture.rows(), calls, sim._rng.getstate(), error


class TestBurst:
    @settings(max_examples=300, deadline=None)
    @given(case=_burst_case())
    @example(case={
        "seed": 1, "drop": 0.0, "dup": 0.0, "net-a": ["tx", "rx-a", "rx-b"], "net-b": [],
        "ports": {"rx-a": "handler", "rx-b": "closed", "rx-c": "closed", "rx-d": "handler"},
        # frame 1 adds rx-d; frame 2 closes rx-d's port and makes ssid None ambiguous
        "scripts": {"rx-a": {0: ("join", "rx-d"), 1: ("sender-joins-b",)}, "rx-b": {},
                    "rx-c": {}, "rx-d": {0: ("close",)}},
        "ssid": None, "lengths": [5, 6, 7, 8],
    })
    @example(case={
        "seed": 2, "drop": 0.0, "dup": 1.0, "net-a": ["tx", "rx-a", "rx-b", "rx-c"],
        "net-b": [], "ports": {"rx-a": "handler", "rx-b": "closed", "rx-c": "closed",
                               "rx-d": "closed"},
        # in frame 1, rx-a's first copy opens rx-c's port, so rx-c gets both
        # copies; rx-a's second copy sends a frame, whose draws and deliveries
        # come before frame 1 reaches rx-b, and rx-c's second call sends too
        "scripts": {"rx-a": {0: ("open", "rx-c"), 1: ("send", 9)}, "rx-b": {},
                    "rx-c": {1: ("send", 3)}, "rx-d": {}},
        "ssid": "net-a", "lengths": [5, 6],
    })
    @example(case={
        # no port open from the first frame; the fourth length is bad
        "seed": 3, "drop": 0.15, "dup": 0.5, "net-a": ["tx", "rx-a", "rx-b", "rx-c"],
        "net-b": [], "ports": dict.fromkeys(BURST_RX, "closed"),
        "scripts": {name: {} for name in BURST_RX},
        "ssid": "net-a", "lengths": [5, 6, 7, 0, 9, 10, 11, 12, 13, 14],
    })
    @example(case={
        # rx-a's third call, frame 1's first copy, closes the last open port
        "seed": 4, "drop": 0.0, "dup": 1.0, "net-a": ["tx", "rx-a", "rx-b", "rx-c"],
        "net-b": [], "ports": {"rx-a": "handler", "rx-b": "closed", "rx-c": "closed",
                               "rx-d": "closed"},
        "scripts": {"rx-a": {2: ("close",)}, "rx-b": {}, "rx-c": {}, "rx-d": {}},
        "ssid": "net-a", "lengths": list(range(100, 140)),
    })
    @example(case={
        # rx-a's first copy opens rx-b's port, its second closes rx-a's own:
        # rx-b hears every later frame
        "seed": 5, "drop": 0.0, "dup": 1.0, "net-a": ["tx", "rx-a", "rx-b", "rx-c"],
        "net-b": [], "ports": {"rx-a": "handler", "rx-b": "closed", "rx-c": "closed",
                               "rx-d": "closed"},
        "scripts": {"rx-a": {0: ("open", "rx-b"), 1: ("close",)}, "rx-b": {}, "rx-c": {},
                    "rx-d": {}},
        "ssid": "net-a", "lengths": [5, 6, 7, 8, 9],
    })
    @example(case={
        # a frame with no receiver, then a bad length
        "seed": 6, "drop": 0.5, "dup": 0.5, "net-a": ["tx"], "net-b": ["rx-a"],
        "ports": dict.fromkeys(BURST_RX, "handler"),
        "scripts": {name: {} for name in BURST_RX},
        "ssid": None, "lengths": [5, 2049],
    })
    @example(case={
        # as seed 3, at rates that make every outcome certain
        "seed": 7, "drop": 0.0, "dup": 0.0, "net-a": ["tx", "rx-a", "rx-b", "rx-c"],
        "net-b": [], "ports": dict.fromkeys(BURST_RX, "closed"),
        "scripts": {name: {} for name in BURST_RX},
        "ssid": "net-a", "lengths": [5, 6, 7, 0, 9, 10, 11, 12, 13, 14],
    })
    @example(case={
        # as seed 6, at rates that make every outcome certain
        "seed": 8, "drop": 1.0, "dup": 0.5, "net-a": ["tx"], "net-b": ["rx-a"],
        "ports": dict.fromkeys(BURST_RX, "handler"),
        "scripts": {name: {} for name in BURST_RX},
        "ssid": None, "lengths": [5, 2049],
    })
    @example(case={
        # a lossy single listener closes its port on its fourth delivery: the run
        # stops inside its chunk and the generator is rewound to that frame
        "seed": 21, "drop": 0.15, "dup": 0.15, "net-a": ["tx", "rx-a", "rx-b", "rx-c"],
        "net-b": [], "ports": {"rx-a": "closed", "rx-b": "handler", "rx-c": "closed",
                               "rx-d": "closed"},
        "scripts": {"rx-a": {}, "rx-b": {3: ("close",)}, "rx-c": {}, "rx-d": {}},
        "ssid": "net-a", "lengths": list(range(200, 240)),
    })
    @example(case={
        # every delivered frame comes twice: rx-a's first copy opens rx-c, which
        # hears the rest of that frame, and its third call, a first copy, closes
        # rx-a before the second copy
        "seed": 22, "drop": 0.15, "dup": 1.0, "net-a": ["tx", "rx-a", "rx-b", "rx-c"],
        "net-b": [], "ports": {"rx-a": "handler", "rx-b": "closed", "rx-c": "closed",
                               "rx-d": "closed"},
        "scripts": {"rx-a": {0: ("open", "rx-c"), 2: ("close",)}, "rx-b": {}, "rx-c": {},
                    "rx-d": {}},
        "ssid": "net-a", "lengths": list(range(300, 320)),
    })
    @example(case={
        # 700 frames to four receivers are two chunks of draws; rx-d's 561st
        # delivery, in the second chunk and a first copy, advances the clock
        "seed": 23, "drop": 0.15, "dup": 0.15,
        "net-a": ["tx", "rx-a", "rx-b", "rx-c", "rx-d"], "net-b": [],
        "ports": {"rx-a": "closed", "rx-b": "closed", "rx-c": "closed", "rx-d": "handler"},
        "scripts": {"rx-a": {}, "rx-b": {}, "rx-c": {}, "rx-d": {560: ("clock",)}},
        "ssid": "net-a", "lengths": list(range(1000, 1700)),
    })
    @example(case={
        # two open ports hear one frame at a time; rx-a changes the rates and
        # rx-c closes, which leaves one listener for the rest of the burst
        "seed": 24, "drop": 0.15, "dup": 0.15, "net-a": ["tx", "rx-a", "rx-b", "rx-c"],
        "net-b": [], "ports": {"rx-a": "handler", "rx-b": "closed", "rx-c": "handler",
                               "rx-d": "closed"},
        "scripts": {"rx-a": {1: ("loss", 0.5, 0.0)}, "rx-b": {}, "rx-c": {2: ("close",)},
                    "rx-d": {}},
        "ssid": "net-a", "lengths": list(range(50, 80)),
    })
    @example(case={
        # a then that broadcasts, on a lossless link and inside a lossy chunk
        "seed": 25, "drop": 0.0, "dup": 0.0, "net-a": ["tx", "rx-a", "rx-b"], "net-b": [],
        "ports": {"rx-a": "handler", "rx-b": "closed", "rx-c": "closed", "rx-d": "closed"},
        "scripts": {"rx-a": {1: ("send", 1234), 3: ("send", 7)}, "rx-b": {}, "rx-c": {},
                    "rx-d": {}},
        "ssid": "net-a", "lengths": list(range(10, 20)),
    })
    @example(case={
        "seed": 26, "drop": 0.5, "dup": 0.5, "net-a": ["tx", "rx-a", "rx-b"], "net-b": [],
        "ports": {"rx-a": "handler", "rx-b": "handler", "rx-c": "closed", "rx-d": "closed"},
        "scripts": {"rx-a": {0: ("send", 99), 1: ("close",)}, "rx-b": {}, "rx-c": {},
                    "rx-d": {}},
        "ssid": "net-a", "lengths": list(range(10, 40)),
    })
    def test_broadcast_lengths_matches_per_frame_oracle(self, case):
        rows, calls, rng_state, error = _run_burst(case)
        want_rows, want_calls, want_state, want_error = _burst_oracle(case)
        assert rows == want_rows
        assert rng_state == want_state
        assert calls == want_calls
        assert error is want_error
        if error is InvalidLength:
            # the frames before the bad length went out, none after it
            bad = next(i for i, n in enumerate(case["lengths"])
                       if type(n) is not int or not 1 <= n <= 2048)
            sent = [row[4] for row in rows if row[5] == "bcast" and row[2] == "tx"]
            assert sent == case["lengths"][:bad]

    @pytest.mark.parametrize("drop", [-0.5, 0.0, 1.0, 1.5, math.nan])
    @pytest.mark.parametrize("dup", [-0.5, 0.0, 1.0, 1.5, math.nan])
    def test_burst_takes_every_draw_at_any_rate(self, drop, dup):
        """Three receivers with closed ports, and rx-c, whose handler sets the
        rates and closes its port on its first call, so that no receiver hears
        the rest of the burst: rows, calls and the generator match a replay of
        one ``random() < rate`` draw per decision."""
        sim = fresh_sim(seed=11)
        sim.create_network("net-a", "password-a")
        eps = {name: sim.register(name) for name in ("tx",) + BURST_RX}
        for ep in eps.values():
            sim.join(ep, "net-a", "password-a")
        calls = []

        def close_on_first_call(src, lengths):
            calls.append(lengths[0])

            def then():
                sim.loss.drop_prob, sim.loss.dup_prob = drop, dup
                sim.set_datagram_handler(eps["rx-c"], PORT, None)

            return 1, then

        sim.set_datagram_handler(eps["rx-c"], PORT, close_on_first_call)
        lengths = list(range(3, 53))
        assert sim.broadcast_lengths(eps["tx"], PORT, lengths) == 50

        rng, want_frames = random.Random(11), []
        for k, length in enumerate(lengths):
            frame_drop, frame_dup = (drop, dup) if k else (0.0, 0.0)
            outcomes = []
            for _ in BURST_RX:
                if rng.random() < frame_drop:
                    outcomes.append(0)
                else:
                    outcomes.append(2 if rng.random() < frame_dup else 1)
            want_frames.append((T0, "net-a", "tx", PORT, length, "bcast", BURST_RX,
                                bytes(outcomes)))
        assert sim.capture.frames() == want_frames
        assert calls == [3]
        assert sim._rng.getstate() == rng.getstate()


def _listening(drop=0.0, dup=0.0):
    """``tx`` and ``rx`` on net-a, and ``hub`` on the WAN listening on 6668."""
    sim = fresh_sim(drop=drop, dup=dup, seed=12)
    sim.create_network("net-a", "password-a")
    tx, rx, hub = sim.register("tx"), sim.register("rx"), sim.register("hub", wan=True)
    for ep in (tx, rx):
        sim.join(ep, "net-a", "password-a")
    sim.set_stream_handler(hub, 6668, lambda end, src: None)
    return sim, tx, rx, hub


# what a take may not do: each changes the simulation
IN_TAKE = {
    "port": lambda sim, rx, end: sim.set_datagram_handler(rx, PORT, None),
    "leave": lambda sim, rx, end: sim.leave(rx, "net-a"),
    "presence": lambda sim, rx, end: sim.set_online("tx", False),
    "clock": lambda sim, rx, end: sim.clock.advance(1),
    "loss": lambda sim, rx, end: setattr(sim.loss, "drop_prob", 0.5),
    "broadcast": lambda sim, rx, end: sim.broadcast(rx, PORT, 7),
    "stream": lambda sim, rx, end: end.send(b"x"),
}


class TestRuns:
    """A handler hears a run and acts only in its ``then``."""

    @pytest.mark.parametrize("change", IN_TAKE.values(), ids=IN_TAKE)
    @pytest.mark.parametrize("drop", [0.0, 0.2], ids=["lossless", "lossy"])
    def test_a_take_that_changes_the_simulation_is_rejected(self, change, drop):
        sim, tx, rx, hub = _listening(drop=drop)
        end = sim.open_stream(rx, hub, 6668)

        def hear(src, lengths):
            change(sim, rx, end)
            return len(lengths), None

        sim.set_datagram_handler(rx, PORT, hear)
        with pytest.raises(NetSimError, match="changed the simulation while it took a run"):
            sim.broadcast_lengths(tx, PORT, list(range(100, 140)))

    def test_the_same_change_in_the_then_is_heard_from_the_next_delivery(self):
        sim, tx, rx, _hub = _listening()
        got = []

        def hear(src, lengths):
            got.extend(lengths[:2])
            return 2, lambda: sim.set_datagram_handler(rx, PORT, None)

        sim.set_datagram_handler(rx, PORT, hear)
        assert sim.broadcast_lengths(tx, PORT, [5, 6, 7, 8]) == 4
        assert got == [5, 6]
        assert [frame[7] for frame in sim.capture.frames()] == [b"\x01"] * 4

    @pytest.mark.parametrize("taken", [0, 5, -1, 2.0], ids=str)
    def test_a_take_of_no_delivery_or_more_than_the_run_is_rejected(self, taken):
        sim, tx, rx, _hub = _listening()
        sim.set_datagram_handler(rx, PORT, lambda src, lengths: (taken, None))
        with pytest.raises(NetSimError, match=f"took {taken!r} of 4 deliveries"):
            sim.broadcast_lengths(tx, PORT, [5, 6, 7, 8])

    @pytest.mark.parametrize("drop, dup, runs", [(0.0, 0.0, 1), (0.0, 1.0, 1), (0.1, 0.05, 2)])
    def test_one_listener_hears_a_burst_in_few_runs(self, drop, dup, runs):
        """One run for the whole burst when every outcome is certain; on a lossy
        link, one per chunk of draws, not one per delivery."""
        sim, tx, rx, _hub = _listening(drop=drop, dup=dup)
        lengths = GENUINE * 8
        assert CHUNK_SLOTS < len(lengths) <= 2 * CHUNK_SLOTS
        heard = []

        def hear(src, run):
            heard.append(len(run))
            return len(run), None

        sim.set_datagram_handler(rx, PORT, hear)
        sim.broadcast_lengths(tx, PORT, lengths)
        assert len(heard) == runs
        assert sum(heard) == sum(sum(frame[7]) for frame in sim.capture.frames())


class TestGeneratorFacts:
    """What both draw paths of ``broadcast_lengths`` rely on: one step of
    ``getrandbits(64 * n)`` for n draws of ``random()``, and a ``setstate``
    rewind that replays the stream."""

    @pytest.mark.parametrize("seed", [0, 1, 12, 2026, 2**32 - 1])
    def test_getrandbits_of_64_n_bits_leaves_the_state_of_n_random_calls(self, seed):
        stepped = random.Random(seed)
        for n in range(301):
            bulk = random.Random(seed)
            bulk.getrandbits(64 * n)
            assert bulk.getstate() == stepped.getstate(), n
            stepped.random()

    @pytest.mark.parametrize("seed", [0, 7, 2026])
    def test_a_setstate_rewind_replays_the_same_stream(self, seed):
        rng = random.Random(seed)
        rng.random()
        mark = rng.getstate()
        first = [rng.random() for _ in range(60)]
        for k in (0, 1, 17, 60):
            rng.setstate(mark)
            rng.getrandbits(64 * k)
            assert [rng.random() for _ in range(60 - k)] == first[k:]


GENUINE = dpl.encode(dpl.Credentials("home-net", "hunter2-long", "t" * 32), rounds=2)


class TestFrames:
    """``CaptureLog.frames`` keeps one row per broadcast frame; every reader
    of those rows sees what the expanded records of ``rows`` show."""

    @settings(max_examples=150, deadline=None)
    @given(case=_burst_case())
    def test_frame_readers_agree_with_row_readers(self, case):
        taken = []  # the frames as each handler call saw them
        sim, eps, _calls = _burst_sim(case, taken)
        hub = sim.register("hub", wan=True)
        sim.set_stream_handler(hub, 6668, lambda end, src: None)
        uplink = sim.open_stream(eps["rx-b"], hub, 6668)
        # a genuine broadcast, a stream send and the case's burst, while
        # handlers change membership, ports, loss and presence
        for step in (lambda: sim.broadcast_lengths(eps["tx"], PORT, GENUINE, case["ssid"]),
                     lambda: uplink.send(b"status"),
                     lambda: sim.broadcast_lengths(eps["tx"], PORT, case["lengths"],
                                                   case["ssid"])):
            try:
                step()
            except (InvalidLength, NotJoined, PeerUnreachable):
                pass
        frames, rows = sim.capture.frames(), sim.capture.rows()
        # a read from inside a burst holds the frames sent so far
        for snap in taken:
            assert snap == frames[:len(snap)]
        for frame in frames:
            if frame[5] == "bcast":
                assert len(frame) == 8 and len(frame[6]) == len(frame[7])
                assert set(frame[7]) <= {0, 1, 2}
            else:
                assert frame[1:] == ("wan", "rx-b", 6668, 6, "stream", "hub")

        def decoded(capture_rows):
            return [(src, state.phase, state.credentials)
                    for src, state in dpl.decode_capture(capture_rows)]

        assert decoded(frames) == decoded(rows)
        world = SimpleNamespace(sim=sim)
        for src in ("tx", "hub") + BURST_RX:
            assert scenarios._frames_from(world, src) == [row[2] for row in rows].count(src)

    def test_a_burst_to_closed_ports_stores_one_small_row_per_frame(self):
        sim = fresh_sim(drop=0.1, dup=0.05, seed=8)
        sim.create_network("net-a", "password-a")
        tx = sim.register("tx")
        sim.join(tx, "net-a", "password-a")
        for i in range(32):
            rx = sim.register(f"rx-{i:02d}")
            sim.join(rx, "net-a", "password-a")
            sim.set_datagram_handler(rx, PORT, None)
        lengths = [1 + i % 600 for i in range(1000)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sim.broadcast_lengths(tx, PORT, lengths)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(sim.capture.frames()) == 1000
        # about 0.2 MB as one row per frame; a record per receiver is 3.6 MB
        assert grown < 500_000


class TestDeterminism:
    @staticmethod
    def _run(seed):
        sim = fresh_sim(drop=0.25, dup=0.15, seed=seed)
        sim.create_network("net-a", "password-a")
        tx = sim.register("tx")
        rx = sim.register("rx")
        sim.join(tx, "net-a", "password-a")
        sim.join(rx, "net-a", "password-a")
        rng = random.Random(7)
        for _ in range(300):
            sim.clock.advance(1)
            sim.broadcast(tx, 30011, rng.randint(1, 64))
        return sim.capture.to_jsonl()

    def test_identical_seed_identical_capture(self):
        assert self._run(4242) == self._run(4242)

    def test_different_seed_differs(self):
        assert self._run(1) != self._run(2)


class TestStreams:
    def _pair(self, sim):
        sim.create_network("net-a", "password-a")
        a = sim.register("a")
        b = sim.register("b")
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
        a = sim.register("a")
        b = sim.register("b")
        sim.join(a, "net-a", "password-a")
        sim.join(b, "net-b", "password-b")
        sim.set_stream_handler(b, 6668, lambda end, src: None)
        with pytest.raises(PeerUnreachable):
            sim.open_stream(a, b, 6668)

    def test_wan_endpoint_reachable_from_any_network(self, sim):
        sim.create_network("net-a", "password-a")
        a = sim.register("a")
        cloud = sim.register("cloud", wan=True)
        sim.join(a, "net-a", "password-a")
        sim.set_stream_handler(cloud, 6668, lambda end, src: None)
        end = sim.open_stream(a, cloud, 6668)
        end.send(b"hello")
        entries = [row for row in sim.capture.rows() if row[5] == "stream"]
        assert entries[0][1] == "wan"

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

    def test_a_send_after_close_is_unreachable_and_keeps_what_arrived(self, sim):
        a, b = self._pair(sim)
        ends = {}
        sim.set_stream_handler(b, 6668, lambda end, src: ends.setdefault("b", end))
        end_a = sim.open_stream(a, b, 6668)
        end_a.send(b"before")
        frames = sim.capture.frames()
        sim.close()
        for end in (end_a, ends["b"]):
            with pytest.raises(PeerUnreachable, match="the simulation is closed"):
                end.send(b"x")
        assert sim.capture.frames() == frames
        assert ends["b"].recv() == b"before"
        assert (end_a.peer, ends["b"].peer) == (b, a)


# every Simulation entry point that takes an endpoint, given an unregistered one
UNREGISTERED_CALLS = {
    "set_online": lambda sim, ep: sim.set_online(ep, False),
    "is_online": lambda sim, ep: sim.is_online(ep),
    "join": lambda sim, ep: sim.join(ep, "net-a", "password-a"),
    "leave": lambda sim, ep: sim.leave(ep, "net-a"),
    "networks_of": lambda sim, ep: sim.networks_of(ep),
    "set_datagram_handler": lambda sim, ep: sim.set_datagram_handler(ep, 30011, None),
    "broadcast": lambda sim, ep: sim.broadcast(ep, 30011, 1),
    "broadcast_lengths": lambda sim, ep: sim.broadcast_lengths(ep, 30011, [1, 2]),
    "set_stream_handler": lambda sim, ep: sim.set_stream_handler(ep, 6668, None),
    "open_stream-src": lambda sim, ep: sim.open_stream(ep, "b", 6668),
    "open_stream-peer": lambda sim, ep: sim.open_stream("a", ep, 6668),
}


class TestEndpoints:
    @pytest.mark.parametrize("call", UNREGISTERED_CALLS.values(), ids=UNREGISTERED_CALLS)
    def test_an_unregistered_id_is_an_unknown_endpoint(self, sim, call):
        sim.create_network("net-a", "password-a")
        for name in ("a", "b"):
            sim.join(sim.register(name), "net-a", "password-a")
        sim.set_stream_handler("b", 6668, lambda end, src: None)
        sim.broadcast("a", 30011, 1)
        frames = sim.capture.frames()
        with pytest.raises(UnknownEndpoint, match="unregistered endpoint 'b-01'"):
            call(sim, "b-01")
        assert sim.capture.frames() == frames

    def test_an_id_registers_once(self, sim):
        assert sim.register("a") == "a"
        with pytest.raises(NetSimError, match="'a' already registered") as info:
            sim.register("a", wan=True)
        assert info.type is NetSimError


class TestOrdering:
    def test_per_sender_order_and_whole_bursts(self, sim):
        """Four senders take turns, each sending lengths 1, 2, ... to one
        receiver as single broadcasts and 25-frame bursts in alternation.
        Each sender's frames arrive in order, and each burst's frames are
        consecutive in the capture."""
        sim.create_network("net-a", "password-a")
        rx = sim.register("rx")
        sim.join(rx, "net-a", "password-a")
        senders = []
        for i in range(4):
            tx = sim.register(f"tx-{i}")
            sim.join(tx, "net-a", "password-a")
            senders.append(tx)
        got = []
        sim.set_datagram_handler(rx, 30011, recorder(got))
        sent, order = dict.fromkeys(senders, 0), []
        for turn in range(8):
            for i, tx in enumerate(senders):
                first = sent[tx] + 1
                if (turn + i) % 2:
                    lengths = list(range(first, first + 25))
                    assert sim.broadcast_lengths(tx, 30011, lengths) == 25
                else:
                    lengths = [first]
                    sim.broadcast(tx, 30011, first)
                sent[tx] += len(lengths)
                order += [tx] * len(lengths)
        per_sender = {tx: [] for tx in senders}
        for src, length in got:
            per_sender[src].append(length)
        assert per_sender == {tx: list(range(1, 105)) for tx in senders}
        assert [row[2] for row in sim.capture.frames() if row[5] == "bcast"] == order


class TestCaptureFormat:
    def test_jsonl_round_trip(self, sim):
        sim.create_network("net-a", "password-a")
        tx = sim.register("tx")
        rx = sim.register("rx")
        sim.join(tx, "net-a", "password-a")
        sim.join(rx, "net-a", "password-a")
        sim.broadcast(tx, 30011, 3)
        text = sim.capture.to_jsonl()
        for line in text.strip().splitlines():
            rec = json.loads(line)
            assert set(rec) >= {"t", "ssid", "src", "port", "len", "kind"}
        parsed = CaptureLog.parse_jsonl(text)
        assert [e.to_json() for e in parsed] == [
            CaptureEntry(*row).to_json() for row in sim.capture.rows()
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

    def test_mutating_a_snapshot_leaves_the_log_unchanged(self, sim):
        sim.create_network("net-a", "password-a")
        tx = sim.register("tx")
        rx = sim.register("rx")
        sim.join(tx, "net-a", "password-a")
        sim.join(rx, "net-a", "password-a")
        sim.broadcast(tx, 30011, 3)
        before = sim.capture.to_jsonl()
        snap = sim.capture.rows()
        snap[0] = snap[0][:4] + (999,) + snap[0][5:]  # rows() is a fresh list
        snap.clear()
        assert sim.capture.to_jsonl() == before
        assert [CaptureEntry(*row).to_json() for row in sim.capture.rows()] == [
            json.loads(line) for line in before.splitlines()]

    def test_mutating_an_entry_after_append_leaves_the_log_unchanged(self):
        # append copies the fields, so a caller may reuse one entry
        log = CaptureLog()
        entry = CaptureEntry(1, "net-a", "tx", 30011, 3, "bcast")
        log.append(entry)
        entry.kind, entry.dst = "deliver", "rx"
        log.append(entry)
        entry.kind, entry.dst, entry.len = "drop", "rx-2", 999
        assert log.rows() == [
            (1, "net-a", "tx", 30011, 3, "bcast", None),
            (1, "net-a", "tx", 30011, 3, "deliver", "rx"),
        ]

    def test_dst_may_be_null_or_absent(self):
        rec = {"t": 1, "ssid": "x", "src": "a", "port": 30011, "len": 5, "kind": "bcast"}
        parsed = CaptureLog.parse_jsonl(json.dumps(rec) + "\n" + json.dumps({**rec, "dst": None}))
        assert [e.dst for e in parsed] == [None, None]

    @pytest.mark.parametrize("lead", ["\u3000", "\xa0", "\x1c", "\x0c"])
    def test_non_json_whitespace_before_a_record_is_not_json(self, lead):
        # json.loads rejects these; only " \t\r" around a record is whitespace
        rec = json.dumps({"t": 1, "ssid": "x", "src": "a", "port": 30011, "len": 5,
                          "kind": "bcast"})
        with pytest.raises(ValueError, match="^line 2 "):
            CaptureLog.parse_rows(rec + "\n" + lead + rec + "\n")

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85"])
    def test_raw_line_separator_inside_a_string_stays_in_its_line(self, sep):
        rec = {"t": 1, "ssid": "x", "src": f"a{sep}b", "port": 30011, "len": 5,
               "kind": "bcast"}
        for text in (json.dumps(rec, ensure_ascii=False),
                     json.dumps(rec, ensure_ascii=False, sort_keys=True)):
            assert CaptureLog.parse_rows(text + "\n") == [
                (1, "x", f"a{sep}b", 30011, 5, "bcast", None)]

    def test_equal_lines_share_one_row(self):
        # a lossy credential burst in one tick repeats most of its lines
        sim = Simulation(loss=LossModel(drop_prob=0.2, seed=77), clock=SimClock())
        sim.create_network("home-net", "hunter2-long")
        tx = sim.register("phone")
        rx = sim.register("bulb")
        sim.join(tx, "home-net", "hunter2-long")
        sim.join(rx, "home-net", "hunter2-long")
        creds = dpl.Credentials("home-net", "hunter2-long", "t" * 32)
        sim.broadcast_lengths(tx, dpl.PROVISION_PORT, dpl.encode(creds, 5))
        text = sim.capture.to_jsonl()
        rows = CaptureLog.parse_rows(text)
        assert len({id(r) for r in rows}) == len(set(text.split("\n")) - {""})
        assert rows == _oracle_rows(text)


def _oracle_rows(text):
    """Per-line reference parse: the row tuples ``json.loads`` gives, or
    the 1-based number of the first line that is not a capture entry.
    Lines end at "\\n"; a line of JSON whitespace alone is blank."""
    rows = []
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line.strip(" \t\r"):
            continue
        try:
            rec = json.loads(line)
            row = tuple(rec[f] for f in FIELDS[:-1]) + (rec.get("dst"),)
        except (ValueError, KeyError, TypeError, AttributeError, RecursionError):
            return lineno
        t, ssid, src, port, length, kind, dst = row
        if not ({type(t), type(port), type(length)} == {int}
                and {type(ssid), type(src), type(kind)} == {str}
                and (dst is None or type(dst) is str)):
            return lineno
        rows.append(row)
    return rows


TRICKY_STRINGS = st.sampled_from(
    ["", "\u00e9", '"', "\\", "a\"b\\c", "\x85", "\u2028", "\u2029", "\x00", "\t", "\u3000"]
)
# values as JSON source text, so that "-0" and ints past Python's
# int-string limit can appear
INT_SOURCES = st.integers().map(str) | st.sampled_from(["0", "-0", "-7"])
STR_SOURCES = (st.text() | TRICKY_STRINGS).flatmap(
    lambda s: st.sampled_from([json.dumps(s), json.dumps(s, ensure_ascii=False)])
)
ODD_SOURCES = st.sampled_from(
    ["true", "false", "1.5", "1e3", "null", "[]", "{}", "1" + "0" * 5000]
)
RECORDS = st.fixed_dictionaries(
    {"t": INT_SOURCES, "ssid": STR_SOURCES, "src": STR_SOURCES, "port": INT_SOURCES,
     "len": INT_SOURCES, "kind": STR_SOURCES},
    optional={"dst": STR_SOURCES | st.just("null") | st.just('""')},
)


@st.composite
def _record_line(draw, odd=False, records=RECORDS):
    """A record rendered canonically, as ``to_jsonl`` does, or as other
    valid JSON; with ``odd``, one field may take any other value."""
    rec = draw(records)
    if odd:
        rec[draw(st.sampled_from(FIELDS))] = draw(ODD_SOURCES | INT_SOURCES | STR_SOURCES)
    keys, sep, colon = sorted(rec), ", ", ": "
    if draw(st.integers(0, 3)) == 0:
        keys = draw(st.permutations(keys))
        sep, colon = draw(st.sampled_from([(",", ":"), (" ,", " : "), (",\t", ":")]))
    return "{" + sep.join(f'"{k}"{colon}{rec[k]}' for k in keys) + "}"


@st.composite
def _capture_text(draw):
    """Records and blank lines, fresh or drawn again from a small pool, bare or
    wrapped in JSON whitespace, so that lines recur; with at most one odd
    record or garbage line, which may occur twice."""
    blank = st.sampled_from(["", "  ", "\t", " \r"])
    pool = draw(st.lists(_record_line(), min_size=1, max_size=3))
    ws = st.sampled_from(["", "", " ", "\t", "\r"])
    again = st.tuples(ws, st.sampled_from(pool), ws).map("".join)
    lines = draw(st.lists(_record_line() | blank | again, max_size=12))
    if draw(st.booleans()):
        odd = _record_line(odd=True) | st.text() | st.sampled_from(["{", "[1]", '{"t": 1}'])
        # whitespace to Python's str.strip or line break to splitlines, not to JSON
        not_json_ws = st.sampled_from(["\u3000", "\xa0", "\x1c", "\x0c", "\x85", "\u2028"])
        odd |= st.tuples(not_json_ws, _record_line()).map("".join)
        odd = draw(odd)
        for _ in range(draw(st.integers(1, 2))):
            lines.insert(draw(st.integers(0, len(lines))), odd)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


CANONICAL = '{"kind": "bcast", "len": 5, "port": 30011, "src": "%s", "ssid": "x", "t": %s}'
CANONICAL_DST = '{"dst": "%s", ' + CANONICAL[1:]


def _entry_rows(text):
    return [astuple(e) for e in CaptureLog.parse_jsonl(text)]


class TestCaptureParseDifferential:
    """The capture parser agrees with a per-line ``json.loads`` oracle: the
    same rows, or a ``ValueError`` naming the same first bad line."""

    @settings(max_examples=200, deadline=None)
    @given(text=_capture_text())
    @example(text=CANONICAL % ("a\x85b", "7"))
    @example(text=CANONICAL % ("a\u2028b", "7"))
    @example(text=CANONICAL % ("a\u2029b", "7"))
    @example(text=CANONICAL % ("a\x1fb", "7"))
    @example(text=CANONICAL % ("a", "1" + "0" * 5000))
    @example(text=CANONICAL % ("a", "-0") + "\r\n\n" + CANONICAL_DST % ("", "", "0"))
    @example(text="\u3000" + CANONICAL % ("a", "7"))
    @example(text=CANONICAL % ("a", "7") + "\x85" + CANONICAL % ("b", "8"))
    @example(text="\n".join([CANONICAL % ("a", "7"), "{", CANONICAL % ("b", "8"), "{"]))
    @example(text=CANONICAL % ("a", "7") + "\n" + CANONICAL % ("a", "7") + "\r\n  "
             + CANONICAL % ("a", "7") + "\n")
    @example(text=CANONICAL % ("a", "-0") + "\n" + CANONICAL % ("a", "0"))
    @pytest.mark.parametrize("parse", [CaptureLog.parse_rows, _entry_rows],
                             ids=["parse_rows", "parse_jsonl"])
    def test_matches_per_line_json_loads(self, parse, text):
        expected = _oracle_rows(text)
        if isinstance(expected, int):
            with pytest.raises(ValueError, match=f"^line {expected} "):
                parse(text)
        else:
            assert repr(parse(text)) == repr(expected)


# kinds and ports next to the ones the decoder keeps: bcast on 30011
NEAR_RECORDS = st.tuples(
    RECORDS,
    st.sampled_from(['"bcast"', '"deliver"', '"drop"', '"stream"', '"Bcast"']),
    st.sampled_from(["30011", "30011", "0", "-0", "30012", "6668"]),
).map(lambda r: {**r[0], "kind": r[1], "port": r[2]})
PLAIN_NAMES = st.sampled_from(["", "a", "b", "phone-1", "\u00e9"])
DELIVER_DST = CANONICAL_DST.replace('"bcast"', '"deliver"')


@st.composite
def _bcast_capture_text(draw):
    """Canonical port-30011 broadcasts, with or without a dst, among records
    of other kinds and ports, canonical or other JSON, and blank lines; with
    at most one line that is not a capture entry, which may occur twice."""
    kept = st.builds(CANONICAL.__mod__, st.tuples(PLAIN_NAMES, INT_SOURCES))
    kept_dst = st.builds(CANONICAL_DST.__mod__, st.tuples(PLAIN_NAMES, PLAIN_NAMES, INT_SOURCES))
    blank = st.sampled_from(["", "  ", "\t", " \r"])
    lines = draw(st.lists(kept | kept_dst | _record_line(records=NEAR_RECORDS) | blank,
                          max_size=12))
    if draw(st.booleans()):
        odd = draw(_record_line(odd=True, records=NEAR_RECORDS)
                   | st.sampled_from(["{", "[1]", '{"t": 1}', "\u3000" + CANONICAL % ("a", 7)]))
        for _ in range(draw(st.integers(1, 2))):
            lines.insert(draw(st.integers(0, len(lines))), odd)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


class TestCaptureBcastFilterDifferential:
    """Given a port, the capture parser keeps the oracle's ``bcast`` rows on
    that port, in order, or names the oracle's first bad line."""

    @settings(max_examples=200, deadline=None)
    @given(text=_bcast_capture_text())
    @example(text=CANONICAL.replace("30011", "-0") % ("a", 7) + "\n" + CANONICAL % ("b", 8))
    @example(text=CANONICAL_DST % ("rx", "a", 7) + "\n" + CANONICAL % ("a", 8))
    @example(text="\r\n".join([CANONICAL % ("a", 7), DELIVER_DST % ("rx", "a", 7),
                                CANONICAL % ("b", 8), ""]))
    @example(text="\n".join([CANONICAL % ("a", 7), DELIVER_DST % ("rx", "a", 7), "{"]))
    @pytest.mark.parametrize("port", [dpl.PROVISION_PORT, 0])
    def test_keeps_the_oracles_bcast_rows_on_the_port(self, port, text):
        expected = _oracle_rows(text)
        if isinstance(expected, int):
            with pytest.raises(ValueError, match=f"^line {expected} "):
                CaptureLog.parse_rows(text, port)
        else:
            kept = [row for row in expected if row[5] == "bcast" and row[3] == port]
            assert repr(CaptureLog.parse_rows(text, port)) == repr(kept)


class TestCaptureFuzz:
    """Only ``ValueError`` may escape ``parse_jsonl``, and what it accepts
    has the documented field types."""

    @staticmethod
    def _parse(text):
        try:
            entries = CaptureLog.parse_jsonl(text)
        except ValueError:
            return
        for e in entries:
            assert isinstance(e, CaptureEntry)
            assert {type(e.t), type(e.port), type(e.len)} == {int}
            assert {type(e.ssid), type(e.src), type(e.kind)} == {str}
            assert e.dst is None or type(e.dst) is str

    @settings(max_examples=200, deadline=None)
    @given(text=st.text())
    def test_arbitrary_text(self, text):
        self._parse(text)

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(JSON_VALUES, min_size=1, max_size=3))
    def test_json_shaped_lines(self, values):
        self._parse("\n".join(json.dumps(v) for v in values))

    @settings(max_examples=200, deadline=None)
    @given(
        rec=st.fixed_dictionaries(
            {"t": st.integers(), "ssid": st.text(), "src": st.text(),
             "port": st.integers(), "len": st.integers(), "kind": st.text()},
            optional={"dst": st.none() | st.text()},
        ),
        field=st.sampled_from(FIELDS),
        value=JSON_VALUES,
    )
    def test_one_field_with_any_value(self, rec, field, value):
        self._parse(json.dumps({**rec, field: value}))
