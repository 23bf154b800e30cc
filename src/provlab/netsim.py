"""In-process simulated network.

An endpoint is the id it was registered under.  Virtual Wi-Fi networks
gate membership on an (ssid, passphrase) pair.  Broadcast datagrams reach
every co-member, subject to a seeded loss/duplication model; a receiver
hears a datagram as its sender and its length, which is all a broadcast
listener can observe.  A stream is
a lossless ordered byte pipe, a pair of linked ends.  Every frame lands in a
capture log, one row per frame, so scenarios can assert on what was
actually observable on the wire.

Delivery is synchronous: a registered handler runs inside the sender's
call, which keeps whole scenarios deterministic without an event loop.  A
datagram handler takes a run of deliveries without touching the simulation
and acts afterwards, at the frame a per-delivery handler would have acted at.
provlab is single-threaded: nothing here may be called from two threads.
"""

from __future__ import annotations

import json
import random
import re
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat

MAX_DATAGRAM = 2048
CHUNK_SLOTS = 2048  # receiver slots of loss draws taken at once, at least 16 frames
WAN_LABEL = "wan"

# A capture line as to_jsonl writes it, stripped.  Its strings hold no quote,
# backslash or control character, and its ints stay below Python's int-string
# limit (640 digits at the least), so each match is one whole line and its
# groups are what json.loads gives.
_STR = r'"([^"\\\x00-\x1f]*)"'
_INT = r"(-?(?:0|[1-9][0-9]{0,599}))"
_CANONICAL_LINE = re.compile(
    rf'^\{{(?:"dst": {_STR}, )?"kind": {_STR}, "len": {_INT}, "port": {_INT}, '
    rf'"src": {_STR}, "ssid": {_STR}, "t": {_INT}\}}$', re.MULTILINE)
# what json.loads skips around a value; a line of nothing else is blank
_JSON_WS = " \t\n\r"
# field types of a row; type() rather than isinstance keeps bools out of the ints
_ROW_TYPES = {(int, str, str, int, int, str, dst) for dst in (str, type(None))}
# record kind of a broadcast receiver by its outcome byte: drop, deliver, deliver twice
_FAN_OUT_KINDS = ("drop", "deliver", "deliver")


class NetSimError(Exception):
    pass


class DuplicateSsid(NetSimError):
    pass


class InvalidLength(NetSimError):
    pass


class UnknownSsid(NetSimError):
    pass


class WrongPassphrase(NetSimError):
    pass


class NotJoined(NetSimError):
    pass


class PeerUnreachable(NetSimError):
    pass


class UnknownEndpoint(NetSimError):
    pass


@dataclass
class SimClock:
    """Injected simulated time; scenarios advance it, nothing sleeps."""

    now: int = 1_600_000_000

    def advance(self, seconds: int) -> int:
        self.now += seconds
        return self.now


@dataclass
class LossModel:
    """Seeded broadcast unreliability.

    Draw order is part of the contract so tests can replay it: for each
    broadcast frame, for each receiving *online* member in join order,
    one uniform draw decides drop; if delivered, a second draw decides
    duplication.  No draw is consumed for a dropped frame's duplicate.  A
    rate <= 0 or >= 1 still takes its draws, heard by a receiver or not.
    """

    drop_prob: float = 0.0
    dup_prob: float = 0.0
    seed: int = 0


@dataclass
class VirtualNetwork:
    ssid: str
    passphrase: str
    # in join order; only Simulation.join and Simulation.leave change it
    members: list[str] = field(default_factory=list)


@dataclass(slots=True)
class CaptureEntry:
    t: int
    ssid: str
    src: str
    port: int
    len: int
    kind: str  # bcast | deliver | drop | stream
    dst: str | None = None

    def to_json(self) -> dict:
        rec = {
            "t": self.t,
            "ssid": self.ssid,
            "src": self.src,
            "port": self.port,
            "len": self.len,
            "kind": self.kind,
        }
        if self.dst is not None:
            rec["dst"] = self.dst
        return rec


class CaptureLog:
    """Append-only wire log, one row per sent frame.

    Every sent frame appears exactly once (kind ``bcast`` or ``stream``);
    broadcast fan-out additionally appears per receiver as ``deliver``
    or ``drop``, so a dropped frame is visibly sent-but-not-delivered.

    A stream send is stored as its ``(t, ssid, src, port, len, "stream",
    dst)`` record, a broadcast frame as ``(t, ssid, src, port, len, "bcast",
    dsts, outcomes)``: its receivers in join order, one tuple shared while
    it is equal, and a byte per receiver, 0 drop, 1 deliver, 2 deliver
    twice.  :meth:`rows` and :meth:`to_jsonl` expand a frame into records.
    Rows hold only ints, strs, bytes, tuples and None, so CPython's cycle
    collector stops tracking them and a large capture costs a full
    collection nothing.
    """

    def __init__(self):
        self._rows: list[tuple] = []

    def append(self, entry: CaptureEntry) -> None:
        """Record one frame.  The fields are copied into a tuple, so the caller
        may change and append the same entry again."""
        self._rows.append(
            (entry.t, entry.ssid, entry.src, entry.port, entry.len, entry.kind, entry.dst)
        )

    def frames(self) -> list[tuple]:
        """A copy of the log so far, one row per sent frame."""
        return self._rows.copy()

    def rows(self) -> list[tuple]:
        """The log so far, as ``(t, ssid, src, port, len, kind, dst)`` records."""
        out = []
        for row in self.frames():
            if len(row) == 7:
                out.append(row)
                continue
            head = row[:5]
            out.append(head + ("bcast", None))
            for dst, outcome in zip(row[6], row[7]):
                out += [head + (_FAN_OUT_KINDS[outcome], dst)] * (outcome or 1)
        return out

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(CaptureEntry(*row).to_json(), sort_keys=True) + "\n"
            for row in self.rows()
        )

    @staticmethod
    def parse_jsonl(text: str) -> list[CaptureEntry]:
        """Inverse of :meth:`to_jsonl`, as entries; see :meth:`parse_rows`."""
        return [CaptureEntry(*row) for row in CaptureLog.parse_rows(text)]

    @staticmethod
    def parse_rows(text: str, bcast_port: int | None = None) -> list[tuple]:
        """Parse capture JSONL into ``(t, ssid, src, port, len, kind, dst)``
        tuples in capture order, or given ``bcast_port`` only that port's
        ``bcast`` rows; every line is checked either way.  Lines end at "\\n",
        are stripped of the JSON whitespace around them, and one of nothing else
        is blank.  One regex pass matches each distinct non-blank line once, and
        stands only if every one is canonical; equal lines then share one row.
        Else each line goes through ``json.loads``, and the first that is not
        JSON, nests too deeply, is not an object, lacks a field or has one of
        the wrong type raises ``ValueError`` naming its 1-based line number."""
        lines = list(map(str.strip, text.split("\n"), repeat(_JSON_WS)))
        distinct = dict.fromkeys(filter(None, lines))
        rows = [  # None for a line that is checked but not kept
            (int(t), ssid, src, int(port), int(length), kind, dst)
            if bcast_port is None or kind == "bcast" and int(port) == bcast_port else None
            for dst, kind, length, port, src, ssid, t
            in map(re.Match.groups, _CANONICAL_LINE.finditer("\n".join(distinct)))
        ]
        if len(rows) == len(distinct):
            return list(filter(None, map(dict(zip(distinct, rows)).get, filter(None, lines))))
        rows = []
        for lineno, line in enumerate(lines, 1):
            if not line:
                continue
            try:
                rec = json.loads(line)
                t, port, length = rec["t"], rec["port"], rec["len"]
                row = (t, rec["ssid"], rec["src"], port, length, rec["kind"], rec.get("dst"))
                if tuple(map(type, row)) not in _ROW_TYPES:
                    raise TypeError("t, port and len must be integers, ssid, src and kind"
                                    " strings, and dst a string or null")
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                raise ValueError(
                    f"line {lineno} is not a capture entry: {type(exc).__name__}: {exc}"
                ) from exc
            if bcast_port is None or row[5] == "bcast" and port == bcast_port:
                rows.append(row)
        return rows


class StreamEnd:
    """One side of a reliable ordered byte pipe, from ``src`` to ``peer``."""

    def __init__(self, sim: "Simulation", src: str, peer: str, port: int, label: str):
        self._sim = sim
        self.src = src
        self.peer = peer
        self.port = port
        self.label = label  # shared ssid, or "wan" for uplink streams
        self.far: StreamEnd | None = None  # the other side; None once the simulation closes
        self._buf = bytearray()
        self.on_data = None  # callable() fired after bytes are appended

    def send(self, data: bytes) -> None:
        self._sim._stream_send(self, data)

    def recv(self) -> bytes:
        out = bytes(self._buf)
        self._buf.clear()
        return out


class _EndpointRec:
    def __init__(self, wan: bool):
        self.wan = wan
        self.networks: set[str] = set()
        self.datagram_handlers: dict[int, object] = {}
        self.stream_handlers: dict[int, object] = {}


class Simulation:
    """Broker for virtual networks, broadcasts, streams and the capture."""

    def __init__(self, loss: LossModel | None = None, clock: SimClock | None = None):
        self.clock = clock or SimClock()
        self.loss = loss or LossModel()
        self._rng = random.Random(self.loss.seed)
        self._networks: dict[str, VirtualNetwork] = {}
        self._endpoints: dict[str, _EndpointRec] = {}
        self._offline: set[str] = set()  # ids of the endpoints set offline
        self._streams: list[StreamEnd] = []  # both ends of every open stream
        self.capture = CaptureLog()
        self._gen = 0  # bumped by each change to membership, presence or a datagram port

    def close(self) -> None:
        """Drop the handlers, stream links and ``on_data`` callbacks, whose cycles
        would keep a finished world alive.  Only the capture stays readable."""
        self._gen += 1
        for rec in self._endpoints.values():
            rec.datagram_handlers.clear()
            rec.stream_handlers.clear()
        for end in self._streams:
            end.on_data = end.far = None
        self._streams.clear()

    # -- endpoints ---------------------------------------------------------

    def register(self, endpoint: str, wan: bool = False) -> str:
        if endpoint in self._endpoints:
            raise NetSimError(f"endpoint id {endpoint!r} already registered")
        self._endpoints[endpoint] = _EndpointRec(wan)
        return endpoint

    def set_online(self, endpoint: str, online: bool) -> None:
        """An offline endpoint neither sends nor receives, by stream or broadcast."""
        self._rec(endpoint)
        self._gen += 1
        if online:
            self._offline.discard(endpoint)
        else:
            self._offline.add(endpoint)

    def is_online(self, endpoint: str) -> bool:
        self._rec(endpoint)
        return endpoint not in self._offline

    def _rec(self, endpoint: str) -> _EndpointRec:
        rec = self._endpoints.get(endpoint)
        if rec is None:
            raise UnknownEndpoint(f"unregistered endpoint {endpoint!r}")
        return rec

    # -- networks ----------------------------------------------------------

    def create_network(self, ssid: str, passphrase: str) -> VirtualNetwork:
        if not 1 <= len(ssid.encode("utf-8")) <= 32:
            raise InvalidLength("ssid must be 1-32 bytes")
        if not 8 <= len(passphrase.encode("utf-8")) <= 64:
            raise InvalidLength("passphrase must be 8-64 bytes")
        if ssid in self._networks:
            raise DuplicateSsid(f"ssid {ssid!r} already exists")
        net = VirtualNetwork(ssid=ssid, passphrase=passphrase)
        self._networks[ssid] = net
        return net

    def join(self, endpoint: str, ssid: str, passphrase: str) -> VirtualNetwork:
        rec = self._rec(endpoint)
        net = self._networks.get(ssid)
        if net is None:
            raise UnknownSsid(f"no network {ssid!r}")
        if passphrase != net.passphrase:
            raise WrongPassphrase(f"bad passphrase for {ssid!r}")
        self._gen += 1
        if endpoint not in net.members:
            net.members.append(endpoint)
        rec.networks.add(ssid)
        return net

    def leave(self, endpoint: str, ssid: str) -> None:
        rec = self._rec(endpoint)
        net = self._networks.get(ssid)
        if net is None:
            raise UnknownSsid(f"no network {ssid!r}")
        self._gen += 1
        if endpoint in net.members:
            net.members.remove(endpoint)
        rec.networks.discard(ssid)

    def networks_of(self, endpoint: str) -> set[str]:
        return set(self._rec(endpoint).networks)

    # -- broadcast ---------------------------------------------------------

    def set_datagram_handler(self, endpoint: str, port: int, handler) -> None:
        """Hear ``port`` with ``handler``; ``None`` closes the port.  A port with no
        handler, never opened or closed, discards its datagrams after their capture
        records and loss draws.  ``handler(src, lengths)`` gets a run of deliveries
        from ``src``, duplicates included, and must not call into the simulation.
        It returns ``(taken, then)``: it heard the first ``taken`` (at least one),
        and ``then`` is its action or ``None``, run once the frames through the
        last delivery taken are written.  Hearing resumes at the next delivery."""
        self._rec(endpoint).datagram_handlers[port] = handler
        self._gen += 1

    def broadcast(self, endpoint: str, dst_port: int, length: int) -> None:
        """One datagram of ``length`` bytes: a burst of one."""
        self.broadcast_lengths(endpoint, dst_port, (length,))

    def broadcast_lengths(self, endpoint: str, dst_port: int, lengths: Sequence[int],
                          ssid: str | None = None) -> int:
        """Broadcast one datagram per length, in turn; returns the count.  Records,
        draws and what each receiver hears are those of one :meth:`broadcast` per
        length, and a frame that fails a check (its length not an ``int`` in 1 to
        ``MAX_DATAGRAM`` among them) raises after the frames before it are sent.
        The burst is heard in windows over which nothing can change: to its end
        while at most one port is open, else one frame; each receiver hears its
        deliveries of a window as one run.  After a ``then`` the state is read again
        from the next delivery on.  A window whose outcomes are all certain takes
        its draws in one step; else they come in chunks of ``CHUNK_SLOTS`` receiver
        slots, and a run that stops inside one rewinds the generator to its frame."""
        if not 1 <= dst_port <= 65535:
            raise InvalidLength("port must be 1-65535")
        networks = self._rec(endpoint).networks
        src, clock, loss, rng = endpoint, self.clock, self.loss, self._rng
        rows, draw = self.capture._rows, rng.random
        end = len(lengths)  # the frames before the first bad length go out
        if not (set(map(type, lengths)) <= {int}
                and 1 <= min(lengths, default=1) and max(lengths, default=1) <= MAX_DATAGRAM):
            end = next(k for k, n in enumerate(lengths)
                       if type(n) is not int or not 1 <= n <= MAX_DATAGRAM)
        # the receivers, and the _gen they and their ports were read at
        dsts, recs, gen, k = (), [], None, 0
        while k < end:
            if gen != self._gen:
                gen = self._gen
                if src in self._offline:
                    raise PeerUnreachable(f"{src} is offline")
                if ssid is None and len(networks) != 1:
                    raise NotJoined(
                        "endpoint must be joined to exactly one network or name the ssid")
                net = next(iter(networks)) if ssid is None else ssid
                if net not in networks:
                    raise NotJoined(f"{src} is not a member of {net!r}")
                read = tuple([m for m in self._networks[net].members
                              if m != src and m not in self._offline])
                if read != dsts:
                    dsts, recs = read, [self._endpoints[dst] for dst in read]
                live = [i for i, rec in enumerate(recs)
                        if rec.datagram_handlers.get(dst_port) is not None]
            now, width, drop, dup = clock.now, len(recs), loss.drop_prob, loss.dup_prob
            certain = not recs or drop >= 1 or not drop > 0 and (not dup > 0 or dup >= 1)
            n = (1 if len(live) > 1 else end - k if certain
                 else min(end - k, max(16, CHUNK_SLOTS // width)))
            if certain:
                out = bytes([0 if drop >= 1 else 2 if dup >= 1 else 1]) * (width * n)
            else:
                state = rng.getstate() if len(live) == 1 else None
                # LossModel draw order: per receiver, drop, then dup if delivered
                out = bytes([0 if draw() < drop else 2 if draw() < dup else 1
                             for _ in range(width * n)])
            window, used, then = lengths[k:k + n], n, None
            at, left = 0, out[0] if len(live) > 1 else 0  # who hears the frame's rest
            if len(live) == 1 and (copies := out[live[0]::width]).count(0) < n:
                at = live[0]
                run = (window if copies.count(1) == n
                       else list(chain.from_iterable(map(repeat, window, copies))))
                taken, then = self._take(recs[at].datagram_handlers[dst_port], src, run)
                if then is not None or taken < len(run):
                    heard = list(accumulate(copies))  # stop at the last taken's frame
                    used = bisect_left(heard, taken) + 1
                    left = heard[used - 1] - taken
            if certain or used < n:
                if not certain:
                    rng.setstate(state)
                # a random() takes two 32-bit words, as 64 bits of getrandbits do;
                # a drop takes one draw, a delivery two
                rng.getrandbits(64 * (2 * width * used - out.count(0, 0, width * used)))
            outs = (repeat(out[:width]) if certain
                    else [out[j:j + width] for j in range(0, width * used, width)])
            rows += [(now, net, src, dst_port, length, "bcast", dsts, outcomes)
                     for length, outcomes in zip(window[:used], outs)]
            k += used
            if then is not None:
                then()
            if len(live) > 1 or then is not None or left:
                self._hear(recs, out[width * (used - 1):], at, left, src, dst_port,
                           window[used - 1])
        if end < len(lengths):
            raise InvalidLength(f"length must be an int of 1-{MAX_DATAGRAM}")
        return len(lengths)

    def _take(self, handler, src: str, run) -> tuple:
        """``handler``'s ``(taken, then)`` for ``run``, checked: a take that changes
        the simulation, or hears no delivery or more than it was given, raises."""
        rows, clock, loss = self.capture._rows, self.clock, self.loss
        mark = (self._gen, len(rows), clock.now, loss.drop_prob, loss.dup_prob)
        taken, then = handler(src, run)
        if mark != (self._gen, len(rows), clock.now, loss.drop_prob, loss.dup_prob):
            raise NetSimError("a datagram handler changed the simulation while it took"
                              " a run; it must act in its then")
        if type(taken) is not int or not 0 < taken <= len(run):
            raise NetSimError(f"a datagram handler took {taken!r} of {len(run)} deliveries")
        return taken, then

    def _hear(self, recs, outcomes, i: int, copies: int, src: str, port: int,
              length: int) -> None:
        """Deliver a written frame from receiver ``i`` on: ``copies`` to it and the
        frame's ``outcomes`` byte to each later one, reading each receiver's port
        as its turn comes, so a ``then`` applies from the next delivery."""
        for j in range(i, len(recs)):
            left = copies if j == i else outcomes[j]
            while left:
                handler = recs[j].datagram_handlers.get(port)
                if handler is None:
                    break
                taken, then = self._take(handler, src, [length] * left)
                left -= taken
                if then is not None:
                    then()

    # -- streams -----------------------------------------------------------

    def set_stream_handler(self, endpoint: str, port: int, handler) -> None:
        """handler(stream_end, src) is invoked on incoming opens, ``src`` the opener."""
        self._rec(endpoint).stream_handlers[port] = handler

    def open_stream(self, endpoint: str, peer: str, port: int) -> StreamEnd:
        src = self._rec(endpoint)
        dst = self._rec(peer)
        if endpoint in self._offline or peer in self._offline:
            raise PeerUnreachable(f"{peer} is offline")
        shared = src.networks & dst.networks
        if not (dst.wan or src.wan or shared):
            raise PeerUnreachable(f"{endpoint} and {peer} share no network and no uplink")
        handler = dst.stream_handlers.get(port)
        if handler is None:
            raise PeerUnreachable(f"{peer} is not listening on port {port}")
        label = sorted(shared)[0] if shared else WAN_LABEL
        a_end = StreamEnd(self, endpoint, peer, port, label)
        b_end = StreamEnd(self, peer, endpoint, port, label)
        a_end.far, b_end.far = b_end, a_end
        self._streams += (a_end, b_end)
        handler(b_end, endpoint)
        return a_end

    def _stream_send(self, end: StreamEnd, data: bytes) -> None:
        if not data:
            return
        if end.src in self._offline or end.peer in self._offline:
            raise PeerUnreachable(f"{end.peer} is offline")
        far = end.far
        if far is None:
            raise PeerUnreachable(f"{end.peer} is unreachable: the simulation is closed")
        self.capture.append(CaptureEntry(self.clock.now, end.label, end.src, end.port,
                                         len(data), "stream", dst=end.peer))
        far._buf.extend(data)
        if far.on_data is not None:
            far.on_data()
