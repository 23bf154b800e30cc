"""Packet-length credential codec.

Wi-Fi credentials plus a provisioning token ride exclusively in UDP
datagram *lengths*: a receiver that can observe frame sizes (but no
payload bytes) recovers the SSID, passphrase and token.  The length
space is split into disjoint bands so a streaming decoder can classify
every frame on its own:

    guide   1..10       sync pattern, values 1/3/6/10 only
    som     18..65      start-of-message, values 18/35/60/65 only
    idx     100..355    payload byte index   (IDX_BASE + i)
    val     400..655    payload byte value   (VAL_BASE + b)
    len     700..955    payload byte count   (LEN_BASE + n)
    crc     1000..1255  crc-8 of the payload (CRC_BASE + crc)

One broadcast round is::

    [1,3,6,10] * GUIDE_REPS, [18,35,60,65], LEN, (IDX_i, VAL_i)*, CRC

and the whole round is repeated so a lossy receiver can accumulate
(index, value) votes across rounds.  The full framing contract lives in
docs/wire-format.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter

from .protocol import TOKEN_CHARS

GUIDE = (1, 3, 6, 10)
SOM = (18, 35, 60, 65)
GUIDE_REPS = 8
IDX_BASE = 100
VAL_BASE = 400
LEN_BASE = 700
CRC_BASE = 1000
BAND_WIDTH = 256

PROVISION_PORT = 30011
PAYLOAD_VERSION = 0x01

MAX_SSID_BYTES = 32
MAX_PSK_BYTES = 64
MAX_PAYLOAD = 255
MAX_ROUNDS = 16
DEFAULT_ROUNDS = 5


class CodecError(ValueError):
    """Base class for framing and codec errors."""


class FieldTooLong(CodecError):
    pass


class BadTokenLength(CodecError):
    pass


class BadVersion(CodecError):
    pass


class TruncatedPayload(CodecError):
    pass


class PayloadTooLong(CodecError):
    pass


def _crc8_of_byte(crc: int) -> int:
    for _ in range(8):
        crc = ((crc << 1) ^ 0x07) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
    return crc


# Sarwate's table (CACM 1988): entry i is the crc of the byte i.  The
# polynomial has an x^0 term, so the table is a permutation of 0..255.
_CRC8 = bytes(map(_crc8_of_byte, range(256)))
_CRC8_INV = bytes(_CRC8.index(v) for v in range(256))


def crc8(data: bytes) -> int:
    """CRC-8, polynomial 0x07, init 0x00, no reflection, no final xor."""
    crc = 0
    for byte in data:
        crc = _CRC8[crc ^ byte]
    return crc


@dataclass
class Credentials:
    """SSID, passphrase and provisioning token destined for one device.

    ``token`` is normally exactly 32 characters; the constructor does not
    enforce that so a decoder can surface malformed tokens to the device,
    which applies its own (length-only) check.  The strict shape is
    enforced on the encode path by :func:`build_payload`.
    """

    ssid: str
    passphrase: str
    token: str


def frame_fields(ssid: str, passphrase: str, token: str) -> bytes:
    """Length-prefix ssid/passphrase, checked against the framing limits,
    and append the token verbatim.

    No token-length check: this is the raw framing used both by
    :func:`build_payload` and by directly crafted (malformed) payloads.
    """
    ssid_b = ssid.encode("utf-8")
    psk_b = passphrase.encode("utf-8")
    if not ssid_b:
        raise CodecError("ssid must be nonempty")
    if len(ssid_b) > MAX_SSID_BYTES:
        raise FieldTooLong(f"ssid exceeds {MAX_SSID_BYTES} bytes")
    if len(psk_b) > MAX_PSK_BYTES:
        raise FieldTooLong(f"passphrase exceeds {MAX_PSK_BYTES} bytes")
    return bytes(
        [PAYLOAD_VERSION, len(ssid_b)]
    ) + ssid_b + bytes([len(psk_b)]) + psk_b + token.encode("utf-8")


def build_payload(creds: Credentials) -> bytes:
    """[version][len_ssid][ssid][len_psk][psk][token:32], at most 131 bytes."""
    payload = frame_fields(creds.ssid, creds.passphrase, creds.token)
    if len(creds.token) != TOKEN_CHARS or not creds.token.isascii():
        raise BadTokenLength(f"token must be exactly {TOKEN_CHARS} ascii characters")
    return payload


def parse_payload(data: bytes) -> Credentials:
    """Exact inverse of :func:`build_payload` (token must be 32 bytes)."""
    creds, trailing = _parse_frame(data)
    if trailing != TOKEN_CHARS:
        raise BadTokenLength(f"token field is {trailing} bytes, expected {TOKEN_CHARS}")
    return creds


def parse_payload_lax(data: bytes) -> Credentials:
    """Parse a credentials payload accepting any token length.

    Devices use this so that a malformed (wrong-length) token is still
    surfaced and can be rejected by the device-side length check instead
    of silently vanishing inside the decoder.
    """
    creds, _ = _parse_frame(data)
    return creds


def _parse_frame(data: bytes) -> tuple[Credentials, int]:
    if len(data) < 2:
        raise TruncatedPayload("payload shorter than header")
    if data[0] != PAYLOAD_VERSION:
        raise BadVersion(f"unknown payload version {data[0]:#04x}")
    pos = 1
    ssid_len = data[pos]
    pos += 1
    if ssid_len == 0:
        raise CodecError("ssid must be nonempty")
    if ssid_len > MAX_SSID_BYTES or pos + ssid_len + 1 > len(data):
        raise TruncatedPayload("ssid field runs past end of payload")
    ssid_b = data[pos : pos + ssid_len]
    pos += ssid_len
    psk_len = data[pos]
    pos += 1
    if psk_len > MAX_PSK_BYTES or pos + psk_len > len(data):
        raise TruncatedPayload("passphrase field runs past end of payload")
    psk_b = data[pos : pos + psk_len]
    pos += psk_len
    token_b = data[pos:]
    try:
        creds = Credentials(
            ssid=ssid_b.decode("utf-8"),
            passphrase=psk_b.decode("utf-8"),
            token=token_b.decode("utf-8"),
        )
    except UnicodeDecodeError as exc:
        raise CodecError(f"payload text is not valid utf-8: {exc}") from exc
    return creds, len(token_b)


def encode(creds: Credentials, rounds: int = DEFAULT_ROUNDS) -> list[int]:
    """Encode validated credentials into datagram lengths, round after round."""
    return encode_payload(build_payload(creds), rounds)


def encode_payload(payload: bytes, rounds: int = DEFAULT_ROUNDS) -> list[int]:
    """Encode an already-framed payload; used directly to craft
    nonconforming broadcasts (e.g. wrong-length tokens)."""
    if not 1 <= rounds <= MAX_ROUNDS:
        raise CodecError(f"rounds must be in [1, {MAX_ROUNDS}]")
    if len(payload) > MAX_PAYLOAD:
        raise PayloadTooLong(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")
    if not payload:
        raise CodecError("payload must be nonempty")
    crc = crc8(payload)
    one_round = list(GUIDE) * GUIDE_REPS + list(SOM)
    one_round.append(LEN_BASE + len(payload))
    for i, b in enumerate(payload):
        one_round.append(IDX_BASE + i)
        one_round.append(VAL_BASE + b)
    one_round.append(CRC_BASE + crc)
    return one_round * rounds


class Phase(Enum):
    HUNTING = "hunting"
    SYNCED = "synced"
    COLLECTING = "collecting"
    COMPLETE = "complete"
    FAILED = "failed"


# bound once: each Phase.X lookup goes through EnumType's slow __getattr__
HUNTING, SYNCED, COLLECTING, COMPLETE, FAILED = (
    Phase.HUNTING, Phase.SYNCED, Phase.COLLECTING, Phase.COMPLETE, Phase.FAILED)

# length -> (band, value within the band); every other length is a gap.
# Out-of-band lengths in 18..65 separate rounds; those in 1..10 are gaps.
_BANDS: dict[int, tuple[str, int | None]] = {
    **{v: ("som_noise", None) for v in range(18, 66)},
    **{v: ("guide", i) for i, v in enumerate(GUIDE)},
    **{v: ("som", i) for i, v in enumerate(SOM)},
    **{base + v: (band, v) for band, base in (
        ("idx", IDX_BASE), ("val", VAL_BASE), ("len", LEN_BASE), ("crc", CRC_BASE))
       for v in range(BAND_WIDTH)},
}
_GAP = ("gap", None)
_BAND_END = CRC_BASE + BAND_WIDTH  # every length from here up is a gap
_BAND_OF = tuple(_BANDS.get(v, _GAP) for v in range(_BAND_END))


def _majority(votes: dict[int, int]) -> int:
    # highest count wins; ties break to the smallest value
    return min(votes, key=lambda v: (-votes[v], v))


@dataclass
class DecoderState:
    """Streaming decoder over a sequence of observed datagram lengths.

    Loss handling is conservative: within one round, a run of value
    frames is assigned to payload slots only when it sits between two
    position anchors (explicit index frames, the round head, or the crc
    trailer) and its count exactly matches the slot span, which proves
    no frame in the run was lost.  Assignments vote into per-slot
    tallies across rounds.  Each slot, the payload size n and the crc
    take the majority of their votes; a tie goes to the smallest value.
    Completion is checked each time a round settles (at its crc frame or
    at the next separator): the payload is accepted when every slot
    below n has a vote and the crc-8 of the majority bytes matches.  At
    end of stream, :meth:`finalize` settles the open round, checks
    again, and recovers a single still-missing byte by solving the crc
    equation.

    A length equal to the immediately preceding one is treated as a
    link-level duplicate and skipped; the encoder never emits two equal
    adjacent lengths, so this is lossless on real streams.

    One decoder holds one sender's attempt.  :meth:`feed_many` takes a run
    of frames and stops at the frame that completes the attempt; a
    :class:`DecoderBank` feeds it each run a device hears in one call, and
    :meth:`feed` is that call for one frame.
    :func:`decode_capture` feeds each sender's frames of a capture
    separately, with no bound on the senders, and lists the attempts in
    the order they started; a device keeps at most :data:`MAX_SENDERS`
    attempts in a :class:`DecoderBank`.
    """

    phase: Phase = Phase.HUNTING
    expected_len: int | None = None
    crc_seen: int | None = None
    slots: dict[int, dict[int, int]] = field(default_factory=dict)

    _guide_run: int = 0
    _som_pos: int = 0
    _prev_len: int | None = None
    _round_buf: list[tuple[str, int]] = field(default_factory=list)
    _head_known: bool = False
    _len_votes: dict[int, int] = field(default_factory=dict)
    _crc_votes: dict[int, int] = field(default_factory=dict)
    payload: bytes | None = None
    credentials: Credentials | None = None

    # -- feeding ---------------------------------------------------------

    def feed(self, length: int) -> "DecoderState":
        self.feed_many((length,))
        return self

    def feed_many(self, lengths, i: int = 0) -> int:
        """Feed ``lengths[i:]`` until the attempt is COMPLETE or FAILED;
        return the index after the last frame fed."""
        phase = self.phase
        if phase is COMPLETE or phase is FAILED:
            return i
        prev, buf, end = self._prev_len, self._round_buf, len(lengths)
        while i < end:
            length = lengths[i]
            i += 1
            if length == prev:
                continue
            prev = length
            if not 0 <= length < _BAND_END:
                continue
            frame = _BAND_OF[length]
            band = frame[0]
            if band == "gap":
                continue
            if phase is not COLLECTING:
                if phase is HUNTING:
                    if band == "guide":
                        self._guide_run += (frame[1] - self._guide_run) % len(GUIDE) + 1
                        if self._guide_run >= 2 * len(GUIDE):
                            phase = self.phase = SYNCED
                            self._som_pos = 0
                    else:
                        # any other in-band frame breaks a consecutive guide run
                        self._guide_run = 0
                    continue
                if band == "som":
                    if frame[1] >= self._som_pos:
                        self._som_pos = frame[1] + 1
                    if self._som_pos >= len(SOM):
                        phase = self.phase = COLLECTING
                        self._head_known = True
                    continue
                if band == "guide" or band == "som_noise":
                    continue
                # whole start-of-message lost; the data bands are unambiguous.
                # Entering on a len frame still marks a round head; entering
                # mid-data does not, so pre-index values stay unplaceable.
                phase = self.phase = COLLECTING
                self._head_known = band == "len"
            if band == "idx" or band == "val":
                buf.append(frame)
                continue
            if band == "len":
                votes = self._len_votes
                votes[frame[1]] = votes.get(frame[1], 0) + 1
                self.expected_len = _majority(votes)
                buf.append(frame)
                continue
            if band == "crc":
                votes = self._crc_votes
                votes[frame[1]] = votes.get(frame[1], 0) + 1
                self.crc_seen = _majority(votes)
                buf.append(frame)  # crc closes the round on the wire
            elif not buf:
                self._head_known = True  # a separator with no round to settle
                continue
            # a crc frame or a separator between rounds: settle the buffered round
            self._flush_round()
            self._head_known = True
            phase, buf = self.phase, self._round_buf
            if phase is COMPLETE:
                break
        self._prev_len = prev
        return i

    def _flush_round(self) -> None:
        """Settle one round's buffered frames via anchored alignment.

        The buffer is cut into segments of value frames delimited by
        position anchors.  A segment is assigned only when its value
        count equals the number of slots it must cover, which proves
        that no value frame inside it was dropped.
        """
        buf = self._round_buf
        self._round_buf = []
        if not buf:
            return
        n = next((value for band, value in buf if band == "len"), self.expected_len)
        if n is not None:
            # the round's end anchors slot n, as an index frame would
            buf.append(("idx", n))
        slots = self.slots
        start = 0 if self._head_known else None
        vals: list[int] = []
        for band, value in buf:
            if band == "val":
                vals.append(value)
            elif band == "idx":
                if start is not None and value - start == len(vals):
                    for slot, byte in enumerate(vals, start):
                        votes = slots.get(slot)
                        if votes is None:
                            slots[slot] = {byte: 1}
                        else:
                            votes[byte] = votes.get(byte, 0) + 1
                start, vals = value, []
            # len frames carry no position information beyond the head,
            # and a crc frame only ever ends the round
        self._try_complete()

    # -- completion -------------------------------------------------------

    def _assemble(self) -> bytes | None:
        n, slots = self.expected_len, self.slots
        if not n or not all(map(slots.__contains__, range(n))):
            return None
        out = bytearray(n)
        for i in range(n):
            votes = slots[i]
            out[i] = next(iter(votes)) if len(votes) == 1 else _majority(votes)
        return bytes(out)

    def _try_complete(self) -> None:
        if self.crc_seen is None:
            return
        payload = self._assemble()
        if payload is not None and crc8(payload) == self.crc_seen:
            self._accept(payload)

    def _accept(self, payload: bytes) -> None:
        try:
            self.credentials = parse_payload_lax(payload)
        except CodecError:
            return
        self.payload = payload
        self.phase = Phase.COMPLETE

    def finalize(self) -> "DecoderState":
        """End-of-stream settlement: flush the open round, then classify.

        A fully-filled slot set whose crc does not match is a hard
        failure.  If exactly one slot is still empty, the missing byte
        is recovered by solving the crc equation.
        """
        if self.phase is not Phase.COLLECTING:
            return self
        self._flush_round()
        if self.phase is Phase.COMPLETE:
            return self
        n = self.expected_len
        if n is None or self.crc_seen is None or n == 0:
            return self
        missing = [i for i in range(n) if i not in self.slots]
        if not missing:
            self.phase = Phase.FAILED
            return self
        if len(missing) == 1:
            self._fill_one(missing[0])
        return self

    def _fill_one(self, hole: int) -> None:
        """Solve the crc equation for the byte at ``hole``: run the crc
        forward up to the hole and back from the trailer over the bytes
        after it.  The table is a permutation, so exactly one byte fits."""
        n = self.expected_len
        out = bytearray(0 if i == hole else _majority(self.slots[i]) for i in range(n))
        after = self.crc_seen
        for byte in reversed(out[hole + 1:]):
            after = _CRC8_INV[after] ^ byte
        out[hole] = _CRC8_INV[after] ^ crc8(out[:hole])
        self._accept(bytes(out))


def decode_lengths(lengths) -> DecoderState:
    """Run a fresh decoder over a complete length stream and finalize."""
    state = DecoderState()
    state.feed_many(list(lengths))
    return state.finalize()


MAX_SENDERS = 16  # attempts a device's DecoderBank keeps at once
_SETTLED = (COMPLETE, FAILED)


class DecoderBank:
    """Port-30011 decoding for a device, which has memory for a bounded
    number of attempts.

    Each sender (``src``) gets its own :class:`DecoderState`, so frames of
    interleaved senders never mix.  A device hears a broadcast as runs of
    one sender's frames, and :meth:`feed` hands each run to that sender's
    attempt in one :meth:`DecoderState.feed_many`.  A sender's next frame
    after its attempt is COMPLETE or FAILED starts a new attempt.  At most
    :data:`MAX_SENDERS` attempts are kept; a new sender at a full bank
    drops the attempt that started first.
    """

    def __init__(self) -> None:
        self._attempts: dict[str, DecoderState] = {}  # by src, in start order

    def feed(self, src: str, lengths) -> tuple[int, DecoderState]:
        """Feed a run of ``src``'s frames to its attempt, in one
        :meth:`DecoderState.feed_many`, until the attempt completes; return how
        many frames it took and the attempt.  The rest of the run, if any,
        would start a new attempt."""
        state = self._attempts.get(src)
        if state is None or state.phase in _SETTLED:
            self._attempts.pop(src, None)
            if len(self._attempts) >= MAX_SENDERS:
                del self._attempts[next(iter(self._attempts))]
            state = self._attempts[src] = DecoderState()
        return state.feed_many(lengths), state

    def finalize(self) -> DecoderState | None:
        """Settle every kept attempt; the first COMPLETE one in start order wins."""
        for state in self._attempts.values():
            state.finalize()
        return next((s for s in self._attempts.values() if s.phase is Phase.COMPLETE), None)


def decode_capture(rows) -> list[tuple[str, DecoderState]]:
    """Decode the port-30011 broadcasts of a capture, the way an
    eavesdropper holding the whole capture sees them.  ``rows`` are
    capture records (``parse_rows``) or frames (``CaptureLog.frames``).

    Each sender's frames are decoded on their own, one
    :meth:`DecoderState.feed_many` call per attempt; a sender's next frame
    after a COMPLETE or FAILED attempt starts a new one, as on a device.
    Unlike a device, which keeps a bounded number of attempts, it keeps
    every sender's attempts, however many senders the capture holds.

    Returns one ``(src, finalized decoder)`` pair per attempt, in the
    order the attempts started.
    """
    by_src: dict[str, tuple[list[int], list[int]]] = {}  # sender -> (row positions, lengths)
    for pos, row in enumerate(rows):
        if row[5] == "bcast" and row[3] == PROVISION_PORT:
            sent = by_src.get(row[2])
            if sent is None:
                sent = by_src[row[2]] = ([], [])
            sent[0].append(pos)
            sent[1].append(row[4])
    starts = []  # (row of its first frame, src, decoder) per attempt
    for src, (positions, lengths) in by_src.items():
        i = 0
        while i < len(lengths):
            state = DecoderState()
            starts.append((positions[i], src, state))
            i = state.feed_many(lengths, i)
    started = [(src, state) for _pos, src, state in sorted(starts, key=itemgetter(0))]
    for _src, state in started:
        state.finalize()
    return started
