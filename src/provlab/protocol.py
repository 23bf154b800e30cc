"""App-cloud envelope model, token lifecycle and device-channel framing.

The envelope is a plain dict with exactly the field names the vendor
API uses; ``canonicalize`` defines the cross-implementation string that
gets signed.  Tokens are 32-character cloud-issued secrets with a hard
two-hour freshness window; the device side deliberately checks nothing
but the length.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from enum import Enum

TTL_SECONDS = 7200
TOKEN_CHARS = 32
TOKEN_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"

DEVICE_PORT = 6668
DEVICE_PORT_ALT = 1883  # accepted alias, same framing

ACTION_TOKEN_GET = "tuya.m.token.get"
ACTION_DEVICE_BIND = "m.device.bind"
ACTION_DEVICE_CONTROL = "m.device.control"
ACTION_DEVICE_STATUS = "m.device.status"

SIGN_FIELD = "sign"

FRAME_KINDS = frozenset({"bind", "command", "status", "ack"})
_FRAME_HEADER = struct.Struct(">I")
MAX_FRAME_BODY = 1 << 20

# Built once: json.dumps given any option builds a new encoder on every call.
encode_sorted = json.JSONEncoder(sort_keys=True).encode
_compact_sorted = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class ProtocolError(ValueError):
    pass


class MalformedFrame(ProtocolError):
    pass


def canonicalize(envelope: dict) -> str:
    """Deterministic signing string: fields sorted by name, rendered as
    ``name=value-literal`` and joined with ``||``; ``sign`` is excluded.

    Value literals: strings verbatim, booleans ``true``/``false``,
    ``None`` as ``null``, numbers and containers as compact JSON with
    sorted keys.  This is the cross-language contract.
    """
    return "||".join(
        [f"{name}={_literal(envelope[name])}" for name in sorted(envelope) if name != SIGN_FIELD]
    )


def _literal(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, int):  # a finite number's repr is its json.dumps text
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return _compact_sorted(value)


# -- tokens ----------------------------------------------------------------


class RejectReason(Enum):
    UNKNOWN = "Unknown"
    EXPIRED = "Expired"
    VENDOR_MISMATCH = "VendorMismatch"
    USER_MISMATCH = "UserMismatch"
    ALREADY_BOUND = "AlreadyBound"


@dataclass
class ProvisionToken:
    value: str
    issued_at: int
    region: str
    bundle_id: str
    user_id: str

    def fresh(self, now: int) -> bool:
        return now - self.issued_at < TTL_SECONDS


@dataclass
class TokenVerdict:
    accepted: bool
    reason: RejectReason | None = None


def generate_token_value(rng) -> str:
    return "".join(rng.choice(TOKEN_ALPHABET) for _ in range(TOKEN_CHARS))


def issue_token(rng, now: int, region: str, bundle_id: str, user_id: str) -> ProvisionToken:
    """Mint a fresh 32-character token from an injectable rng and clock."""
    return ProvisionToken(
        value=generate_token_value(rng),
        issued_at=now,
        region=region,
        bundle_id=bundle_id,
        user_id=user_id,
    )


def device_token_check(token_text: str) -> bool:
    """The device-side check: length 32, nothing else."""
    return len(token_text) == TOKEN_CHARS


@dataclass
class TokenRecord:
    token: ProvisionToken
    bound_device: str | None = None
    last_reject: str | None = None


@dataclass
class TokenStore:
    """Cloud-side issued-token registry; a token binds once."""

    records: dict[str, TokenRecord] = field(default_factory=dict)

    def add(self, token: ProvisionToken) -> None:
        self.records[token.value] = TokenRecord(token)

    def get(self, value: str) -> TokenRecord | None:
        return self.records.get(value)

    def check(
        self,
        value: str,
        now: int,
        bundle_id: str | None = None,
        user_id: str | None = None,
    ) -> TokenVerdict:
        """Accept iff known, younger than TTL, vendor/user match issuance
        (when supplied; device binds do not know the user) and unbound."""
        rec = self.records.get(value)
        if rec is None:
            return TokenVerdict(False, RejectReason.UNKNOWN)
        tok = rec.token
        if not tok.fresh(now):
            return TokenVerdict(False, RejectReason.EXPIRED)
        if bundle_id is not None and bundle_id != tok.bundle_id:
            return TokenVerdict(False, RejectReason.VENDOR_MISMATCH)
        if user_id is not None and user_id != tok.user_id:
            return TokenVerdict(False, RejectReason.USER_MISMATCH)
        if rec.bound_device is not None:
            return TokenVerdict(False, RejectReason.ALREADY_BOUND)
        return TokenVerdict(True)

    def bind(
        self,
        value: str,
        device_id: str,
        now: int,
        bundle_id: str | None = None,
        user_id: str | None = None,
    ) -> TokenVerdict:
        verdict = self.check(value, now, bundle_id, user_id)
        rec = self.records.get(value)
        if verdict.accepted:
            rec.bound_device = device_id
        elif rec is not None:
            rec.last_reject = verdict.reason.value
        return verdict

    def bound_count(self) -> int:
        return sum(1 for r in self.records.values() if r.bound_device is not None)


# -- device channel framing --------------------------------------------------


@dataclass
class DeviceFrame:
    """Length-prefixed JSON record on the device-cloud channel."""

    kind: str  # bind | command | status | ack
    device_id: str
    token: str | None = None
    payload: dict = field(default_factory=dict)
    request_id: str | None = None

    def to_body(self) -> dict:
        body = {"kind": self.kind, "device_id": self.device_id, "payload": self.payload}
        if self.token is not None:
            body["token"] = self.token
        if self.request_id is not None:
            body["request_id"] = self.request_id
        return body

    def reply(self, success: bool, reason: str | None = None, **payload) -> "DeviceFrame":
        """The ack for this frame; ``reason`` is in its payload only when given."""
        payload["success"] = success
        if reason is not None:
            payload["reason"] = reason
        return DeviceFrame(kind="ack", device_id=self.device_id,
                           request_id=self.request_id, payload=payload)


def encode_frame(frame: DeviceFrame) -> bytes:
    """4-byte big-endian body length, then the JSON body."""
    if frame.kind not in FRAME_KINDS:
        raise MalformedFrame(f"unknown frame kind {frame.kind!r}")
    body = encode_sorted(frame.to_body()).encode("utf-8")
    return _FRAME_HEADER.pack(len(body)) + body


def decode_frame_body(body: bytes) -> DeviceFrame:
    try:
        rec = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # ValueError covers JSON and UTF-8 errors
        raise MalformedFrame(f"frame body does not parse: {exc}") from exc
    if not isinstance(rec, dict):
        raise MalformedFrame("frame body is not an object")
    kind = rec.get("kind")
    device_id = rec.get("device_id")
    if kind not in FRAME_KINDS or not isinstance(device_id, str):
        raise MalformedFrame(f"bad kind/device_id in frame: {rec!r}")
    payload = rec.get("payload", {})
    if not isinstance(payload, dict):
        raise MalformedFrame("frame payload is not an object")
    token, request_id = rec.get("token"), rec.get("request_id")
    if not all(v is None or isinstance(v, str) for v in (token, request_id)):
        raise MalformedFrame("frame token/request_id is not a string")
    return DeviceFrame(
        kind=kind,
        device_id=device_id,
        token=token,
        payload=payload,
        request_id=request_id,
    )


class FrameReader:
    """Incremental parser for length-prefixed frames off a byte stream."""

    def __init__(self):
        self._buf = bytearray()

    def push(self, data: bytes) -> list[DeviceFrame]:
        self._buf.extend(data)
        frames = []
        while True:
            if len(self._buf) < _FRAME_HEADER.size:
                break
            (length,) = _FRAME_HEADER.unpack_from(self._buf)
            if length > MAX_FRAME_BODY:
                raise MalformedFrame(f"frame body of {length} bytes exceeds cap")
            if len(self._buf) < _FRAME_HEADER.size + length:
                break
            body = bytes(self._buf[_FRAME_HEADER.size : _FRAME_HEADER.size + length])
            del self._buf[: _FRAME_HEADER.size + length]
            frames.append(decode_frame_body(body))
        return frames


def serve_frames(stream, on_frame) -> None:
    """Parse frames off ``stream`` as bytes arrive and hand each to
    ``on_frame(stream, frame)``.

    A malformed frame is dropped silently, and so are the frames parsed
    before it from the same chunk.
    """
    reader = FrameReader()

    def on_data():
        try:
            frames = reader.push(stream.recv())
        except MalformedFrame:
            return
        for frame in frames:
            on_frame(stream, frame)

    stream.on_data = on_data


def listen_frames(sim, endpoint, on_frame) -> None:
    """Serve frames to ``on_frame(stream, frame)`` on every stream opened
    to ``endpoint`` on either device port."""

    def accept(stream, _src) -> None:
        serve_frames(stream, on_frame)

    for port in (DEVICE_PORT, DEVICE_PORT_ALT):
        sim.set_stream_handler(endpoint, port, accept)
