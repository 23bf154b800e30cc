import enum
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from provlab import protocol
from provlab.protocol import (
    DeviceFrame,
    FrameReader,
    MalformedFrame,
    RejectReason,
    TokenStore,
    canonicalize,
    decode_frame_body,
    device_token_check,
    encode_frame,
    issue_token,
)


class _Level(enum.IntEnum):
    HIGH = 3


def _reference_literal(value) -> str:
    # the signing-string literal rules as first written, kept to pin the contract
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, float)):
        return json.dumps(value)
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _reference_canonicalize(envelope: dict) -> str:
    return "||".join(
        f"{name}={_reference_literal(envelope[name])}"
        for name in sorted(envelope) if name != "sign"
    )


_SCALARS = (
    st.text(max_size=8) | st.booleans() | st.none()
    | st.integers(min_value=-(2**70), max_value=2**70) | st.sampled_from(list(_Level))
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 5e-324])
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12,
)


class TestCanonicalize:
    def test_excludes_sign(self):
        assert canonicalize({"a": "x", "sign": "ff"}) == canonicalize({"a": "x"})

    def test_value_literals(self):
        text = canonicalize(
            {"s": "str", "i": 3, "f": 2.5, "b": False, "n": None, "d": {"z": 1, "a": 2}}
        )
        assert text == 'b=false||d={"a":2,"z":1}||f=2.5||i=3||n=null||s=str'

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.text(max_size=8), _VALUES, max_size=6))
    @example({"i": 2**64 + 1, "e": _Level.HIGH, "n": [-0.0, 1e16, 5e-324]})
    @example({"x": float("nan"), "y": float("inf"), "z": {"w": [float("-inf")]}})
    def test_matches_the_reference_rendering(self, envelope):
        assert canonicalize(envelope) == _reference_canonicalize(envelope)


class TestTokens:
    def test_issue_shape(self, rng, clock):
        token = issue_token(rng, clock.now, "EU", "com.xyz.smart", "user-01")
        assert len(token.value) == 32
        assert set(token.value) <= set(protocol.TOKEN_ALPHABET)
        assert token.issued_at == clock.now

    def test_issuances_are_distinct(self, rng, clock):
        seen = {
            issue_token(rng, clock.now, "EU", "b", "u").value for _ in range(10_000)
        }
        assert len(seen) == 10_000

    @settings(max_examples=100, deadline=None)
    @given(length=st.integers(min_value=1, max_value=64), data=st.randoms())
    def test_device_check_is_pure_length(self, length, data):
        text = "".join(data.choice(protocol.TOKEN_ALPHABET) for _ in range(length))
        assert device_token_check(text) is (length == 32)

    def test_device_accepts_stale_cloud_rejects(self, rng, clock):
        # the device cannot tell a stale token from a fresh one
        store = TokenStore()
        token = issue_token(rng, clock.now, "EU", "b", "u")
        store.add(token)
        clock.advance(protocol.TTL_SECONDS + 1)
        assert device_token_check(token.value)
        verdict = store.check(token.value, clock.now, "b", "u")
        assert not verdict.accepted
        assert verdict.reason is RejectReason.EXPIRED

    def test_ttl_boundary(self, rng):
        store = TokenStore()
        token = issue_token(rng, 1_000_000, "EU", "b", "u")
        store.add(token)
        ok = store.check(token.value, 1_000_000 + 7199, "b", "u")
        assert ok.accepted
        bad = store.check(token.value, 1_000_000 + 7201, "b", "u")
        assert not bad.accepted and bad.reason is RejectReason.EXPIRED

    def test_unknown_token(self, clock):
        store = TokenStore()
        verdict = store.check("z" * 32, clock.now, "b", "u")
        assert verdict.reason is RejectReason.UNKNOWN

    def test_vendor_and_user_mismatch(self, rng, clock):
        store = TokenStore()
        token = issue_token(rng, clock.now, "EU", "vendor-a", "alice")
        store.add(token)
        assert (
            store.check(token.value, clock.now, "vendor-b", "alice").reason
            is RejectReason.VENDOR_MISMATCH
        )
        assert (
            store.check(token.value, clock.now, "vendor-a", "bob").reason
            is RejectReason.USER_MISMATCH
        )

    def test_single_use_binding(self, rng, clock):
        store = TokenStore()
        token = issue_token(rng, clock.now, "EU", "b", "u")
        store.add(token)
        first = store.bind(token.value, "dev-1", clock.now, "b", "u")
        assert first.accepted
        second = store.bind(token.value, "dev-2", clock.now, "b", "u")
        assert not second.accepted
        assert second.reason is RejectReason.ALREADY_BOUND
        assert store.get(token.value).bound_device == "dev-1"

    def test_cloud_acceptance_implies_device_acceptance(self, rng, clock):
        store = TokenStore()
        for _ in range(200):
            token = issue_token(rng, clock.now, "EU", "b", "u")
            store.add(token)
            if store.check(token.value, clock.now, "b", "u").accepted:
                assert device_token_check(token.value)


class TestFrames:
    def test_round_trip(self):
        frame = DeviceFrame(
            kind="bind",
            device_id="bulb-01",
            token="t" * 32,
            payload={"ssid": "net"},
            request_id="r-1",
        )
        wire = encode_frame(frame)
        assert wire[:4] == (len(wire) - 4).to_bytes(4, "big")
        out = FrameReader().push(wire)
        assert out == [frame]

    def test_reply_is_the_ack_for_its_frame(self):
        frame = DeviceFrame(kind="command", device_id="d", token="t", request_id="r-1")
        assert frame.reply(True) == DeviceFrame(
            kind="ack", device_id="d", request_id="r-1", payload={"success": True})
        ack = frame.reply(False, "UnknownCommand", status={"power": "on"})
        assert ack.payload == {"success": False, "reason": "UnknownCommand",
                               "status": {"power": "on"}}
        body = (b'{"device_id": "d", "kind": "ack", "payload": {"reason": "UnknownCommand", '
                b'"status": {"power": "on"}, "success": false}, "request_id": "r-1"}')
        assert encode_frame(ack) == len(body).to_bytes(4, "big") + body

    def test_reader_handles_partial_and_coalesced_input(self):
        frames = [
            DeviceFrame(kind="command", device_id="d", payload={"command": {"power": "on"}}),
            DeviceFrame(kind="ack", device_id="d", payload={"success": True}),
        ]
        wire = b"".join(encode_frame(f) for f in frames)
        reader = FrameReader()
        got = []
        for i in range(0, len(wire), 7):
            got.extend(reader.push(wire[i : i + 7]))
        assert got == frames

    def test_malformed_body(self):
        reader = FrameReader()
        body = b"this is not json"
        with pytest.raises(MalformedFrame):
            reader.push(len(body).to_bytes(4, "big") + body)

    def test_unknown_kind(self):
        with pytest.raises(MalformedFrame):
            encode_frame(DeviceFrame(kind="explode", device_id="d"))
        reader = FrameReader()
        body = b'{"kind": "explode", "device_id": "d"}'
        with pytest.raises(MalformedFrame):
            reader.push(len(body).to_bytes(4, "big") + body)

    @pytest.mark.parametrize("field", ["token", "request_id"])
    def test_non_string_token_or_request_id(self, field):
        body = json.dumps({"kind": "ack", "device_id": "d", field: ["x"]}).encode()
        with pytest.raises(MalformedFrame):
            FrameReader().push(len(body).to_bytes(4, "big") + body)

    def test_oversized_frame_rejected(self):
        reader = FrameReader()
        with pytest.raises(MalformedFrame):
            reader.push((2**21).to_bytes(4, "big"))

    def test_deeply_nested_body(self):
        with pytest.raises(MalformedFrame):
            decode_frame_body(b"[" * 100_000)

    def test_int_past_the_digit_limit(self):
        # json.loads raises a plain ValueError, not JSONDecodeError, here
        with pytest.raises(MalformedFrame):
            decode_frame_body(b'{"kind": "ack", "device_id": "d", "n": ' + b"9" * 5000 + b"}")

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.binary(max_size=64) | st.sampled_from([
        b"\x00\x00\x00\x02{}", b"\x00\x00\x00\x04null", b"\x00\x01\x86\xa0" + b"[" * 100_000,
        encode_frame(DeviceFrame(kind="ack", device_id="d")),
    ]), max_size=6))
    @example([b"\x00\x01\x86\xa0", b"{" * 100_000])
    def test_reader_fuzz_only_malformed_frame_escapes(self, chunks):
        reader = FrameReader()
        for chunk in chunks:
            try:
                frames = reader.push(chunk)
            except MalformedFrame:
                return
            assert all(isinstance(frame, DeviceFrame) for frame in frames)
