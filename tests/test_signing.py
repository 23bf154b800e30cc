import base64
import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provlab.protocol import canonicalize
from provlab.signing import (
    AuthFailure,
    BadEncoding,
    EmptyKeyPart,
    SigningKeySet,
    derive_signing_key,
    open_postdata,
    seal_postdata,
    sign_envelope,
    verify_envelope,
)

VECTORS = Path(__file__).parent / "vectors"


def hmac_sha256_reference(key: bytes, msg: bytes) -> str:
    """RFC 2104 by hand; deliberately avoids the hmac module."""
    block = 64
    if len(key) > block:
        key = hashlib.sha256(key).digest()
    key = key + b"\x00" * (block - len(key))
    inner = hashlib.sha256(bytes(b ^ 0x36 for b in key) + msg).digest()
    return hashlib.sha256(bytes(b ^ 0x5C for b in key) + inner).hexdigest()


class TestKeyDerivation:
    def test_concatenation_order(self):
        keys = SigningKeySet(cert_hash="ch", secret1="s1", secret2="s2")
        assert derive_signing_key(keys) == b"ch_s2_s1"

    def test_secret2_sits_in_the_middle(self, keyset):
        derived = derive_signing_key(keyset).decode()
        parts = derived.split("_")
        assert parts[1] == "4j8vqy4egph3thd7fdchk435hjudwsey"

    def test_differing_secret2_differs(self, keyset):
        other = SigningKeySet(keyset.cert_hash, keyset.secret1, "x" * 32)
        assert derive_signing_key(other) != derive_signing_key(keyset)

    def test_empty_part_rejected(self):
        with pytest.raises(EmptyKeyPart):
            derive_signing_key(SigningKeySet("", "s1", "s2"))


class TestSignatures:
    def test_golden_vector(self):
        vec = json.loads((VECTORS / "sign.json").read_text())
        keys = SigningKeySet(
            cert_hash=vec["keys"]["certHash"],
            secret1=vec["keys"]["secret1"],
            secret2=vec["keys"]["secret2"],
        )
        assert sign_envelope(vec["envelope"], derive_signing_key(keys)) == vec["sign"]

    def test_canonical_golden_file(self):
        vec = json.loads((VECTORS / "sign.json").read_text())
        golden = (VECTORS / "canonical.txt").read_text().rstrip("\n")
        assert canonicalize(vec["envelope"]) == golden

    def test_against_reference_hmac(self, keyset, rng):
        key = derive_signing_key(keyset)
        for _ in range(20):
            env = {
                "a": "tuya.m.token.get",
                "time": rng.randrange(2**31),
                "lat": rng.random() * 180 - 90,
                "bundleId": "com.xyz.smart",
            }
            expected = hmac_sha256_reference(key, canonicalize(env).encode())
            assert sign_envelope(env, key) == expected

    def test_signature_is_64_hex_chars(self, keyset):
        sig = sign_envelope({"a": "x"}, derive_signing_key(keyset))
        assert len(sig) == 64
        assert all(c in "0123456789abcdef" for c in sig)

    @settings(max_examples=30, deadline=None)
    @given(data=st.randoms())
    def test_field_order_does_not_matter(self, data):
        fields = {
            "a": "act", "time": 1, "lat": 2.5, "nested": {"k": [1, 2]},
            "flag": True, "nothing": None,
        }
        names = list(fields)
        data.shuffle(names)
        permuted = {n: fields[n] for n in names}
        key = derive_signing_key(SigningKeySet("ch", "s1", "s2"))
        assert sign_envelope(fields, key) == sign_envelope(permuted, key)

    def test_removing_any_field_changes_canonical_text(self):
        fields = {"a": "x", "b": "y", "c": "z"}
        base = canonicalize(fields)
        for name in fields:
            slim = {k: v for k, v in fields.items() if k != name}
            assert canonicalize(slim) != base

    def test_verify_round_trip_and_avalanche(self, keyset):
        key = derive_signing_key(keyset)
        env = {"a": "tuya.m.token.get", "time": 1613163767, "lon": -90.0}
        env["sign"] = sign_envelope(env, key)
        assert verify_envelope(env, key)
        tampered = dict(env)
        tampered["lon"] = -90.1
        assert not verify_envelope(tampered, key)

    def test_non_ascii_sign_fails(self, keyset):
        env = {"a": "x", "sign": "é" * 64}
        assert not verify_envelope(env, derive_signing_key(keyset))

    def test_missing_sign(self, keyset):
        assert not verify_envelope({"a": "x"}, derive_signing_key(keyset))

    # a field the signing string cannot render fails the check instead of raising
    @pytest.mark.parametrize("bad", [
        lambda env: env.update(postData=10**5000),
        lambda env: env.update(postData=[]) or env["postData"].append(env["postData"]),
        lambda env: env.update(postData=b"x"),
        lambda env: env.update(postData={1}),
        lambda env: env.update({1: "x"}),
        lambda env: env.update(sign=10**5000),
        lambda env: env.update(postData="\ud800"),
        lambda env: env.update(sign="\ud800"),
    ], ids=["past-digit-limit", "circular", "bytes", "set", "int-key", "sign-past-digit-limit",
            "lone-surrogate", "sign-lone-surrogate"])
    def test_unrenderable_field_fails(self, keyset, bad):
        env = {"a": "tuya.m.token.get", "time": 1, "sign": "00" * 32}
        bad(env)
        assert not verify_envelope(env, derive_signing_key(keyset))

    def test_in_flight_alteration_without_key_fails(self, keyset, rng):
        # an on-path attacker without the key cannot keep the envelope valid
        key = derive_signing_key(keyset)
        env = {"a": "m.device.control", "time": 1000, "deviceId": "bulb-01"}
        env["sign"] = sign_envelope(env, key)
        for _ in range(100):
            altered = dict(env)
            altered["deviceId"] = f"bulb-{rng.randrange(10_000):04d}"
            if altered["deviceId"] == env["deviceId"]:
                continue
            altered["sign"] = "".join(
                rng.choice("0123456789abcdef") for _ in range(64)
            )
            assert not verify_envelope(altered, key)


class TestPostDataSealing:
    def test_round_trip(self, keyset, rng):
        key = derive_signing_key(keyset)
        for size in (0, 1, 17, 1024, 65536):
            blob = bytes(rng.randrange(256) for _ in range(size))
            assert open_postdata(seal_postdata(blob, key, rng), key) == blob

    def test_sealed_shape(self, keyset, rng):
        key = derive_signing_key(keyset)
        sealed = seal_postdata(b"payload", key, rng)
        raw = base64.b64decode(sealed, validate=True)
        assert len(raw) >= 12 + 16

    def test_wrong_keyset_fails_auth(self, keyset, rng):
        key = derive_signing_key(keyset)
        other = derive_signing_key(
            SigningKeySet(keyset.cert_hash, keyset.secret1, "z" * 32)
        )
        sealed = seal_postdata(b"payload", key, rng)
        with pytest.raises(AuthFailure):
            open_postdata(sealed, other)

    def test_bad_encoding(self, keyset):
        key = derive_signing_key(keyset)
        with pytest.raises(BadEncoding):
            open_postdata("@@not-base64@@", key)
        with pytest.raises(BadEncoding):
            open_postdata(base64.b64encode(b"short").decode(), key)

    def test_rejects_every_single_byte_corruption(self, keyset):
        rng = random.Random(7)
        key = derive_signing_key(keyset)
        sealed = seal_postdata(b"the plaintext body", key, rng)
        raw = bytearray(base64.b64decode(sealed))
        for _ in range(1000):
            pos = rng.randrange(len(raw))
            delta = rng.randrange(1, 256)
            corrupted = bytearray(raw)
            corrupted[pos] ^= delta
            with pytest.raises(AuthFailure):
                open_postdata(base64.b64encode(bytes(corrupted)).decode(), key)

    def test_seeded_seal_is_pinned(self, keyset):
        # the nonce is 12 getrandbits(8) draws; the sealed text is frozen
        source = random.Random(7)
        sealed = seal_postdata(b'{"device_id": "bulb-01"}', derive_signing_key(keyset),
                               nonce_source=source)
        assert sealed == "UvImZaYMEtKJGF2VrdUzTBOBTVPzXJ5GXp7EXOhSHVR18miifp9ALrjh4e1CT7SJw0M54A=="
        expected = random.Random(7)
        for _ in range(12):
            expected.getrandbits(8)
        assert source.getstate() == expected.getstate()

    def test_fresh_nonces_differ(self, keyset):
        key = derive_signing_key(keyset)
        a = seal_postdata(b"same", key)
        b = seal_postdata(b"same", key)
        assert a != b  # os-random nonces
