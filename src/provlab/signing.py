"""Signing-key material, envelope signatures and postData sealing.

The vendor app signs every request with HMAC-SHA256 keyed by the
concatenation of three extracted secrets, ``certHash_secret2_secret1``.
postData bodies are sealed with AES-128-GCM under a key derived from
the same material, so both directions of the app-cloud exchange stay
testable in plaintext-in / ciphertext-out form.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import secrets as _sysrand
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .protocol import canonicalize

NONCE_BYTES = 12
TAG_BYTES = 16


class SigningError(ValueError):
    pass


class EmptyKeyPart(SigningError):
    pass


class AuthFailure(SigningError):
    pass


class BadEncoding(SigningError):
    pass


@dataclass(frozen=True)
class SigningKeySet:
    """The three key parts recovered from a vendor app."""

    cert_hash: str
    secret1: str
    secret2: str


def derive_signing_key(keys: SigningKeySet) -> bytes:
    """UTF-8 bytes of ``certHash_secret2_secret1`` (note the order)."""
    if not (keys.cert_hash and keys.secret1 and keys.secret2):
        raise EmptyKeyPart("all three key parts must be nonempty")
    return f"{keys.cert_hash}_{keys.secret2}_{keys.secret1}".encode("utf-8")


def sign_envelope(fields: dict, key: bytes) -> str:
    """Lowercase hex HMAC-SHA256 over the canonical field string."""
    try:
        text = canonicalize(fields).encode("utf-8")
    except (ValueError, TypeError, RecursionError) as exc:
        raise SigningError(f"the signing string cannot be built: {exc}") from exc
    mac = _keyed(bytes(key))[0].copy()
    mac.update(text)
    return mac.hexdigest()


def verify_envelope(envelope: dict, key: bytes) -> bool:
    """Constant-time check of the ``sign`` field against a recomputation;
    False too for a ``sign`` that is missing, not a string or not ASCII, and
    for a signing string that cannot be built."""
    sign = envelope.get("sign")
    # compare_digest refuses a str with non-ASCII characters
    if not isinstance(sign, str) or not sign.isascii():
        return False
    try:
        expected = sign_envelope(envelope, key)
    except SigningError:
        return False
    return hmac.compare_digest(expected, sign.lower())


@lru_cache(maxsize=64)  # signing keys whose primitives are kept built
def _keyed(signing_key: bytes) -> tuple[hmac.HMAC, AESGCM]:
    """The HMAC-SHA256 keyed by ``signing_key``, which each signature copies,
    and the AES-128-GCM cipher keyed by ``sha256(signing_key)[:16]``."""
    cipher = AESGCM(hashlib.sha256(signing_key).digest()[:16])
    return hmac.new(signing_key, digestmod=hashlib.sha256), cipher


def seal_postdata(plaintext: bytes, key: bytes, nonce_source=None) -> str:
    """base64(nonce[12] || AES-128-GCM ciphertext+tag).

    ``nonce_source`` is a ``random.Random``-like object used for
    deterministic tests; by default a fresh OS-random nonce is drawn.
    """
    if nonce_source is None:
        nonce = _sysrand.token_bytes(NONCE_BYTES)
    else:
        nonce = bytes(map(nonce_source.getrandbits, repeat(8, NONCE_BYTES)))
    sealed = _keyed(bytes(key))[1].encrypt(nonce, plaintext, None)
    return base64.b64encode(nonce + sealed).decode("ascii")


def open_postdata(sealed: str, key: bytes) -> bytes:
    """Inverse of :func:`seal_postdata`; authenticates the tag."""
    try:
        raw = base64.b64decode(sealed.encode("ascii"), validate=True)
    except Exception as exc:
        raise BadEncoding(f"sealed text is not valid base64: {exc}") from exc
    if len(raw) < NONCE_BYTES + TAG_BYTES:
        raise BadEncoding("sealed text shorter than nonce plus tag")
    nonce, ct = raw[:NONCE_BYTES], raw[NONCE_BYTES:]
    try:
        return _keyed(bytes(key))[1].decrypt(nonce, ct, None)
    except InvalidTag as exc:
        raise AuthFailure("postData authentication failed") from exc
