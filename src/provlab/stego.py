"""LSB steganography over 24-bit uncompressed BMP files.

The hidden record is ``A5 5A | keys_cnt | (len, bytes)*`` written one
bit per pixel byte (MSB first within each record byte), starting at a
pixel-array offset derived from crc32 of a caller-supplied seed string.
Header bytes are never touched and every pixel byte changes by at most
one, so the image looks intact.  Full layout in docs/stego.md.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

MAGIC = b"\xa5\x5a"
MAX_KEY_BYTES = 64
MAX_KEYS = 255  # keys_cnt is one byte

_FILE_HEADER = struct.Struct("<2sIHHI")  # bfType, bfSize, res1, res2, bfOffBits
_BI_PREFIX = struct.Struct("<IiiHHI")  # biSize, width, height, planes, bitcount, compression


class StegoError(ValueError):
    pass


class BadBmp(StegoError):
    pass


class NotUncompressed24Bit(StegoError):
    pass


class InsufficientCapacity(StegoError):
    pass


class MagicMismatch(StegoError):
    pass


@dataclass(frozen=True)
class BmpImage:
    """A parsed BMP: everything before the pixel array, then the pixels.
    Frozen, so one image can be shared as a carrier."""

    header: bytes  # bytes [0, bfOffBits)
    pixels: bytes  # bytes [bfOffBits, end)
    width: int
    height: int

    @property
    def off_bits(self) -> int:
        return len(self.header)

    def to_bytes(self) -> bytes:
        return self.header + self.pixels


def parse_bmp(data: bytes) -> BmpImage:
    if len(data) < _FILE_HEADER.size + _BI_PREFIX.size:
        raise BadBmp("file shorter than BMP headers")
    bf_type, _bf_size, _r1, _r2, off_bits = _FILE_HEADER.unpack_from(data, 0)
    if bf_type != b"BM":
        raise BadBmp("missing BM signature")
    _bi_size, width, height, planes, bitcount, compression = _BI_PREFIX.unpack_from(
        data, _FILE_HEADER.size
    )
    if bitcount != 24 or compression != 0:
        raise NotUncompressed24Bit(
            f"need 24-bit uncompressed pixels, got {bitcount}-bit compression={compression}"
        )
    if planes != 1 or off_bits > len(data) or off_bits < _FILE_HEADER.size:
        raise BadBmp("implausible header geometry")
    return BmpImage(
        header=bytes(data[:off_bits]),
        pixels=bytes(data[off_bits:]),
        width=width,
        height=abs(height),
    )


def make_bmp(width: int, height: int) -> BmpImage:
    """Build a deterministic 24-bit BMP (gradient fill) for fixtures."""
    row_raw = width * 3
    row_padded = (row_raw + 3) & ~3
    pixel_len = row_padded * height
    off_bits = _FILE_HEADER.size + 40
    header = _FILE_HEADER.pack(b"BM", off_bits + pixel_len, 0, 0, off_bits)
    header += struct.pack(
        "<IiiHHIIiiII", 40, width, height, 1, 24, 0, pixel_len, 2835, 2835, 0, 0
    )
    # pixel (x, y) is blue (7x + y), green (x + 5y), red (3x ^ y), all mod 256
    pad = bytes(row_padded - row_raw)
    pixels = b"".join(
        bytes(c & 0xFF for x in range(width) for c in (7 * x + y, x + 5 * y, 3 * x ^ y)) + pad
        for y in range(height)
    )
    return BmpImage(header=header, pixels=pixels, width=width, height=height)


@dataclass
class StegoRecord:
    """The embedded secret container: magic, key count, then keys."""

    keys: list[bytes]

    def to_bytes(self) -> bytes:
        if not self.keys:
            raise StegoError("record must carry at least one key")
        if len(self.keys) > MAX_KEYS:
            raise StegoError(f"record of {len(self.keys)} keys exceeds {MAX_KEYS}")
        out = bytearray(MAGIC)
        out.append(len(self.keys))
        for key in self.keys:
            if not 1 <= len(key) <= MAX_KEY_BYTES:
                raise StegoError(f"key length {len(key)} outside 1-{MAX_KEY_BYTES}")
            out.append(len(key))
            out.extend(key)
        return bytes(out)


def seed_hash(seed: str) -> int:
    return zlib.crc32(seed.encode("utf-8")) & 0xFFFFFFFF


def _start_byte(seed: str, pixel_len: int, record_len: int) -> int:
    window = pixel_len - record_len - 1
    if window <= 0:
        raise InsufficientCapacity(
            f"pixel array of {pixel_len} bytes cannot hold a {record_len}-byte record"
        )
    return seed_hash(seed) % window


def _bits(data: bytes) -> bytes:
    """``data`` as ASCII ``0``/``1`` digits, MSB first within each byte."""
    return "".join(f"{byte:08b}" for byte in data).encode()


def stego_embed(image: BmpImage, seed: str, record: StegoRecord) -> BmpImage:
    """Write the record into pixel-byte LSBs; header untouched."""
    blob = record.to_bytes()
    start = _start_byte(seed, len(image.pixels), len(blob))
    needed = start + 8 * len(blob)
    if needed > len(image.pixels):
        raise InsufficientCapacity(
            f"record needs {needed} pixel bytes, image has {len(image.pixels)}"
        )
    # an ASCII digit's low bit is its bit
    pixels = image.pixels
    run = bytes(p & 0xFE | digit & 1 for p, digit in zip(pixels[start:needed], _bits(blob)))
    return BmpImage(
        header=image.header, pixels=pixels[:start] + run + pixels[needed:],
        width=image.width, height=image.height,
    )


@dataclass
class ExtractReport:
    """What the recovery tool prints: hash of the seed string, key count
    and the file offsets of the carrier run."""

    seed_hash: int
    keys_cnt: int
    offsets: list[int] = field(default_factory=list)  # [start, end) file offsets


# each pixel byte's LSB as an ASCII digit: the bit plane is one translate
_LSB_ASCII = bytes(b"01"[i & 1] for i in range(256))
_MAGIC_BITS = _bits(MAGIC)


def stego_extract(image: BmpImage, seed: str) -> tuple[StegoRecord, ExtractReport]:
    """Recover the record embedded with the same seed.

    The embed offset depends on the record size, which the extractor
    does not know upfront, so candidate sizes are probed in ascending
    order; a candidate is accepted only if the magic appears at its
    implied offset and the key lengths read there sum back to exactly
    that size.  A wrong seed (or a clean image) never satisfies this and
    raises :exc:`MagicMismatch`.
    """
    pixels = image.pixels
    n = len(pixels)
    bits = pixels.translate(_LSB_ASCII)
    hashed = seed_hash(seed)
    max_size = min(n // 8, 3 + 255 * (1 + MAX_KEY_BYTES))
    for size in range(3, max_size + 1):
        window = n - size - 1
        if window <= 0:
            break
        cand = hashed % window
        if cand + 8 * size > n or not bits.startswith(_MAGIC_BITS, cand):
            continue
        keys_cnt = int(bits[cand + 16 : cand + 24], 2)
        total = 3
        keys = []
        for _k in range(keys_cnt):
            pos = cand + 8 * total  # the key's length byte
            if pos + 8 > n:
                break
            lenb = int(bits[pos : pos + 8], 2)
            if not 1 <= lenb <= MAX_KEY_BYTES or pos + 8 * (1 + lenb) > n:
                break
            keys.append(int(bits[pos + 8 : pos + 8 * (1 + lenb)], 2).to_bytes(lenb, "big"))
            total += 1 + lenb
        if not keys or len(keys) != keys_cnt or total != size:
            continue
        record = StegoRecord(keys=keys)
        report = ExtractReport(
            seed_hash=hashed,
            keys_cnt=len(keys),
            offsets=[image.off_bits + cand, image.off_bits + cand + 8 * size],
        )
        return record, report
    raise MagicMismatch("no embedded record found for this seed")
