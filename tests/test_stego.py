import contextlib
import hashlib
import io
import random
import struct
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from provlab import cli, stego
from provlab.stego import (
    MAGIC,
    MAX_KEY_BYTES,
    BadBmp,
    BmpImage,
    ExtractReport,
    InsufficientCapacity,
    MagicMismatch,
    NotUncompressed24Bit,
    StegoError,
    StegoRecord,
    make_bmp,
    parse_bmp,
    seed_hash,
    stego_embed,
    stego_extract,
)

SEED = "8c4wxjarqdtnuju4wut5"
KEY = b"4j8vqy4egph3thd7fdchk435hjudwsey"


def embed_fits(image, seed, record) -> bool:
    blob = record.to_bytes()
    start = seed_hash(seed) % (len(image.pixels) - len(blob) - 1)
    return start + 8 * len(blob) <= len(image.pixels)


class TestBmp:
    def test_make_parse_round_trip(self):
        img = make_bmp(33, 17)  # odd width exercises row padding
        again = parse_bmp(img.to_bytes())
        assert again.header == img.header
        assert again.pixels == img.pixels
        assert (again.width, again.height) == (33, 17)

    @pytest.mark.parametrize("width, height, digest", [
        (1, 1, "1473ed058f811bf3e8a82c638b8b4b9f95bc2131a27374f010b16c48e973cd2d"),
        (3, 2, "316ac756ba6625ed10276ee2d987832fa048011005a000d9f4753e73a942e9fe"),
        (33, 17, "f4f26b094bcd1f255ede67ccf2ffba328ed6e6bee6e4ebaf35b659581abf44f9"),
        (64, 64, "6db1ec1d38df4b6997199755680f8801561951c2afbaf29fbae895b72ed41aaa"),
        (256, 97, "b208be273d1752ee127763cfca0e5d37a1efb8825bd10eedeeaff7e9c899e86c"),
    ])
    def test_make_bmp_bytes_are_pinned(self, width, height, digest):
        # scenario worlds build their app assets from these bytes
        assert hashlib.sha256(make_bmp(width, height).to_bytes()).hexdigest() == digest

    @settings(max_examples=40, deadline=None)
    @given(width=st.integers(0, 70), height=st.integers(0, 40) | st.integers(250, 530))
    def test_make_bmp_matches_the_per_pixel_gradient(self, width, height):
        # heights past 256 wrap the row term of every channel
        row_padded = (width * 3 + 3) & ~3
        expected = bytearray(row_padded * height)
        for y in range(height):
            for x in range(width):
                at = y * row_padded + 3 * x
                expected[at : at + 3] = bytes(
                    ((x * 7 + y) & 0xFF, (x + y * 5) & 0xFF, (x * 3 ^ y) & 0xFF))
        assert make_bmp(width, height).pixels == expected

    def test_rejects_non_bmp(self):
        with pytest.raises(BadBmp):
            parse_bmp(b"PNG....definitely not a bitmap....." + bytes(64))

    def test_rejects_non_24bit(self):
        img = bytearray(make_bmp(8, 8).to_bytes())
        img[28] = 8  # biBitCount
        with pytest.raises(NotUncompressed24Bit):
            parse_bmp(bytes(img))

    def test_rejects_compressed(self):
        img = bytearray(make_bmp(8, 8).to_bytes())
        img[30] = 1  # biCompression = BI_RLE8
        with pytest.raises(NotUncompressed24Bit):
            parse_bmp(bytes(img))


class TestEmbedExtract:
    def test_round_trip(self):
        img = make_bmp(64, 64)
        record = StegoRecord(keys=[KEY])
        carrier = stego_embed(img, SEED, record)
        recovered, report = stego_extract(carrier, SEED)
        assert recovered.keys == [KEY]
        assert report.keys_cnt == 1

    def test_header_and_dimensions_untouched(self):
        img = make_bmp(64, 64)
        carrier = stego_embed(img, SEED, StegoRecord(keys=[KEY]))
        assert carrier.header == img.header
        assert (carrier.width, carrier.height) == (img.width, img.height)

    def test_lsb_confined(self):
        # oracle: byte-wise diff of before and after
        img = make_bmp(64, 64)
        carrier = stego_embed(img, SEED, StegoRecord(keys=[KEY]))
        deltas = [abs(a - b) for a, b in zip(img.pixels, carrier.pixels)]
        assert max(deltas) == 1
        assert len(carrier.pixels) == len(img.pixels)

    def test_report_hash_is_crc32_of_seed(self):
        img = make_bmp(64, 64)
        carrier = stego_embed(img, SEED, StegoRecord(keys=[KEY]))
        _, report = stego_extract(carrier, SEED)
        assert report.seed_hash == zlib.crc32(SEED.encode()) & 0xFFFFFFFF

    def test_offsets_bracket_the_carrier_run(self):
        img = make_bmp(64, 64)
        record = StegoRecord(keys=[KEY])
        carrier = stego_embed(img, SEED, record)
        _, report = stego_extract(carrier, SEED)
        start, end = report.offsets
        assert end - start == 8 * len(record.to_bytes())
        assert start >= carrier.off_bits

    def test_wrong_seed_mismatches(self):
        img = make_bmp(64, 64)
        carrier = stego_embed(img, SEED, StegoRecord(keys=[KEY]))
        with pytest.raises(MagicMismatch):
            stego_extract(carrier, "not-the-seed")

    def test_unembedded_image_mismatches(self):
        with pytest.raises(MagicMismatch):
            stego_extract(make_bmp(64, 64), SEED)

    def test_multiple_keys(self):
        keys = [b"first-key", KEY, b"k3"]
        img = make_bmp(96, 96)
        carrier = stego_embed(img, SEED, StegoRecord(keys=keys))
        recovered, report = stego_extract(carrier, SEED)
        assert recovered.keys == keys
        assert report.keys_cnt == 3

    def test_insufficient_capacity(self):
        tiny = make_bmp(4, 4)  # 48 pixel bytes
        with pytest.raises(InsufficientCapacity):
            stego_embed(tiny, SEED, StegoRecord(keys=[KEY]))

    def test_key_length_bounds(self):
        with pytest.raises(Exception):
            StegoRecord(keys=[b""]).to_bytes()
        with pytest.raises(Exception):
            StegoRecord(keys=[b"x" * 65]).to_bytes()
        with pytest.raises(Exception):
            StegoRecord(keys=[]).to_bytes()
        with pytest.raises(StegoError):
            StegoRecord(keys=[b"k"] * 256).to_bytes()

    @settings(max_examples=30, deadline=None)
    @given(
        key=st.binary(min_size=1, max_size=64),
        seed=st.text(
            st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=24
        ),
    )
    def test_round_trip_property(self, key, seed):
        img = make_bmp(96, 96)
        record = StegoRecord(keys=[key])
        if not embed_fits(img, seed, record):
            return  # seed lands too close to the edge; embed would refuse
        carrier = stego_embed(img, seed, record)
        recovered, _ = stego_extract(carrier, seed)
        assert recovered.keys == [key]


def _oracle_read_bits(pixels, start, count):
    end = start + 8 * count
    if end > len(pixels):
        raise MagicMismatch("record runs past the pixel array")
    out = bytearray()
    acc = 0
    for i, pos in enumerate(range(start, end)):
        acc = (acc << 1) | (pixels[pos] & 1)
        if i % 8 == 7:
            out.append(acc)
            acc = 0
    return bytes(out)


def _oracle_extract(image, seed):
    """The per-bit probe loop that ``stego_extract`` first shipped with:
    sizes ascending, bounds checked against the whole pixel array."""
    pixels = image.pixels
    max_size = min(len(pixels) // 8, 3 + 255 * (1 + MAX_KEY_BYTES))
    for size in range(3, max_size + 1):
        window = len(pixels) - size - 1
        if window <= 0:
            break
        cand = seed_hash(seed) % window
        if cand + 8 * size > len(pixels):
            continue
        head = _oracle_read_bits(pixels, cand, 3)
        if head[:2] != MAGIC:
            continue
        keys_cnt = head[2]
        if keys_cnt < 1:
            continue
        total = 3
        keys = []
        ok = True
        for _k in range(keys_cnt):
            if cand + 8 * (total + 1) > len(pixels):
                ok = False
                break
            lenb = _oracle_read_bits(pixels, cand + 8 * total, 1)[0]
            if not 1 <= lenb <= MAX_KEY_BYTES:
                ok = False
                break
            if cand + 8 * (total + 1 + lenb) > len(pixels):
                ok = False
                break
            keys.append(_oracle_read_bits(pixels, cand + 8 * (total + 1), lenb))
            total += 1 + lenb
        if not ok or total != size:
            continue
        record = StegoRecord(keys=keys)
        report = ExtractReport(
            seed_hash=seed_hash(seed),
            keys_cnt=len(keys),
            offsets=[image.off_bits + cand, image.off_bits + cand + 8 * size],
        )
        return record, report
    raise MagicMismatch("no embedded record found for this seed")


def _plant(pixels, pos, blob):
    """Write ``blob`` MSB-first into the LSBs from ``pos``, cut at the end."""
    for i, byte in enumerate(blob):
        for j in range(8):
            if pos + 8 * i + j < len(pixels):
                k = pos + 8 * i + j
                pixels[k] = (pixels[k] & 0xFE) | (byte >> (7 - j)) & 1


SEEDS = st.text(st.characters(min_codepoint=32, max_codepoint=0x2FF), max_size=12)
# key lengths as written: 0 and 65+ are outside the accepted 1..64
KEY_LENGTHS = st.integers(1, 64) | st.integers(1, 64) | st.sampled_from([0, 65, 255])
KEYS = st.lists(
    KEY_LENGTHS.flatmap(lambda n: st.binary(min_size=n, max_size=n)), min_size=1, max_size=3
)


@st.composite
def _planted_blob(draw):
    """A record as embed writes it, or with a wrong ``keys_cnt``, or only
    a magic and noise; and the size whose candidate offset it goes to."""
    keys = draw(KEYS)
    cnt = len(keys) + draw(st.sampled_from([0, 0, 0, 1, -1, -len(keys)]))
    blob = MAGIC + bytes([cnt]) + b"".join(bytes([len(k) % 256]) + k for k in keys)
    if draw(st.integers(0, 3)) == 0:
        blob = MAGIC + draw(st.binary(max_size=2))
    return blob, max(3, len(blob) + draw(st.sampled_from([0, 0, 0, 0, -1, 1, -3, 5])))


@st.composite
def _probe_case(draw):
    """Random pixels of 0 to ~20k bytes with up to three blobs planted
    where the seed's probe looks: at the candidate of the blob's true size
    or of a wrong one, or anywhere, cut off where they run past the end."""
    blobs = draw(st.lists(_planted_blob(), max_size=3))
    least = 8 * blobs[0][1] if blobs else 0
    n = draw(st.integers(least, 20_000) | st.integers(0, 200))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pixels = bytearray(rng.randbytes(n))
    seed = draw(SEEDS)
    for blob, size in blobs:
        window = n - size - 1
        pos = seed_hash(seed) % window if window > 0 else 0
        if draw(st.integers(0, 7)) == 0:
            pos = draw(st.integers(0, max(0, n - 1)))
        _plant(pixels, pos, blob)
    return BmpImage(header=b"H" * 54, pixels=bytes(pixels), width=0, height=0), seed


def _outcome(extract, image, seed):
    try:
        record, report = extract(image, seed)
    except MagicMismatch as exc:
        return str(exc)
    return record.keys, report.seed_hash, report.keys_cnt, report.offsets


class TestExtractDifferential:
    """``stego_extract`` agrees with the per-bit probe loop: the same keys,
    hash, count and offsets, or the same ``MagicMismatch`` text."""

    @settings(max_examples=300, deadline=None)
    @given(case=_probe_case())
    @example(case=(make_bmp(64, 64), SEED))
    @example(case=(stego_embed(make_bmp(96, 96), SEED, StegoRecord(keys=[KEY])), SEED))
    @example(case=(stego_embed(make_bmp(96, 96), SEED, StegoRecord(keys=[b"a", KEY])), SEED))
    @example(case=(BmpImage(header=b"", pixels=b"", width=0, height=0), ""))
    @example(case=(BmpImage(header=b"", pixels=bytes(23), width=0, height=0), "x"))
    def test_matches_the_per_bit_probe(self, case):
        image, seed = case
        assert _outcome(stego_extract, image, seed) == _outcome(_oracle_extract, image, seed)

    def test_planted_records_agree_on_hits(self):
        # valid records at their seed's offset: the accepting branch, often
        rng = random.Random(5)
        hits = 0
        for trial in range(200):
            n = rng.randrange(100, 4000)
            pixels = bytearray(rng.randbytes(n))
            keys = [rng.randbytes(rng.randrange(1, 65)) for _ in range(rng.randrange(1, 4))]
            blob = StegoRecord(keys=keys).to_bytes()
            window = n - len(blob) - 1
            if window <= 0 or seed_hash(str(trial)) % window + 8 * len(blob) > n:
                continue
            _plant(pixels, seed_hash(str(trial)) % window, blob)
            image = BmpImage(header=b"", pixels=bytes(pixels), width=0, height=0)
            got = _outcome(stego_extract, image, str(trial))
            assert got == _outcome(_oracle_extract, image, str(trial))
            hits += got[0] == keys
        assert hits > 20


def _reference_embed(image, seed, record):
    """The per-bit writer that ``stego_embed`` shipped with, its capacity
    checks included."""
    blob = record.to_bytes()
    window = len(image.pixels) - len(blob) - 1
    if window <= 0:
        raise InsufficientCapacity(
            f"pixel array of {len(image.pixels)} bytes cannot hold a {len(blob)}-byte record"
        )
    start = seed_hash(seed) % window
    needed = start + 8 * len(blob)
    if needed > len(image.pixels):
        raise InsufficientCapacity(
            f"record needs {needed} pixel bytes, image has {len(image.pixels)}"
        )
    pixels = bytearray(image.pixels)
    pos = start
    for byte in blob:
        for shift in range(7, -1, -1):
            pixels[pos] = (pixels[pos] & 0xFE) | (byte >> shift) & 1
            pos += 1
    return BmpImage(header=image.header, pixels=bytes(pixels),
                    width=image.width, height=image.height)


def _embed_outcome(embed, image, seed, record):
    try:
        return embed(image, seed, record)
    except StegoError as exc:
        return type(exc), str(exc)


@st.composite
def _embed_case(draw):
    """A carrier of random pixels (0 to ~4k bytes) or a gradient, a seed,
    and a record of up to three keys, some of a length outside 1..64."""
    if draw(st.booleans()):
        image = make_bmp(draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        n = draw(st.integers(0, 4000) | st.integers(0, 100))
        image = BmpImage(header=b"H" * 54, pixels=rng.randbytes(n), width=0, height=0)
    keys = draw(st.lists(st.binary(min_size=1, max_size=64) | st.binary(max_size=70),
                         max_size=3))
    return image, draw(SEEDS), StegoRecord(keys=keys)


class TestEmbedDifferential:
    """``stego_embed`` writes the bit string that the extractor's bit plane
    reads, and its whole output image, or its error, is the per-bit writer's."""

    @settings(max_examples=300, deadline=None)
    @given(case=_embed_case())
    @example(case=(make_bmp(64, 64), SEED, StegoRecord(keys=[KEY])))
    @example(case=(make_bmp(96, 96), SEED, StegoRecord(keys=[b"a", KEY])))
    @example(case=(BmpImage(header=b"", pixels=b"", width=0, height=0), "", StegoRecord([b"k"])))
    def test_matches_the_per_bit_writer(self, case):
        image, seed, record = case
        assert (_embed_outcome(stego_embed, image, seed, record)
                == _embed_outcome(_reference_embed, image, seed, record))

    @given(data=st.binary(max_size=300))
    def test_bits_are_the_msb_first_digits(self, data):
        digits = bytes(0x30 | (byte >> shift) & 1 for byte in data for shift in range(7, -1, -1))
        assert stego._bits(data) == digits
        assert stego._MAGIC_BITS == b"1010010101011010"


def _mostly(draw, usual, other):
    return draw(usual) if draw(st.integers(0, 4)) else draw(other)


@st.composite
def _bmp_shaped(draw):
    """BM file and info headers with any width, height, planes, bit count,
    compression and bfOffBits, then any pixel bytes; sometimes cut short.
    Most fields take a well-formed value, so that many files reach the probe."""
    u32, i32, u16 = st.integers(0, 2**32 - 1), st.integers(-2**31, 2**31 - 1), st.integers(0, 0xFFFF)
    data = struct.pack(
        "<2sIHHIIiiHHI", b"BM", draw(u32), 0, 0,
        _mostly(draw, st.integers(14, 80), u32),  # bfOffBits
        _mostly(draw, st.just(40), u32),  # biSize
        _mostly(draw, st.integers(-4, 96), i32),  # width
        _mostly(draw, st.integers(-4, 96), i32),  # height
        _mostly(draw, st.just(1), u16),  # planes
        _mostly(draw, st.just(24), u16),  # bit count
        _mostly(draw, st.just(0), u32),  # compression
    ) + draw(st.binary(max_size=800))
    return data[: draw(st.integers(0, len(data)))] if draw(st.integers(0, 4)) == 0 else data


def _library_exit(data, seed):
    """The r-keys exit code the library calls for: only ``StegoError`` may
    escape parse_bmp and stego_extract."""
    try:
        stego_extract(parse_bmp(data), seed)
    except MagicMismatch:
        return cli.EXIT_MAGIC_MISMATCH
    except StegoError:
        return cli.EXIT_FAIL
    return cli.EXIT_OK


class TestBmpFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=400) | _bmp_shaped(), seed=SEEDS)
    def test_only_stego_errors_escape(self, data, seed):
        _library_exit(data, seed)

    @settings(max_examples=60, deadline=None)
    @given(data=st.binary(max_size=200) | _bmp_shaped())
    def test_r_keys_exits_with_a_declared_code(self, data):
        # 1 for a malformed file, 2 for a clean one: no traceback either way
        expected = _library_exit(data, SEED)
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "asset.bmp"
            path.write_bytes(data)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["r-keys", SEED, str(path)])
        assert code == expected
        assert "Traceback" not in out.getvalue() + err.getvalue()
