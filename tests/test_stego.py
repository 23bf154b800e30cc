import hashlib
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provlab.stego import (
    BadBmp,
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
