"""Seeded input generators with known ground truth.

Everything here is written from the wire contracts in
``docs/wire-format.md`` and ``docs/stego.md``, not from provlab's own
encoders, so the benchmark's expected outputs do not depend on the code
under test.  The same seed always gives byte-identical files.
"""

from __future__ import annotations

import random
import string
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

# -- packet-length captures ---------------------------------------------------

DROPS = (0.1, 0.3, 0.5)
DUPS = (0.0, 0.1)
ROUNDS = (1, 5, 16)
GRID = [(drop, dup, rounds) for drop in DROPS for dup in DUPS for rounds in ROUNDS]

PROVISION_PORT = 30011
DEVICE_PORT = 6668
EPOCH = 1_613_000_000
ALNUM = string.ascii_lowercase + string.digits

GUIDE, SOM, GUIDE_REPS = (1, 3, 6, 10), (18, 35, 60, 65), 8
IDX_BASE, VAL_BASE, LEN_BASE, CRC_BASE = 100, 400, 700, 1000

# json.dumps(record, sort_keys=True) for netsim's capture schema; the
# self-tests check that these templates render exactly the same bytes
BCAST_LINE = '{"kind": "%s", "len": %d, "port": %d, "src": "%s", "ssid": "%s", "t": %d}\n'
DST_LINE = ('{"dst": "%s", "kind": "%s", "len": %d, "port": %d, "src": "%s", '
            '"ssid": "%s", "t": %d}\n')


def cell_name(drop: float, dup: float, rounds: int) -> str:
    return f"drop{drop:g}-dup{dup:g}-r{rounds}"


CELLS = [cell_name(*cell) for cell in GRID]


def crc8(data: bytes) -> int:
    crc = 0
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = ((crc << 1) ^ 0x07) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
    return crc


def credential_lengths(ssid: str, psk: str, token: str, rounds: int) -> list[int]:
    """Datagram lengths of one credentials broadcast."""
    ssid_b, psk_b = ssid.encode(), psk.encode()
    payload = bytes([1, len(ssid_b)]) + ssid_b + bytes([len(psk_b)]) + psk_b + token.encode()
    one = list(GUIDE) * GUIDE_REPS + list(SOM) + [LEN_BASE + len(payload)]
    for i, b in enumerate(payload):
        one += [IDX_BASE + i, VAL_BASE + b]
    one.append(CRC_BASE + crc8(payload))
    return one * rounds


@dataclass(frozen=True)
class Creds:
    ssid: str
    passphrase: str
    token: str


@dataclass
class CaptureFile:
    path: Path
    cell: str
    lines: int
    truth: dict[str, Creds]  # genuine sender id -> what it broadcast


def _word(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(ALNUM) for _ in range(n))


def write_capture(path: Path, seed: int, cell: tuple, index: int,
                  senders: int = 4, receivers: int = 1) -> CaptureFile:
    """One provisioning session as netsim would log it, seen by a lossy sniffer.

    ``senders`` phones broadcast credentials at once, their frames
    interleaved at random, beside a noise sender on the same port.  Each
    broadcast fans out to ``receivers`` devices (``deliver``/``drop``
    lines under the cell's loss); the sniffer misses ``bcast`` lines with
    the cell's drop rate and logs some twice with its dup rate.  Each
    device bind adds its two ``stream`` lines.
    """
    drop, dup, rounds = cell
    name = cell_name(*cell)
    rng = random.Random(f"capture:{seed}:{name}:{index}")
    ssid = "net-" + _word(rng, 6)
    truth, queues = {}, []
    for k in range(senders):
        src = f"phone-{index}-{k}"
        creds = Creds(ssid, _word(rng, 14), _word(rng, 32))
        truth[src] = creds
        queues.append([src, credential_lengths(creds.ssid, creds.passphrase,
                                               creds.token, rounds), 0])
    noise_src = f"noise-{index}"
    noise_n = len(queues[0][1]) // 4
    queues.append([noise_src, [rng.randint(1, 1500) for _ in range(noise_n)], 0])
    devices = [f"dev-{index}-{r}" for r in range(receivers)]
    t = EPOCH + index
    out: list[str] = []
    remaining = sum(len(q[1]) for q in queues)
    while remaining:
        # uniform random interleaving: pick the next frame's sender in
        # proportion to what each sender still has to send
        pick = rng.randrange(remaining)
        for q in queues:
            left = len(q[1]) - q[2]
            if pick < left:
                break
            pick -= left
        src, lengths, pos = q
        length = lengths[pos]
        q[2] += 1
        remaining -= 1
        if rng.random() >= drop:
            out.append(BCAST_LINE % ("bcast", length, PROVISION_PORT, src, ssid, t))
            if rng.random() < dup:
                out.append(BCAST_LINE % ("bcast", length, PROVISION_PORT, src, ssid, t))
        for dst in devices:
            if rng.random() < drop:
                out.append(DST_LINE % (dst, "drop", length, PROVISION_PORT, src, ssid, t))
                continue
            copies = 2 if rng.random() < dup else 1
            out.extend([DST_LINE % (dst, "deliver", length, PROVISION_PORT, src, ssid, t)]
                       * copies)
    for dst in devices:
        out.append(DST_LINE % ("cloud", "stream", 180 + rng.randrange(40),
                               DEVICE_PORT, dst, ssid, t + 2))
        out.append(DST_LINE % (dst, "stream", 64, DEVICE_PORT, "cloud", ssid, t + 2))
    path.write_text("".join(out), encoding="utf-8")
    return CaptureFile(path, name, len(out), truth)


def write_capture_set(directory: Path, seed: int, files_per_cell: int) -> list[CaptureFile]:
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for c, cell in enumerate(GRID):
        for f in range(files_per_cell):
            index = c * files_per_cell + f
            files.append(write_capture(directory / f"capture-{index:03d}.jsonl",
                                       seed, cell, index))
    return files


# -- BMP asset bundles -----------------------------------------------------------

# decoy assets, then the one that hides the key: the same sizes for every
# seed, so that a key hunt costs the same whichever seed places the key
DECOY_SIDES = (64, 96, 128, 192, 256, 384, 512)
KEY_SIDE = 96
_HEADER = struct.Struct("<2sIHHI")
_INFO = struct.Struct("<IiiHHIIiiII")


def bmp_bytes(width: int, height: int, rng: random.Random) -> bytearray:
    """A 24-bit uncompressed BMP filled with seeded noise."""
    row = (width * 3 + 3) & ~3
    pixel_len = row * height
    off_bits = _HEADER.size + _INFO.size
    out = bytearray(_HEADER.pack(b"BM", off_bits + pixel_len, 0, 0, off_bits))
    out += _INFO.pack(40, width, height, 1, 24, 0, pixel_len, 2835, 2835, 0, 0)
    out += rng.randbytes(pixel_len)
    return out


def embed_key(bmp: bytearray, seed_str: str, key: bytes) -> bool:
    """LSB-embed a one-key record per docs/stego.md; False if it cannot fit."""
    record = b"\xa5\x5a\x01" + bytes([len(key)]) + key
    off_bits = _HEADER.size + _INFO.size
    pixel_len = len(bmp) - off_bits
    start = (zlib.crc32(seed_str.encode()) & 0xFFFFFFFF) % (pixel_len - len(record) - 1)
    if start + 8 * len(record) > pixel_len:
        return False
    pos = off_bits + start
    for byte in record:
        for shift in range(7, -1, -1):
            bmp[pos] = (bmp[pos] & 0xFE) | ((byte >> shift) & 1)
            pos += 1
    return True


@dataclass
class Bundle:
    paths: list[Path]
    hit: int  # index of the one asset that carries the key
    seed_str: str
    key: str


def write_bundle(directory: Path, seed: int, key: str) -> Bundle:
    """App assets of 64 to 512 pixels square; exactly one hides ``key``."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"bundle:{seed}")
    sides = list(DECOY_SIDES)
    hit = rng.randrange(len(sides) + 1)
    sides.insert(hit, KEY_SIDE)
    images = [bmp_bytes(side, side, rng) for side in sides]
    while True:
        seed_str = _word(rng, 20)
        if embed_key(images[hit], seed_str, key.encode()):
            break
    paths = []
    for i, image in enumerate(images):
        path = directory / f"asset-{i}.bmp"
        path.write_bytes(bytes(image))
        paths.append(path)
    return Bundle(paths, hit, seed_str, key)
