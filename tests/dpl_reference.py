"""Frozen reference for the streaming length decoder.

The logic of ``provlab.dpl.DecoderState`` as it stood before its
incremental completion bookkeeping (``_dirty``, ``_filled``) was
removed, without the comments.  ``tests/test_dpl.py`` runs it side by
side with the live decoder and compares every public field after each
frame, so a rewrite of the decoder must keep its behaviour frame for
frame.  Do not edit it to follow the live code: it is the reference.

The band table and the crc inverse are rebuilt here from the wire-format
constants, so the reference shares no decoder internals with the code
under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from provlab.dpl import (
    BAND_WIDTH,
    CRC_BASE,
    GUIDE,
    IDX_BASE,
    LEN_BASE,
    SOM,
    VAL_BASE,
    CodecError,
    Credentials,
    Phase,
    crc8,
    parse_payload_lax,
)

_CRC8 = [crc8(bytes([i])) for i in range(256)]
_CRC8_INV = bytes(_CRC8.index(v) for v in range(256))

_BANDS: dict[int, tuple[str, int | None]] = {
    **{v: ("som_noise", None) for v in range(18, 66)},
    **{v: ("guide", i) for i, v in enumerate(GUIDE)},
    **{v: ("som", i) for i, v in enumerate(SOM)},
    **{base + v: (band, v) for band, base in (
        ("idx", IDX_BASE), ("val", VAL_BASE), ("len", LEN_BASE), ("crc", CRC_BASE))
       for v in range(BAND_WIDTH)},
}
_GAP = ("gap", None)


@dataclass
class ReferenceDecoderState:
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
    _filled: int = 0
    _dirty: bool = False
    payload: bytes | None = None
    credentials: Credentials | None = None

    def feed(self, length: int) -> "ReferenceDecoderState":
        if self.phase in (Phase.COMPLETE, Phase.FAILED):
            return self
        if length == self._prev_len:
            return self
        self._prev_len = length
        band, value = _BANDS.get(length, _GAP)
        if band == "gap":
            return self
        if self.phase is Phase.HUNTING:
            self._feed_hunting(band, value)
        elif self.phase is Phase.SYNCED:
            self._feed_synced(band, value)
        elif self.phase is Phase.COLLECTING:
            self._feed_collecting(band, value)
        return self

    def _feed_hunting(self, band: str, value: int | None) -> None:
        if band == "guide":
            pos = self._guide_run % len(GUIDE)
            if value >= pos:
                self._guide_run += value - pos + 1
            else:
                self._guide_run += len(GUIDE) - pos + value + 1
            if self._guide_run >= 2 * len(GUIDE):
                self.phase = Phase.SYNCED
                self._som_pos = 0
        else:
            self._guide_run = 0

    def _feed_synced(self, band: str, value: int | None) -> None:
        if band == "som":
            if value >= self._som_pos:
                self._som_pos = value + 1
            if self._som_pos >= len(SOM):
                self.phase = Phase.COLLECTING
                self._head_known = True
        elif band in ("idx", "val", "len", "crc"):
            self.phase = Phase.COLLECTING
            self._head_known = band == "len"
            self._feed_collecting(band, value)

    def _feed_collecting(self, band: str, value: int | None) -> None:
        if band in ("guide", "som", "som_noise"):
            self._flush_round()
            self._head_known = True
            return
        if band == "len":
            self._len_votes[value] = self._len_votes.get(value, 0) + 1
            self._refresh_expected_len()
        elif band == "crc":
            self._crc_votes[value] = self._crc_votes.get(value, 0) + 1
            self._refresh_crc_seen()
        self._round_buf.append((band, value))
        if band == "crc":
            self._flush_round()
            self._head_known = True

    def _flush_round(self) -> None:
        buf = self._round_buf
        self._round_buf = []
        if not buf:
            return
        round_n: int | None = None
        for band, value in buf:
            if band == "len":
                round_n = value
                break
        n = round_n if round_n is not None else self.expected_len

        seg_vals: list[int] = []
        seg_start: int | None = 0 if self._head_known else None
        for band, value in buf:
            if band == "val":
                seg_vals.append(value)
            elif band == "idx":
                self._close_segment(seg_start, seg_vals, value - 1)
                seg_vals = []
                seg_start = value
            elif band == "crc":
                if n is not None:
                    self._close_segment(seg_start, seg_vals, n - 1)
                seg_vals = []
                seg_start = None
        if seg_vals and seg_start is not None and n is not None:
            self._close_segment(seg_start, seg_vals, n - 1)
        self._try_complete()

    def _close_segment(
        self, start: int | None, vals: list[int], end: int | None
    ) -> None:
        if start is None or end is None or not vals:
            return
        if end - start + 1 != len(vals):
            return
        if start < 0 or end >= BAND_WIDTH:
            return
        for offset, value in enumerate(vals):
            self._vote(start + offset, value)

    def _vote(self, slot: int, value: int) -> None:
        votes = self.slots.setdefault(slot, {})
        if not votes:
            if self.expected_len is None or slot < self.expected_len:
                self._filled += 1
            self._dirty = True
        old_major = self._majority(votes) if votes else None
        votes[value] = votes.get(value, 0) + 1
        if old_major is not None and self._majority(votes) != old_major:
            self._dirty = True

    @staticmethod
    def _majority(votes: dict[int, int]) -> int | None:
        if not votes:
            return None
        return min(votes, key=lambda v: (-votes[v], v))

    def _refresh_expected_len(self) -> None:
        new = self._majority(self._len_votes)
        if new != self.expected_len:
            self.expected_len = new
            self._filled = sum(1 for i in self.slots if i < new)
            self._dirty = True

    def _refresh_crc_seen(self) -> None:
        new = self._majority(self._crc_votes)
        if new != self.crc_seen:
            self.crc_seen = new
            self._dirty = True

    def _assemble(self) -> bytes | None:
        n = self.expected_len
        if not n:
            return None
        out = bytearray(n)
        for i in range(n):
            votes = self.slots.get(i)
            if not votes:
                return None
            out[i] = self._majority(votes)
        return bytes(out)

    def _try_complete(self) -> None:
        if not self._dirty or self.expected_len is None or self.crc_seen is None:
            return
        self._dirty = False
        if self._filled < self.expected_len or self.expected_len == 0:
            return
        payload = self._assemble()
        if payload is None or crc8(payload) != self.crc_seen:
            return
        try:
            creds = parse_payload_lax(payload)
        except CodecError:
            return
        self.payload = payload
        self.credentials = creds
        self.phase = Phase.COMPLETE

    def finalize(self) -> "ReferenceDecoderState":
        if self.phase is not Phase.COLLECTING:
            return self
        self._dirty = True
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
        n = self.expected_len
        out = bytearray(0 if i == hole else self._majority(self.slots[i]) for i in range(n))
        after = self.crc_seen
        for byte in reversed(out[hole + 1:]):
            after = _CRC8_INV[after] ^ byte
        out[hole] = _CRC8_INV[after] ^ crc8(out[:hole])
        try:
            creds = parse_payload_lax(bytes(out))
        except CodecError:
            return
        self.payload = bytes(out)
        self.credentials = creds
        self.phase = Phase.COMPLETE
