import copy
import random
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from provlab import dpl
from provlab.dpl import (
    BadTokenLength,
    BadVersion,
    CodecError,
    Credentials,
    DecoderBank,
    DecoderState,
    FieldTooLong,
    Phase,
    PayloadTooLong,
    TruncatedPayload,
    build_payload,
    crc8,
    decode_lengths,
    encode,
    encode_payload,
    frame_fields,
    parse_payload,
    parse_payload_lax,
)
from dpl_reference import ReferenceDecoderState

ALPHA = string.ascii_lowercase + string.digits


def token(rng=None, n=32):
    rng = rng or random.Random(1)
    return "".join(rng.choice(ALPHA) for _ in range(n))


def crc8_reference(data: bytes) -> int:
    """Bitwise long division, written independently of the implementation:
    append 8 zero bits and divide by x^8 + x^2 + x + 1."""
    bits = []
    for byte in data:
        bits.extend((byte >> i) & 1 for i in range(7, -1, -1))
    bits.extend([0] * 8)
    divisor = [1, 0, 0, 0, 0, 0, 1, 1, 1]  # 0x107
    for i in range(len(bits) - 8):
        if bits[i]:
            for j, d in enumerate(divisor):
                bits[i + j] ^= d
    out = 0
    for bit in bits[-8:]:
        out = (out << 1) | bit
    return out


class TestCrc8:
    def test_empty_is_init_value(self):
        assert crc8(b"") == 0x00

    def test_check_string(self):
        # classic CRC-8 check value
        assert crc8(b"123456789") == 0xF4
        assert crc8_reference(b"123456789") == 0xF4

    def test_matches_long_division_reference(self, rng):
        for _ in range(50):
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 40)))
            assert crc8(data) == crc8_reference(data)

    def test_single_bit_flips_always_detected(self):
        payload = build_payload(Credentials("ab", "cd", "x" * 32))
        assert len(payload) == 39
        base = crc8(payload)
        for byte_i in range(len(payload)):
            for bit in range(8):
                flipped = bytearray(payload)
                flipped[byte_i] ^= 1 << bit
                assert crc8(bytes(flipped)) != base


class TestPayloadFraming:
    def test_framing_arithmetic(self):
        # independent oracle: sum the field sizes by hand
        creds = Credentials("ab", "cd", "x" * 32)
        expected = 1 + 1 + len("ab") + 1 + len("cd") + 32
        payload = build_payload(creds)
        assert len(payload) == expected == 39

    def test_empty_passphrase_open_network(self):
        creds = Credentials("open-net", "", token())
        payload = build_payload(creds)
        assert payload[2 + len("open-net")] == 0
        assert parse_payload(payload) == creds

    def test_round_trip_identity(self, rng):
        for _ in range(100):
            creds = Credentials(
                ssid="".join(rng.choice(ALPHA) for _ in range(rng.randint(1, 32))),
                passphrase="".join(rng.choice(ALPHA) for _ in range(rng.randint(0, 64))),
                token=token(rng),
            )
            assert parse_payload(build_payload(creds)) == creds

    def test_short_token_rejected_on_build(self):
        with pytest.raises(BadTokenLength):
            build_payload(Credentials("net", "pass", "x" * 16))

    def test_overlong_fields_rejected(self):
        with pytest.raises(FieldTooLong):
            build_payload(Credentials("s" * 33, "p", token()))
        with pytest.raises(FieldTooLong):
            build_payload(Credentials("s", "p" * 65, token()))

    def test_truncation_detected(self):
        payload = build_payload(Credentials("abc", "defgh", token()))
        with pytest.raises(TruncatedPayload):
            parse_payload(payload[:3])

    def test_bad_version_detected(self):
        payload = bytearray(build_payload(Credentials("abc", "d", token())))
        payload[0] = 0x02
        with pytest.raises(BadVersion):
            parse_payload(bytes(payload))

    def test_max_payload_is_131_bytes(self):
        creds = Credentials("s" * 32, "p" * 64, token())
        assert len(build_payload(creds)) == 131

    def test_lax_parse_surfaces_short_tokens(self):
        raw = frame_fields("net", "pass", "tok16tok16tok16t")
        creds = dpl.parse_payload_lax(raw)
        assert creds.token == "tok16tok16tok16t"
        with pytest.raises(BadTokenLength):
            parse_payload(raw)


class TestEncode:
    def test_golden_round_prefix(self):
        seq = encode(Credentials("ab", "cd", "x" * 32), rounds=3)
        assert len(seq) == 3 * 116
        for rnd in (seq[:116], seq[116:232], seq[232:]):
            assert rnd[:32] == [1, 3, 6, 10] * 8
            assert rnd[32:36] == [18, 35, 60, 65]

    def test_datagram_count_formula(self):
        # oracle: evaluate the count expression independently
        creds = Credentials("ab", "cd", "x" * 32)
        n = len(build_payload(creds))
        expected = 4 * 8 + 4 + 1 + 2 * n + 1
        assert len(encode(creds, rounds=1)) == expected == 116
        assert encode(creds, rounds=3) == encode(creds, rounds=1) * 3

    def test_round_structure(self):
        payload = build_payload(Credentials("a", "b", token()))
        rnd = encode_payload(payload, rounds=1)
        assert len(rnd) == 4 * 8 + 4 + 1 + 2 * len(payload) + 1
        assert rnd[36] == dpl.LEN_BASE + len(payload)
        assert rnd[-1] == dpl.CRC_BASE + crc8(payload)
        pairs = rnd[37:-1]
        for i, byte in enumerate(payload):
            assert pairs[2 * i] == dpl.IDX_BASE + i
            assert pairs[2 * i + 1] == dpl.VAL_BASE + byte

    def test_rounds_bounds(self):
        creds = Credentials("a", "b", token())
        with pytest.raises(dpl.CodecError):
            encode(creds, rounds=0)
        with pytest.raises(dpl.CodecError):
            encode(creds, rounds=17)

    def test_payload_too_long(self):
        with pytest.raises(PayloadTooLong):
            encode_payload(bytes(256), rounds=1)

    def test_band_disjointness(self):
        # no integer length can be classified into two bands
        bands = {
            "guide": set(dpl.GUIDE),
            "som": set(dpl.SOM),
            "idx": set(range(dpl.IDX_BASE, dpl.IDX_BASE + 256)),
            "val": set(range(dpl.VAL_BASE, dpl.VAL_BASE + 256)),
            "len": set(range(dpl.LEN_BASE, dpl.LEN_BASE + 256)),
            "crc": set(range(dpl.CRC_BASE, dpl.CRC_BASE + 256)),
        }
        names = list(bands)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                assert not (bands[a] & bands[b])


class TestDecoder:
    def test_lossless_round_trip(self):
        creds = Credentials("home-net", "hunter2-long", token())
        state = decode_lengths(encode(creds, 1))
        assert state.phase is Phase.COMPLETE
        assert state.credentials == creds

    @settings(max_examples=40, deadline=None)
    @given(
        ssid=st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=32),
        psk=st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=0, max_size=64),
        rounds=st.integers(min_value=1, max_value=16),
        data=st.randoms(),
    )
    def test_round_trip_property(self, ssid, psk, rounds, data):
        tok = "".join(data.choice(ALPHA) for _ in range(32))
        creds = Credentials(ssid, psk, tok)
        state = decode_lengths(encode(creds, rounds))
        assert state.phase is Phase.COMPLETE
        assert state.credentials == creds

    def test_ignores_band_gap_lengths_while_hunting(self):
        state = DecoderState()
        for length in (70, 99, 360, 680, 990, 1300, 2048, 0, -1, 10**30):
            state.feed(length)
        assert state.phase is Phase.HUNTING
        assert state._guide_run == 0

    def test_sync_needs_two_full_guide_sequences(self):
        state = DecoderState()
        for length in [1, 3, 6, 10, 1, 3, 6]:
            state.feed(length)
            assert state.phase is Phase.HUNTING
        state.feed(10)
        assert state.phase is Phase.SYNCED

    def test_som_in_order_enters_collecting(self):
        state = DecoderState()
        for length in [1, 3, 6, 10] * 2 + [18, 35, 60, 65]:
            state.feed(length)
        assert state.phase is Phase.COLLECTING

    def test_duplicate_rounds_never_corrupt_accepted_credentials(self):
        creds = Credentials("net", "password", token())
        lengths = encode(creds, 1)
        state = DecoderState()
        for length in lengths * 3:
            state.feed(length)
        state.finalize()
        assert state.phase is Phase.COMPLETE
        assert state.credentials == creds

    def test_loss_with_seeded_drop_pattern(self):
        # mirror of the spec example: with the same seeded drop pattern
        # replayed offline, every index frame that survives in >= 1 round
        # explains why the decode completes
        creds = Credentials("home-net", "hunter2-long", token())
        lengths = encode(creds, 5)
        rng = random.Random(42)
        kept = [L for L in lengths if rng.random() >= 0.2]

        # offline oracle: replay the identical pattern and check survival
        rng2 = random.Random(42)
        survived_rounds = {}
        per_round = len(lengths) // 5
        for pos, L in enumerate(lengths):
            if rng2.random() >= 0.2:
                survived_rounds.setdefault(L, set()).add(pos // per_round)
        payload = build_payload(creds)
        for i in range(len(payload)):
            assert survived_rounds.get(dpl.IDX_BASE + i), f"index {i} lost everywhere"

        state = decode_lengths(kept)
        assert state.phase is Phase.COMPLETE
        assert state.credentials == creds

    def test_complete_is_terminal(self):
        creds = Credentials("n", "p", token())
        lengths = encode(creds, 1)
        state = DecoderState()
        for length in lengths:
            state.feed(length)
        assert state.phase is Phase.COMPLETE
        for length in (100, 400, 700, 1000):
            state.feed(length)
        assert state.phase is Phase.COMPLETE
        assert state.credentials == creds

    def test_failed_is_terminal(self):
        # the bank replaces a settled attempt, so only a direct feed shows this
        creds = Credentials("n", "p", token())
        state = decode_lengths(_bad_crc_round(creds))
        assert state.phase is Phase.FAILED
        before = copy.deepcopy(state)
        lengths = encode(creds, 2)
        for length in lengths:
            state.feed(length)
        assert state.feed_many(lengths, 3) == 3
        assert state == before

    def test_no_false_sync_on_random_streams(self):
        for trial in range(20):
            rng = random.Random(31337 + trial)
            state = decode_lengths(rng.randint(1, 1255) for _ in range(5000))
            assert state.phase is not Phase.COMPLETE

    def test_single_missing_byte_recovered_from_crc(self):
        creds = Credentials("ssid", "passphrase", token())
        payload = build_payload(creds)
        lengths = encode(creds, 1)
        # drop exactly the value frame for slot 5; its index anchor stays,
        # so every other slot is still certain and one hole remains
        pruned = []
        skip_next = False
        for L in lengths:
            if L == dpl.IDX_BASE + 5:
                skip_next = True
                pruned.append(L)
                continue
            if skip_next and dpl.VAL_BASE <= L < dpl.VAL_BASE + 256:
                skip_next = False
                continue
            pruned.append(L)
        state = decode_lengths(pruned)
        assert state.phase is Phase.COMPLETE
        assert state.payload == payload

    @settings(max_examples=200, deadline=None)
    @given(
        payload=st.binary(min_size=1, max_size=40) | st.builds(
            frame_fields, st.text(ALPHA, min_size=1, max_size=32),
            st.text(ALPHA, max_size=64), st.text(ALPHA, max_size=40)),
        crc=st.none() | st.integers(0, 255),
        data=st.data(),
    )
    def test_fill_one_matches_brute_force(self, payload, crc, data):
        hole = data.draw(st.integers(0, len(payload) - 1))
        crc = crc8(payload) if crc is None else crc
        state = DecoderState(expected_len=len(payload), crc_seen=crc)
        state.slots = {i: {b: 1} for i, b in enumerate(payload) if i != hole}
        state._fill_one(hole)
        # reference: try all 256 bytes; the crc equation has one solution
        out = bytearray(payload)
        fits = []
        for cand in range(256):
            out[hole] = cand
            if crc8(bytes(out)) == crc:
                fits.append(bytes(out))
        assert len(fits) == 1
        try:
            creds = parse_payload_lax(fits[0])
        except CodecError:
            assert (state.phase, state.payload, state.credentials) == (Phase.HUNTING, None, None)
        else:
            assert (state.phase, state.payload, state.credentials) == (
                Phase.COMPLETE, fits[0], creds)

    def test_a_separator_after_a_settled_round_settles_nothing(self, monkeypatch):
        creds = Credentials("home-net", "hunter2-long", token())
        first, second = encode(creds, 1), encode(creds, 1)
        del first[first.index(dpl.IDX_BASE + 3) + 1]  # slot 3's value frame
        head = len(dpl.GUIDE) * dpl.GUIDE_REPS + len(dpl.SOM)
        found, flush = [], DecoderState._flush_round

        def recording(state):
            found.append(len(state._round_buf))
            flush(state)

        monkeypatch.setattr(DecoderState, "_flush_round", recording)
        state = DecoderState()
        state.feed_many(first + second)
        # each round settles once, at its crc frame; the first lacks slot 3
        assert state.phase is Phase.COMPLETE and state.credentials == creds
        assert len(found) == 2 and 0 not in found

        found.clear()
        state = DecoderState()
        state.feed_many(first + second[:head])
        assert state.phase is Phase.COLLECTING
        assert len(found) == 1 and 0 not in found
        # finalize settles the open round, here empty, then fills slot 3 from the crc
        state.finalize()
        assert found == [found[0], 0]
        assert state.phase is Phase.COMPLETE and state.credentials == creds


class TestLossToleranceInvariant:
    """Spec invariant: across the allowed loss envelope (drop <= 0.3,
    dup <= 0.2, 5 rounds), 200 seeded trials succeed >= 95% of the time
    and a failure is never a wrong-credentials complete."""

    @staticmethod
    def _lossy(lengths, drop, dup, rng):
        out = []
        for L in lengths:
            if rng.random() < drop:
                continue
            out.append(L)
            if rng.random() < dup:
                out.append(L)
        return out

    def test_sweep(self):
        ok = wrong = 0
        trials = 200
        for t in range(trials):
            rng = random.Random(20_000 + t)
            drop = rng.uniform(0.0, 0.3)
            dup = rng.uniform(0.0, 0.2)
            creds = Credentials(
                "".join(rng.choice(ALPHA) for _ in range(rng.randint(4, 16))),
                "".join(rng.choice(ALPHA) for _ in range(rng.randint(8, 16))),
                token(rng),
            )
            lengths = self._lossy(encode(creds, 5), drop, dup, rng)
            state = decode_lengths(lengths)
            if state.phase is Phase.COMPLETE:
                if state.credentials == creds:
                    ok += 1
                else:
                    wrong += 1
        assert wrong == 0, "a lossy decode completed with wrong credentials"
        assert ok / trials >= 0.95


# short credentials keep a round near 100 frames, so a few rounds fit a run
CREDS = st.builds(
    Credentials,
    st.text(ALPHA, min_size=1, max_size=6),
    st.text(ALPHA, max_size=6),
    st.text(ALPHA, min_size=32, max_size=32),
)
_RANK = {Phase.HUNTING: 0, Phase.SYNCED: 1, Phase.COLLECTING: 2,
         Phase.COMPLETE: 3, Phase.FAILED: 3}


class DecoderMachine(RuleBasedStateMachine):
    """One sender's broadcast under loss and adjacent duplication, with the
    decode window closing (``finalize``) at any point."""

    @initialize(creds=CREDS, rounds=st.integers(1, 4))
    def start(self, creds, rounds):
        self.creds = creds
        self.stream = encode(creds, rounds)
        self.pos = 0
        self.state = DecoderState()
        self.settled = None

    @precondition(lambda self: self.pos < len(self.stream))
    @rule(n=st.integers(1, 300), drop=st.sampled_from([0.0, 0.05, 0.2, 0.4]),
          dup=st.sampled_from([0.0, 0.1, 0.3]), seed=st.integers(0, 2**32 - 1))
    def frames(self, n, drop, dup, seed):
        """The next ``n`` frames, each lost with probability ``drop`` or
        else arriving twice in a row with probability ``dup``."""
        rng = random.Random(seed)
        for length in self.stream[self.pos : self.pos + n]:
            if rng.random() < drop:
                continue
            for _ in range(2 if rng.random() < dup else 1):
                self._step(lambda: self.state.feed(length))
        self.pos += n

    @rule()
    def finalize(self):
        self._step(self.state.finalize)

    def _step(self, act):
        before = self.state.phase
        act()
        assert _RANK[self.state.phase] >= _RANK[before], (before, self.state.phase)
        if self.settled is not None:
            assert (self.state.phase, self.state.credentials) == self.settled
        elif _RANK[self.state.phase] == 3:
            self.settled = (self.state.phase, self.state.credentials)

    @invariant()
    def never_wrong(self):
        if self.state.phase is Phase.COMPLETE:
            assert self.state.credentials == self.creds


DecoderMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
TestDecoderMachine = DecoderMachine.TestCase


def _bad_crc_round(creds):
    lengths = encode(creds, 1)
    lengths[-1] = dpl.CRC_BASE + (lengths[-1] - dpl.CRC_BASE + 1) % 256
    return lengths


class TestRoundTrailingSegment:
    """The value run after a round's last index frame ends at slot n - 1,
    where n is the round's own len frame or else the majority of earlier ones."""

    creds = Credentials("net", "pass", token())
    payload = build_payload(creds)
    n = len(payload)

    def _rounds(self, count):
        # a crc frame that never matches, so no round completes the attempt
        return [_bad_crc_round(self.creds) for _ in range(count)]

    def _feed(self, rounds):
        state = DecoderState()
        state.feed_many([length for lengths in rounds for length in lengths])
        assert state.phase is Phase.COLLECTING
        return state

    def test_a_round_without_its_len_frame_ends_at_the_earlier_rounds_n(self):
        first, second = self._rounds(2)
        second.remove(dpl.LEN_BASE + self.n)
        state = self._feed([first, second])
        assert state.expected_len == self.n
        assert state.slots == {i: {b: 2} for i, b in enumerate(self.payload)}

    def test_a_round_whose_own_len_frame_disagrees_uses_its_own(self):
        *agree, own = self._rounds(3)
        # this round claims one byte more and carries one more value frame,
        # which fits only its own n
        extra = (self.payload[-1] + 1) % 256
        own[own.index(dpl.LEN_BASE + self.n)] = dpl.LEN_BASE + self.n + 1
        own.insert(len(own) - 1, dpl.VAL_BASE + extra)
        state = self._feed([*agree, own])
        assert state.expected_len == self.n  # the majority is still n
        assert state.slots == {**{i: {b: 3} for i, b in enumerate(self.payload)},
                               self.n: {extra: 1}}

    def test_with_no_known_n_the_trailing_run_does_not_vote(self):
        (only,) = self._rounds(1)
        only.remove(dpl.LEN_BASE + self.n)
        state = self._feed([only])
        assert state.expected_len is None
        assert state.slots == {i: {b: 1} for i, b in enumerate(self.payload[:-1])}


def _feed_one(bank, src, length):
    """One frame through ``DecoderBank.feed``, as a run of one; the attempt it went to."""
    taken, state = bank.feed(src, (length,))
    assert taken == 1
    return state


class TestDecoderBank:
    def test_interleaved_senders_each_decode_their_own(self):
        a = Credentials("net", "alpha-pass", token(random.Random(1)))
        b = Credentials("net", "bravo-pass", token(random.Random(2)))
        bank = DecoderBank()
        states = {}
        for la, lb in zip(encode(a, 1), encode(b, 1)):
            states["a"] = _feed_one(bank, "a", la)
            states["b"] = _feed_one(bank, "b", lb)
        assert states["a"].credentials == a
        assert states["b"].credentials == b

    def test_next_frame_after_failed_starts_a_new_attempt(self):
        creds = Credentials("net", "pass", token())
        bank = DecoderBank()
        for length in _bad_crc_round(creds):
            failed = _feed_one(bank, "a", length)
        assert bank.finalize() is None
        assert failed.phase is Phase.FAILED
        for length in encode(creds, 1):
            state = _feed_one(bank, "a", length)
        assert state is not failed
        assert state.credentials == creds

    def test_first_complete_in_start_order_wins(self):
        # each sender loses one value frame, so each completes only when
        # finalize solves the crc for it
        first = Credentials("net", "first", token(random.Random(3)))
        second = Credentials("net", "second", token(random.Random(4)))
        bank = DecoderBank()
        for src, creds in (("z", first), ("a", second)):
            lengths = encode(creds, 1)
            del lengths[lengths.index(dpl.IDX_BASE + 2) + 1]
            for length in lengths:
                _feed_one(bank, src, length)
        assert bank.finalize().credentials == first

    def test_a_new_sender_at_a_full_bank_drops_the_oldest_attempt(self):
        bank = DecoderBank()
        states = [_feed_one(bank, f"s{i}", 1) for i in range(dpl.MAX_SENDERS)]
        assert [_feed_one(bank, f"s{i}", 3) for i in range(dpl.MAX_SENDERS)] == states
        newcomer = _feed_one(bank, "late", 1)
        assert _feed_one(bank, "late", 3) is newcomer
        assert all(_feed_one(bank, f"s{i}", 6) is states[i] for i in range(1, dpl.MAX_SENDERS))
        assert _feed_one(bank, "s0", 6) is not states[0]

    @settings(max_examples=60, deadline=None)
    @given(
        sent=st.lists(st.tuples(CREDS, st.integers(1, 2)), min_size=1, max_size=3),
        lost=st.sets(st.integers(0, 1500), max_size=30),
        cuts=st.sets(st.integers(1, 1500), max_size=8),
    )
    def test_a_run_takes_what_frame_by_frame_feeding_takes(self, sent, lost, cuts):
        """One sender's lossy stream of several attempts, fed frame by frame and
        as runs cut anywhere: each take stops at the frame that completes its
        attempt, or takes the whole run, and leaves the attempt as the frame by
        frame bank left it after that frame."""
        lengths = [n for creds, rounds in sent for n in encode(creds, rounds)]
        lengths = [n for k, n in enumerate(lengths) if k not in lost]
        one, after = DecoderBank(), []
        for length in lengths:
            state = _feed_one(one, "a", length)
            after.append((state.phase, state.credentials))
        bank = DecoderBank()
        ends = sorted({0, len(lengths)} | {c for c in cuts if c < len(lengths)})
        for lo, hi in zip(ends, ends[1:]):
            while lo < hi:
                taken, state = bank.feed("a", lengths[lo:hi])
                assert 0 < taken <= hi - lo
                assert taken == hi - lo or state.phase is Phase.COMPLETE
                lo += taken
                assert (state.phase, state.credentials) == after[lo - 1]
        won = one.finalize()
        assert getattr(bank.finalize(), "credentials", None) == getattr(won, "credentials", None)

    @settings(max_examples=40, deadline=None)
    @given(
        genuine=st.lists(st.tuples(CREDS, st.integers(1, 3)), min_size=2, max_size=4),
        injected=st.lists(
            st.one_of(
                st.tuples(CREDS, st.integers(1, 2)),
                st.lists(st.integers(0, 1300), max_size=120),
            ),
            max_size=2,
        ),
        order=st.randoms(use_true_random=False),
    )
    def test_interleaving_never_completes_with_another_senders_credentials(
        self, genuine, injected, order
    ):
        streams, sent = [], {}
        for i, (creds, rounds) in enumerate(genuine):
            streams.append((f"phone-{i}", encode(creds, rounds)))
            sent[f"phone-{i}"] = creds
        for i, item in enumerate(injected):
            if isinstance(item, tuple):
                sent[f"inj-{i}"] = item[0]
                item = encode(*item)
            streams.append((f"inj-{i}", item))
        # a uniform order-keeping interleaving: shuffle the sender of each slot
        picks = [k for k, (_src, lengths) in enumerate(streams) for _ in lengths]
        order.shuffle(picks)
        cursors = [iter(lengths) for _src, lengths in streams]
        bank, attempts = DecoderBank(), {}
        for k in picks:
            src = streams[k][0]
            state = _feed_one(bank, src, next(cursors[k]))
            attempts.setdefault(id(state), (src, state))
        winner = bank.finalize()
        for src, state in attempts.values():
            if state.phase is Phase.COMPLETE:
                assert state.credentials == sent.get(src), src
        assert winner is None or winner.credentials in sent.values()
        for i, (creds, _rounds) in enumerate(genuine):
            assert any(src == f"phone-{i}" and state.credentials == creds
                       for src, state in attempts.values())


def _bank_decode(rows):
    """``decode_capture`` frame by frame with no eviction: each sender's
    port-30011 broadcasts go through a bank of its own, in capture order,
    and each attempt is listed once, at its first row."""
    banks, attempts = {}, {}
    for row in rows:
        if row[5] == "bcast" and row[3] == dpl.PROVISION_PORT:
            state = _feed_one(banks.setdefault(row[2], DecoderBank()), row[2], row[4])
            attempts.setdefault(id(state), (row[2], state))
    for _src, state in attempts.values():
        state.finalize()
    return list(attempts.values())


def _reference_decode(rows):
    """``decode_capture`` by the frozen reference decoder: each sender's
    port-30011 broadcasts in capture order, a new attempt on the frame
    after one completes, every attempt finalized and listed at its first row."""
    current, attempts = {}, []
    for row in rows:
        if row[5] == "bcast" and row[3] == dpl.PROVISION_PORT:
            state = current.get(row[2])
            if state is None or state.phase is Phase.COMPLETE:
                state = current[row[2]] = ReferenceDecoderState()
                attempts.append((row[2], state))
            state.feed(row[4])
    for _src, state in attempts:
        state.finalize()
    return attempts


def _attempts(attempts):
    return [(src, _public(state)) for src, state in attempts]


def _capture_rows(senders, drop, dup, noise, seed):
    """Port-30011 rows of ``senders`` interleaved phones under loss,
    duplication and noise, with rows that must not be decoded between them."""
    rng = random.Random(seed)
    streams = []
    for k in range(senders):
        # a sender's later sends follow an attempt that completed, or one
        # that a bad crc fails at finalize
        lengths = []
        for _ in range(rng.randint(1, 3)):
            creds = Credentials(token(rng, rng.randint(1, 6)), token(rng, rng.randint(0, 6)),
                                token(rng))
            lengths += (_bad_crc_round(creds) if rng.random() < 0.25
                        else encode(creds, rng.randint(1, 2)))
        streams.append((f"phone-{k}", lengths))
    picks = [k for k, (_src, lengths) in enumerate(streams) for _ in lengths]
    rng.shuffle(picks)
    cursors = [iter(lengths) for _src, lengths in streams]
    rows = []
    for t, k in enumerate(picks):
        src, length = streams[k][0], next(cursors[k])
        if rng.random() < noise:
            rows.append((t, "net", src, dpl.PROVISION_PORT, rng.randint(0, 1300), "bcast", None))
        if rng.random() < drop:
            continue
        rows += [(t, "net", src, dpl.PROVISION_PORT, length, "bcast", None)] * (
            2 if rng.random() < dup else 1)
        # neither a receiver's row nor another port's broadcast is decoded
        rows.append((t, "net", src, dpl.PROVISION_PORT, length + 1, "deliver", "dev-0"))
        rows.append((t, "net", src, dpl.PROVISION_PORT + 1, length, "bcast", None))
    return rows


class TestDecodeCapture:
    """``decode_capture`` against the per-sender banks above, also with
    more interleaved senders than one bank keeps."""

    @settings(max_examples=60, deadline=None)
    @given(
        senders=st.integers(1, 20),
        drop=st.sampled_from([0.0, 0.1, 0.3]),
        dup=st.sampled_from([0.0, 0.1]),
        noise=st.sampled_from([0.0, 0.05]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_frame_by_frame_bank(self, senders, drop, dup, noise, seed):
        rows = _capture_rows(senders, drop, dup, noise, seed)
        assert _attempts(dpl.decode_capture(rows)) == _attempts(_bank_decode(rows))

    @settings(max_examples=60, deadline=None)
    @given(
        senders=st.integers(1, 20),
        drop=st.sampled_from([0.0, 0.1, 0.3]),
        dup=st.sampled_from([0.0, 0.1]),
        noise=st.sampled_from([0.0, 0.05]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_frozen_decoder(self, senders, drop, dup, noise, seed):
        # the bank above runs the live decoder; this oracle shares none of it
        rows = _capture_rows(senders, drop, dup, noise, seed)
        assert _attempts(dpl.decode_capture(rows)) == _attempts(_reference_decode(rows))

    @pytest.mark.parametrize("senders", [dpl.MAX_SENDERS, dpl.MAX_SENDERS + 1])
    def test_round_robin_at_and_past_a_full_bank(self, senders):
        sent = [encode(Credentials("net", f"pass-{k}", token(random.Random(k))), 1)
                for k in range(senders)]
        rows = [(t, "net", f"s{k}", dpl.PROVISION_PORT, lengths[t], "bcast", None)
                for t in range(max(map(len, sent))) for k, lengths in enumerate(sent)
                if t < len(lengths)]
        attempts = dpl.decode_capture(rows)
        assert _attempts(attempts) == _attempts(_bank_decode(rows))
        # an offline decoder keeps every sender's attempt, past a full bank too
        assert [(src, state.phase) for src, state in attempts] == [
            (f"s{k}", Phase.COMPLETE) for k in range(senders)]


class TestParseFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=300))
    @example(bytes([1, 3]) + b"abc" + bytes([2]) + b"\xff\xfe" + b"t" * 32)
    def test_only_codec_errors_escape(self, data):
        try:
            creds = parse_payload_lax(data)
        except CodecError:
            return
        assert isinstance(creds, Credentials)


def _public(state):
    return (state.phase, state.expected_len, state.crc_seen, state.slots,
            state.payload, state.credentials)


# lengths below or far above every band, which must read as gaps
_OUT_OF_BANDS = (-1, -1255, 1256, 10**600)

_STREAM = dict(
    creds=st.builds(
        Credentials,
        st.text(ALPHA, min_size=1, max_size=32),
        st.text(ALPHA, max_size=64),
        st.text(ALPHA, min_size=32, max_size=32),
    ),
    rounds=st.integers(1, 16),
    drop=st.sampled_from([0.0, 0.1, 0.3, 0.5]),
    dup=st.sampled_from([0.0, 0.1, 0.3]),
    noise=st.sampled_from([0.0, 0.02, 0.1]),
    seed=st.integers(0, 2**32 - 1),
)


def _lossy_stream(creds, rounds, drop, dup, noise, seed):
    rng = random.Random(seed)
    stream = []
    for length in encode(creds, rounds):
        if rng.random() < noise:
            # any length up to the top of the crc band: gaps, separators
            # and stray votes in every data band; now and then one outside
            stream.append(rng.choice(_OUT_OF_BANDS) if rng.random() < 0.1
                          else rng.randint(0, 1300))
        if rng.random() < drop:
            continue
        stream.extend([length] * (2 if rng.random() < dup else 1))
    return stream


class TestDecoderDifferential:
    """The decoder against the frozen reference in ``dpl_reference``: the
    same public state after every frame and after ``finalize``."""

    @settings(max_examples=150, deadline=None)
    @given(**_STREAM, cut=st.floats(0.0, 1.0))
    def test_matches_reference_frame_by_frame(self, creds, rounds, drop, dup, noise, seed, cut):
        stream = _lossy_stream(creds, rounds, drop, dup, noise, seed)
        live, ref = DecoderState(), ReferenceDecoderState()
        for length in stream[: round(len(stream) * cut)]:
            live.feed(length)
            ref.feed(length)
            assert _public(live) == _public(ref)
        live.finalize()
        ref.finalize()
        assert _public(live) == _public(ref)

    @settings(max_examples=150, deadline=None)
    @given(**_STREAM, cuts=st.lists(st.floats(0.0, 1.0), max_size=4))
    def test_feed_many_matches_reference(self, creds, rounds, drop, dup, noise, seed, cuts):
        # the stream in pieces: each call resumes at the index the last returned
        stream = _lossy_stream(creds, rounds, drop, dup, noise, seed)
        live, ref, i = DecoderState(), ReferenceDecoderState(), 0
        for end in sorted(round(len(stream) * cut) for cut in cuts) + [len(stream)]:
            start = i
            i = live.feed_many(stream[:end], i)
            for length in stream[start:i]:
                assert ref.phase is not Phase.COMPLETE  # it stops at the completing frame
                ref.feed(length)
            assert i == max(start, end) or ref.phase is Phase.COMPLETE
            assert _public(live) == _public(ref)
        live.finalize()
        ref.finalize()
        assert _public(live) == _public(ref)

    @pytest.mark.parametrize("som_kept", [(), (0,), (1, 2)], ids=["no-som", "som-0", "som-1-2"])
    @pytest.mark.parametrize("entry", ["len", "idx", "val", "crc"])
    def test_collecting_entered_from_synced_matches_reference(self, entry, som_kept):
        # the first round keeps of its start-of-message only the frames in
        # som_kept, and loses every data frame before its first ``entry`` frame
        creds = Credentials("net", "pass", token(random.Random(3)))
        lengths, n = encode(creds, 3), len(build_payload(creds))
        guides = len(dpl.GUIDE) * dpl.GUIDE_REPS
        lost = {"len": 0, "idx": 1, "val": 2, "crc": 1 + 2 * n}[entry]
        stream = (lengths[:guides] + [dpl.SOM[k] for k in som_kept]
                  + lengths[guides + len(dpl.SOM) + lost:])
        at = guides + len(som_kept)  # the entry frame
        base = {"len": dpl.LEN_BASE, "idx": dpl.IDX_BASE, "val": dpl.VAL_BASE,
                "crc": dpl.CRC_BASE}[entry]
        assert base <= stream[at] < base + dpl.BAND_WIDTH
        live, many, ref = DecoderState(), DecoderState(), ReferenceDecoderState()
        for k, length in enumerate(stream):
            before = live.phase
            live.feed(length)
            many.feed_many(stream[:k + 1], k)
            ref.feed(length)
            assert _public(live) == _public(many) == _public(ref)
            assert live._head_known == many._head_known == ref._head_known
            if k == at:
                assert (before, live.phase) == (Phase.SYNCED, Phase.COLLECTING)
        whole = DecoderState()
        whole.feed_many(stream)
        for state in (live, many, whole, ref):
            state.finalize()
        assert _public(live) == _public(many) == _public(whole) == _public(ref)
        assert live.credentials == creds

    @pytest.mark.parametrize("length", _OUT_OF_BANDS)
    def test_out_of_band_lengths_are_gaps(self, length):
        # mid-payload, so that a negative length read from the end of the
        # band table would settle the round early
        creds = Credentials("net", "pass", token())
        lengths = encode(creds, 1)
        lengths.insert(lengths.index(dpl.IDX_BASE + 1) + 1, length)
        live, ref = DecoderState(), ReferenceDecoderState()
        assert live.feed_many(lengths) == len(lengths)
        for v in lengths:
            ref.feed(v)
        assert _public(live) == _public(ref)
        assert live.credentials == creds
