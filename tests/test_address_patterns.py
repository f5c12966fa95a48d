"""Unit and property tests for repro.workloads.address."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.address import MixPattern, ReusePattern, StreamPattern


class TestStreamPattern:
    def test_sequential_within_warp(self):
        pat = StreamPattern(region_lines=100)
        rng = random.Random(0)
        first = pat.lines(0, rng, 4)
        second = pat.lines(0, rng, 4)
        assert first == [0, 1, 2, 3]
        assert second == [4, 5, 6, 7]

    def test_wraps_at_region_boundary(self):
        pat = StreamPattern(region_lines=4)
        rng = random.Random(0)
        pat.lines(0, rng, 4)
        assert pat.lines(0, rng, 2) == [0, 1]

    def test_warps_use_disjoint_regions(self):
        pat = StreamPattern(region_lines=64)
        rng = random.Random(0)
        a = set(pat.lines(0, rng, 8))
        b = set(pat.lines(1, rng, 8))
        assert not a & b

    def test_recycled_slots_alias(self):
        pat = StreamPattern(region_lines=64, recycle_slots=4)
        rng = random.Random(0)
        a = pat.lines(1, rng, 4)
        b = pat.lines(5, rng, 4)  # 5 % 4 == 1 -> same region
        assert a == b

    def test_row_stagger_decorrelates_bases(self):
        pat = StreamPattern(region_lines=1 << 10)
        rng = random.Random(0)
        bases = [pat.lines(w, rng, 1)[0] for w in range(4)]
        rows = [b // 32 % 4 for b in bases]
        assert len(set(rows)) > 1, "warp streams must not share a channel phase"

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            StreamPattern(region_lines=0)
        with pytest.raises(ValueError):
            StreamPattern(recycle_slots=0)


class TestReusePattern:
    def test_all_lines_within_working_set(self):
        pat = ReusePattern(working_set_lines=16)
        rng = random.Random(1)
        for _ in range(50):
            assert all(0 <= line < 16 for line in pat.lines(0, rng, 3))

    def test_request_lines_are_consecutive_mod_ws(self):
        pat = ReusePattern(working_set_lines=10)
        rng = random.Random(2)
        lines = pat.lines(0, rng, 4)
        assert [(lines[0] + i) % 10 for i in range(4)] == lines

    def test_rejects_empty_working_set(self):
        with pytest.raises(ValueError):
            ReusePattern(0)


class TestMixPattern:
    def test_pure_reuse_when_frac_one(self):
        pat = MixPattern(8, 1.0)
        rng = random.Random(3)
        for _ in range(20):
            assert all(line < 8 for line in pat.lines(0, rng, 2))

    def test_pure_stream_when_frac_zero(self):
        pat = MixPattern(8, 0.0)
        rng = random.Random(3)
        lines = pat.lines(0, rng, 2)
        assert all(line >= 8 for line in lines), "streams must avoid the working set"

    def test_mix_produces_both_kinds(self):
        pat = MixPattern(8, 0.5)
        rng = random.Random(4)
        kinds = set()
        for _ in range(200):
            lines = pat.lines(0, rng, 1)
            kinds.add("reuse" if lines[0] < 8 else "stream")
        assert kinds == {"reuse", "stream"}

    def test_rejects_bad_frac(self):
        with pytest.raises(ValueError):
            MixPattern(8, 1.5)


@settings(max_examples=50, deadline=None)
@given(region=st.integers(1, 512), count=st.integers(1, 32),
       warp=st.integers(0, 64), seed=st.integers(0, 1000))
def test_stream_lines_stay_in_warp_region(region, count, warp, seed):
    pat = StreamPattern(region_lines=region)
    rng = random.Random(seed)
    base = warp * (region + StreamPattern.ROW_STAGGER)
    for line in pat.lines(warp, rng, count):
        assert base <= line < base + region


@settings(max_examples=50, deadline=None)
@given(ws=st.integers(1, 256), count=st.integers(1, 32), seed=st.integers(0, 1000))
def test_reuse_lines_bounded_by_working_set(ws, count, seed):
    pat = ReusePattern(ws)
    rng = random.Random(seed)
    assert all(0 <= line < ws for line in pat.lines(0, rng, count))


@settings(max_examples=30, deadline=None)
@given(frac=st.floats(0.0, 1.0), seed=st.integers(0, 100))
def test_mix_reuse_fraction_roughly_respected(frac, seed):
    pat = MixPattern(16, frac)
    rng = random.Random(seed)
    reuse = sum(1 for _ in range(400) if pat.lines(0, rng, 1)[0] < 16)
    assert abs(reuse / 400 - frac) < 0.15


# ----------------------------------------------------------------------
# TestExtendLines: lines(), defined through first_key and footprint.
# The references below are the patterns' definitions in their
# plainest (always-modulo) form, drawing from a twin RNG.
def stream_reference(region, recycle, cursors, warp, count, origin=0):
    slot = warp if recycle is None else warp % recycle
    cursor = cursors.get(warp, 0)
    base = origin + slot * (region + StreamPattern.ROW_STAGGER)
    cursors[warp] = (cursor + count) % region
    return [base + (cursor + i) % region for i in range(count)]


def reuse_reference(ws, rng, count):
    start = rng.randrange(ws)
    return [(start + i) % ws for i in range(count)]


def assert_emits(pattern, reference, warps_and_counts, seed):
    """``lines`` produces ``reference``'s lines and leaves the RNG
    where the reference's twin is."""
    via_lines = pattern()
    rng_lines, rng_ref = random.Random(seed), random.Random(seed)
    for warp, count in warps_and_counts:
        expected = reference(warp, rng_ref, count)
        assert via_lines.lines(warp, rng_lines, count) == expected
        assert rng_lines.getstate() == rng_ref.getstate()


class TestExtendLines:
    @pytest.mark.parametrize("recycle", [None, 3])
    def test_stream_cursor_wraps_mid_instruction(self, recycle):
        cursors = {}
        # region 7, count 3: the third access of warp 2 covers lines
        # 6, 0, 1 of its region; count 9 laps the region within one
        # instruction; count 7 ends exactly on the boundary.
        assert_emits(
            lambda: StreamPattern(7, recycle_slots=recycle),
            lambda warp, rng, count: stream_reference(7, recycle, cursors,
                                                      warp, count),
            [(2, 3), (2, 3), (2, 3), (5, 1), (2, 9), (5, 7), (5, 1), (2, 1)],
            seed=1)

    def test_stream_unwrapped_access_is_a_plain_run(self):
        assert StreamPattern(100).lines(0, random.Random(0), 4) == [0, 1, 2, 3]
        assert StreamPattern(100).lines(1, random.Random(0), 2,
                                        origin=50) == [50 + 133, 50 + 134]

    @pytest.mark.parametrize("ws", [1, 2, 5, 24, 32, 33, 1 << 16])
    def test_reuse_start_is_randrange(self, ws):
        """Pins the inlined getrandbits rejection loop to
        ``Random.randrange`` on this interpreter, draw for draw."""
        assert_emits(lambda: ReusePattern(ws),
                     lambda warp, rng, count: reuse_reference(ws, rng, count),
                     [(0, 1 + i % 4) for i in range(300)], seed=ws)

    def test_reuse_wraps_the_working_set(self):
        assert_emits(lambda: ReusePattern(5),
                     lambda warp, rng, count: reuse_reference(5, rng, count),
                     [(0, count) for count in (1, 2, 5, 6, 11) * 20], seed=3)

    @pytest.mark.parametrize("recycle", [None, 2])
    def test_mix_composes_both_with_one_bernoulli_draw(self, recycle):
        ws, region, frac = 6, 4, 0.5
        cursors = {}

        def reference(warp, rng, count):
            if rng.random() < frac:
                return reuse_reference(ws, rng, count)
            return stream_reference(region, recycle, cursors, warp, count,
                                    origin=ws + 1024)

        assert_emits(lambda: MixPattern(ws, frac, region_lines=region,
                                        recycle_slots=recycle),
                     reference,
                     [(i % 3, 1 + i % 7) for i in range(200)], seed=9)


# ----------------------------------------------------------------------
# first_key + footprint: the trace compiler stores the key, replay
# expands it.  Each reference returns an access as ``(off, s, M)``, its
# lines being ``off + (s + i) % M``, drawing from a twin RNG.
def stream_access(region, recycle, cursors, warp, count, origin=0):
    slot = warp if recycle is None else warp % recycle
    cursor = cursors.get(warp, 0)
    cursors[warp] = (cursor + count) % region
    return origin + slot * (region + StreamPattern.ROW_STAGGER), cursor, region


def reuse_access(ws, rng, count):
    return 0, rng.randrange(ws), ws


def stream_case(region, recycle):
    cursors = {}
    return (lambda: StreamPattern(region, recycle_slots=recycle),
            lambda warp, rng, count: stream_access(region, recycle, cursors,
                                                   warp, count),
            lambda pattern: pattern._cursors)


def reuse_case(ws):
    return (lambda: ReusePattern(ws),
            lambda warp, rng, count: reuse_access(ws, rng, count),
            lambda pattern: None)


def mix_case(ws, region, recycle, frac=0.5):
    cursors = {}

    def access(warp, rng, count):
        if rng.random() < frac:
            return reuse_access(ws, rng, count)
        return stream_access(region, recycle, cursors, warp, count,
                             origin=ws + 1024)

    return (lambda: MixPattern(ws, frac, region_lines=region,
                               recycle_slots=recycle),
            access, lambda pattern: pattern._stream._cursors)


#: (case, counts): 1, the region's size, one above it, above the
#: working set, and small counts that leave the cursor mid-region.
KEYED_CASES = [
    pytest.param(lambda: stream_case(7, None), (1, 7, 8, 16, 2, 3),
                 id="stream"),
    pytest.param(lambda: stream_case(7, 3), (1, 7, 8, 16, 2, 3),
                 id="stream-recycled"),
    pytest.param(lambda: reuse_case(5), (1, 5, 6, 11, 2, 3), id="reuse"),
    pytest.param(lambda: mix_case(6, 4, None), (1, 4, 5, 7, 2, 3), id="mix"),
    pytest.param(lambda: mix_case(6, 4, 2), (1, 4, 5, 7, 2, 3),
                 id="mix-recycled"),
]


class TestFirstKeyAndFootprint:
    @pytest.mark.parametrize("case,counts", KEYED_CASES)
    def test_key_expands_to_the_lines(self, case, counts):
        make, access, cursors = case()
        keyed, via_lines = make(), make()
        rng_key, rng_lines, rng_ref = (random.Random(7) for _ in range(3))
        base = 1 << 40
        wrapped_seen = set()
        for step in range(240):
            warp, count = step % 5, counts[step // 5 % len(counts)]
            off, s, m = access(warp, rng_ref, count)
            expected = [off + (s + i) % m for i in range(count)]
            key = keyed.first_key(warp, rng_key, count)
            assert via_lines.lines(warp, rng_lines, count) == expected
            # first_key draws and steps exactly as lines() does.
            assert rng_key.getstate() == rng_lines.getstate()
            assert rng_key.getstate() == rng_ref.getstate()
            assert cursors(keyed) == cursors(via_lines)
            wraps = s + count > m
            assert (key < 0) == wraps, (step, key, s, count, m)
            first = ~key if wraps else key
            assert first == expected[0]
            lines = keyed.footprint(warp, first, count, base)
            assert type(lines) is (list if wraps else range)
            assert list(lines) == [base + line for line in expected]
            assert list(keyed.footprint(warp, first, count, 0)) == expected
            wrapped_seen.add(wraps)
        assert wrapped_seen == {False, True}

    def test_footprint_is_pure(self):
        pattern = MixPattern(6, 0.5, region_lines=4)
        rng = random.Random(1)
        keys = [pattern.first_key(1, rng, 3) for _ in range(20)]
        cursors = dict(pattern._stream._cursors)
        for key in keys:
            pattern.footprint(1, key if key >= 0 else ~key, 3, 0)
        assert pattern._stream._cursors == cursors
