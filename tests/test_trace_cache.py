"""Tests for the precompiled kernel-trace cache
(:mod:`repro.workloads.trace`): memoization, compile correctness
against live streams, key widths, replay of untraceable patterns and
observability counters."""

import dataclasses
import functools
import sys
from array import array

import pytest

from repro.workloads import trace as ktrace
from repro.workloads.address import MixPattern, ReusePattern, StreamPattern
from repro.workloads.coalescer import ThreadAddressPattern, gather, strided
from repro.workloads.kernel import (
    CODE_BY_OP,
    LOAD_CODE,
    OP_ALU,
    OP_LOAD,
    OP_SFU,
    RUN_CAP,
    SFU_CODE,
    STORE_CODE,
    ReplayStream,
    encode_ops,
)
from repro.workloads.profiles import ALL_PROFILES, get_profile


@pytest.fixture(autouse=True)
def isolated_trace_caches():
    """Each test sees empty in-memory caches and leaves them empty."""
    ktrace.clear_memory_cache()
    yield
    ktrace.clear_memory_cache()


#: the oracle the compiler must match: a live stream driven through
#: the SM's exact call sequence.
live_call_order = ktrace.live_warp_arrays


class TestMemoization:
    def test_same_profile_and_seed_share_one_trace(self):
        profile = get_profile("bp")
        assert ktrace.get_trace(profile, 0) is ktrace.get_trace(profile, 0)

    def test_seed_splits_the_cache(self):
        profile = get_profile("bp")
        assert ktrace.get_trace(profile, 0) is not ktrace.get_trace(profile, 1)

    def test_timing_only_fields_share_a_trace(self):
        """mlp shapes timing, not the stream: fingerprints must agree."""
        profile = get_profile("cd")
        doubled = dataclasses.replace(profile, mlp=profile.mlp + 1)
        assert (ktrace.profile_fingerprint(profile)
                == ktrace.profile_fingerprint(doubled))


def compiled(profile, warp_index, seed):
    """The compiled warp as a ReplayStream hands it out, in the
    oracle's ``(ops, lines)`` shape."""
    trace = ktrace.get_trace(profile, seed)
    assert trace is not None
    return ktrace.replayed_warp_arrays(profile, warp_index,
                                       *trace.warp_arrays(warp_index))


SEEDS = [0, 11]


class LinesOnlyPattern:
    """A third-party pattern from before ``first_key``/``footprint``:
    it draws from the RNG, only implements ``lines`` and declares a
    ``trace_signature``."""

    def lines(self, warp_index, rng, count):
        start = rng.randrange(1000)
        return [start + warp_index * i for i in range(count)]

    def trace_signature(self):
        return ("lines-only",)


def edge(name, **changes):
    """A variant of a Table-2 profile, shortened to 40 iterations (the
    branches under test are all reached by then; a chunk compile costs
    time in proportion)."""
    label = f"{name}-" + "-".join(f"{k}={getattr(v, '__name__', v)}"
                                  for k, v in changes.items())
    changes.setdefault("iters_per_warp", 40)
    return pytest.param(dataclasses.replace(get_profile(name), **changes),
                        id=label)


#: dataclasses.replace variants reaching every branch of the draw-order
#: contract and both footprint paths of every built-in pattern.
EDGE_PROFILES = [
    # no compute instructions: the load/store draw of the *next*
    # iteration precedes the current lines (fails on a naive fused loop)
    edge("bp", cinst_per_minst=0),
    edge("dc", cinst_per_minst=0, write_frac=0.5),
    edge("cd", cinst_per_minst=0, sfu_frac=0.0),
    edge("cd", cinst_per_minst=1),
    edge("bp", sfu_frac=0.0),
    edge("bp", sfu_frac=1.0),
    edge("pf", sfu_frac=1.0),
    edge("bp", write_frac=0.0),
    edge("bp", write_frac=1.0),
    edge("dc", cinst_per_minst=0, write_frac=0.0),
    edge("ks", iters_per_warp=1),
    edge("dc", iters_per_warp=1),
    edge("hs", iters_per_warp=0),
    # footprints larger than the region / working set: the wrap path
    edge("hs", reqs_per_minst=50),            # StreamPattern(48)
    edge("dc", reqs_per_minst=25),            # ReusePattern(24)
    edge("bp", reqs_per_minst=49),            # Mix(48 ws, 32 region)
    edge("bp", reqs_per_minst=5),             # wraps mid-instruction
    edge("cd", pattern_factory=lambda: StreamPattern(7, recycle_slots=3)),
    edge("cd", pattern_factory=lambda: StreamPattern(7, recycle_slots=None)),
    edge("st", pattern_factory=lambda: MixPattern(5, 0.5, region_lines=3,
                                                  recycle_slots=None)),
    edge("3m", pattern_factory=lambda: ReusePattern(1)),
]


class TestCompileCorrectness:
    """The live stream is the compiler's oracle: compiled arrays must
    equal what ``pop()`` + ``memory_lines()`` produce, which pins
    the RNG draw order (module docstring of repro.workloads.trace)."""

    @pytest.mark.parametrize("name", [p.name for p in ALL_PROFILES])
    @pytest.mark.parametrize("warp_index", [0, 3, ktrace.CHUNK_WARPS,
                                            3 * ktrace.CHUNK_WARPS + 7])
    def test_arrays_match_live_call_order(self, name, warp_index):
        """``warp_index`` and the first, second and last warp of its
        chunk (one compile serves the four), under two seeds."""
        profile = get_profile(name)
        first = warp_index - warp_index % ktrace.CHUNK_WARPS
        warps = {warp_index, first, first + 1, first + ktrace.CHUNK_WARPS - 1}
        for seed in SEEDS:
            for warp in sorted(warps):
                assert (compiled(profile, warp, seed)
                        == live_call_order(profile, warp, seed)), (seed, warp)

    @pytest.mark.parametrize("profile", EDGE_PROFILES)
    def test_edge_profiles_match_live_call_order(self, profile):
        for seed in SEEDS:
            for warp_index in (0, 1, ktrace.CHUNK_WARPS - 1,
                               ktrace.CHUNK_WARPS):
                assert (compiled(profile, warp_index, seed)
                        == live_call_order(profile, warp_index, seed)
                        ), (seed, warp_index)

    def test_arrays_are_bytes_and_int_lists(self):
        """bp's ops are run tokens (no ALU letter, every run at most
        ``cinst_per_minst`` long) and its warp-0 keys, 35..1k, 2-byte
        ints."""
        profile = get_profile("bp")
        ops, keys = ktrace.get_trace(profile, 0).warp_arrays(0)
        assert type(ops) is bytes
        runs = set(range(1, profile.cinst_per_minst + 1))
        assert set(ops) <= runs | {SFU_CODE, LOAD_CODE, STORE_CODE}
        assert type(keys) is array and keys.typecode == "h"
        assert all(type(key) is int for key in keys)


class TestPackedLines:
    def test_lines_are_packed_int64(self):
        """Every warp of a compiled ks chunk holds one key per memory
        instruction, 2 bytes each for warp 0 (lines below 2**15) and 4
        for the rest; a warp far enough out that its lines pass 2**32
        holds 8-byte keys and replays the live stream."""
        profile = get_profile("ks")
        trace = ktrace.get_trace(profile, 0)
        header = sys.getsizeof(array("q"))
        for warp_index in range(ktrace.CHUNK_WARPS):
            keys = trace.warp_arrays(warp_index)[1]
            assert keys.itemsize == (2 if warp_index == 0 else 4)
            assert len(keys) == profile.iters_per_warp
            assert sys.getsizeof(keys) <= keys.itemsize * len(keys) + header

        far = 70_000
        expected = live_call_order(profile, far, 0)
        assert max(expected[1]) > 1 << 32
        assert compiled(profile, far, 0) == expected
        assert ktrace.get_trace(profile, 0).warp_arrays(far)[1].itemsize == 8


#: keys on each side of every width boundary, and the width they take.
WIDTH_BOUNDARIES = [
    pytest.param([0, 127], "b", id="b-max"),
    pytest.param([0, 128], "h", id="h-min"),
    pytest.param([-128, 5], "b", id="b-min-negative"),
    pytest.param([-129, 5], "h", id="h-max-negative"),
    pytest.param([0, 2**15 - 1], "h", id="h-max"),
    pytest.param([0, 2**15], "i", id="i-min"),
    pytest.param([~(2**15 - 1)], "h", id="wrapped-h"),
    pytest.param([~(2**15)], "i", id="wrapped-i"),
    pytest.param([0, 2**31 - 1], "i", id="max-narrow"),
    pytest.param([0, 2**31], "q", id="min-wide"),
    # wrapped keys ~first
    pytest.param([~0, ~(2**31 - 1)], "i", id="wrapped-narrow"),
    pytest.param([~(2**31)], "q", id="wrapped-wide"),
]


class TestKeyWidth:
    @pytest.mark.parametrize("keys,typecode", WIDTH_BOUNDARIES + [
        pytest.param([], "b", id="empty")])
    def test_keys_are_stored_at_the_width_they_need(self, keys, typecode):
        """The narrowest of 1, 2, 4 and 8 bytes that holds every key."""
        packed = ktrace.key_array(keys)
        assert packed.typecode == typecode and list(packed) == keys

    @pytest.mark.parametrize("keys,typecode", WIDTH_BOUNDARIES)
    def test_boundary_keys_round_trip_through_pop_mem(self, keys, typecode):
        """A key at each width's edge expands to the lines the same key
        held in an int list does: ``range(base + key, ...)`` for a
        first line, the footprint of ``~key`` for a wrapped one."""
        profile = dataclasses.replace(get_profile("dc"), reqs_per_minst=2)
        ops = encode_ops(b"al" * len(keys))
        base = 1 << 40

        def footprint(first, count, base_line):
            return [base_line - first - 1 - i for i in range(count)]

        def lines(packed):
            stream = ReplayStream(profile, ops, packed, footprint,
                                  base_line=base)
            return replay_lines(stream)

        packed = ktrace.key_array(keys)
        assert packed.typecode == typecode
        assert lines(packed) == lines(list(keys))
        expected = []
        for key in keys:
            expected += (list(range(base + key, base + key + 2)) if key >= 0
                         else footprint(~key, 2, base))
        assert lines(packed) == expected

    def test_dc_keys_take_one_byte(self):
        """dc's keys, 0..23 (a 24-line reuse set), are ``array('b')``
        in every warp of a chunk."""
        trace = ktrace.get_trace(get_profile("dc"), 0)
        for warp_index in range(ktrace.CHUNK_WARPS):
            keys = trace.warp_arrays(warp_index)[1]
            assert keys.typecode == "b"
            assert set(keys) <= set(range(24))


def replay_lines(stream):
    """Every line a ReplayStream hands the SM, in order."""
    return replay(stream)[1]


def replay(stream):
    """What a ReplayStream hands the SM: one opcode letter per
    instruction, and every line in order."""
    codes = []
    lines = []
    while stream.next_op is not None:
        codes.append(CODE_BY_OP[stream.next_op])
        if stream.next_op is OP_ALU or stream.next_op is OP_SFU:
            stream.pop()
        else:
            lines.extend(stream.pop_mem())
    return "".join(codes).encode("ascii"), lines


class TestReplayRebase:
    def test_base_line_is_added_per_instruction_not_by_copying(self):
        profile = get_profile("ax")
        ops, keys = ktrace.get_trace(profile, 0).warp_arrays(5)
        footprint = functools.partial(profile.pattern_factory().footprint, 5)
        base = 1 << 20
        pristine = array("q", keys)
        stream = ReplayStream(profile, ops, keys, footprint, base_line=base)
        assert stream._keys is keys, "keys must stay shared"
        live_ops, live_lines = live_call_order(profile, 5, 0)
        assert ops == encode_ops(live_ops, profile.cinst_per_minst)
        codes, lines = replay(stream)
        assert codes == live_ops
        assert lines == [base + line for line in live_lines]
        assert keys == pristine, "shared keys mutated"


def letters(stream, pops=None):
    """``pops`` opcodes popped one at a time (all, by default), as
    letters."""
    codes = []
    while stream.next_op is not None and (pops is None or len(codes) < pops):
        codes.append(CODE_BY_OP[stream.next_op])
        if stream.next_op is OP_LOAD:
            stream.pop_mem()
        else:
            stream.pop()
    return "".join(codes)


def script_stream(codes):
    """A stream of per-instruction ``codes``, every memory op keyed 0."""
    profile = get_profile("dc")
    keys = array("b", [0] * sum(c in "lw" for c in codes))
    return ReplayStream(profile, encode_ops(codes.encode()), keys,
                        functools.partial(pytest.fail, "wrapped key"))


class TestRunTokens:
    """A warp's ops are run tokens: one byte per maximal ALU run
    holding its length, one letter per SFU, load or store."""

    @pytest.mark.parametrize("codes,tokens", [
        (b"", b""),
        (b"l", b"l"),
        (b"al", b"\x01l"),
        (b"aaasaaaaw", b"\x03s\x04w"),
        (b"saaslaa", b"s\x02sl\x02"),
        (b"a" * RUN_CAP + b"l", bytes([RUN_CAP]) + b"l"),
        (b"a" * (2 * RUN_CAP + 3) + b"s",
         bytes([RUN_CAP, RUN_CAP, 3]) + b"s"),
    ], ids=["empty", "load", "one", "split-by-sfu", "edges", "cap",
            "over-cap"])
    def test_encoding(self, codes, tokens):
        assert encode_ops(codes) == tokens
        assert encode_ops(codes, RUN_CAP + 1000) == tokens

    def test_a_short_bound_still_encodes_exactly(self):
        """``longest`` below a run splits it into adjacent tokens."""
        assert encode_ops(b"aaaaaaal", 3) == b"\x03\x03\x01l"
        assert letters(script_stream("aaaaaaal")) == "aaaaaaal"

    @pytest.mark.parametrize("run", range(1, 10))
    def test_every_run_length_replays_the_oracle(self, run):
        """Runs of 1..9 ALU ops (cd's compute group is 9): a whole-group
        run without SFUs, and runs of every shorter length split by
        SFU draws, replay equal to the live stream."""
        stream = script_stream("a" * run + "l" + "a" * run)
        assert letters(stream) == "a" * run + "l" + "a" * run
        for sfu_frac in (0.0, 0.3):
            profile = dataclasses.replace(
                get_profile("cd"), cinst_per_minst=run, sfu_frac=sfu_frac,
                iters_per_warp=40)
            for warp_index in (0, 5):
                assert (compiled(profile, warp_index, 0)
                        == live_call_order(profile, warp_index, 0))

    def test_run_over_the_cap_is_split_into_tokens(self):
        """A compute group longer than RUN_CAP compiles to adjacent
        run tokens and replays the live stream."""
        profile = dataclasses.replace(
            get_profile("bp"), cinst_per_minst=RUN_CAP + 5, sfu_frac=0.0,
            iters_per_warp=6)
        ops, _keys = ktrace.get_trace(profile, 0).warp_arrays(0)
        assert ops.count(bytes([RUN_CAP, 5])) == 6
        for sfu_frac in (0.0, 0.01):
            profile = dataclasses.replace(profile, sfu_frac=sfu_frac)
            for warp_index in (0, 1):
                assert (compiled(profile, warp_index, 0)
                        == live_call_order(profile, warp_index, 0))

    @pytest.mark.parametrize("policy", ["gto", "lrr"])
    def test_production_equals_oracle_with_split_runs(self, policy,
                                                      monkeypatch):
        """The autopilot arms one token of a split run at a time (under
        GTO, whole tokens of RUN_CAP ops): the production machine still
        equals the oracle."""
        from repro.config import scaled_config
        from repro.core.arbiter import SchemeConfig
        from repro.harness.perfbench import result_signature
        from repro.sim.engine import GPU, make_launches

        long_runs = dataclasses.replace(
            get_profile("bp"), name="long", cinst_per_minst=RUN_CAP + 30,
            sfu_frac=0.01, iters_per_warp=8)
        cfg = scaled_config(num_sms=2, scheduler_policy=policy)

        def run(reference):
            launches = make_launches([long_runs, get_profile("sv")], [2, 2],
                                     cfg, seed=1)
            return GPU(cfg, launches, SchemeConfig(),
                       reference=reference).run(3000)

        armed = []
        pop_alu_run = ReplayStream.pop_alu_run

        def spy(stream, allow_end):
            armed.append(pop_alu_run(stream, allow_end))
            return armed[-1]

        monkeypatch.setattr(ReplayStream, "pop_alu_run", spy)
        production = run(False)
        assert result_signature(production) == result_signature(run(True))
        assert production.kernels[0].alu_insts > 2 * RUN_CAP
        assert max(armed, default=0) == (RUN_CAP - 1 if policy == "gto"
                                         else 0)

    def test_rewind_lands_inside_the_token(self):
        """A disarmed burst gives back part of a run: the stream sits
        inside the run token, then pops the rest of it and moves on."""
        stream = script_stream("aaaaal" + "aa")
        assert stream.pop_alu_run(True) == 4
        assert stream.next_op is OP_LOAD and stream._pos == 1
        stream.rewind_alu(3)
        assert (stream._pos, stream._off) == (0, 2)
        assert stream.next_op is OP_ALU
        assert stream.pop_alu_run(True) == 2
        stream.rewind_alu(2)
        assert letters(stream) == "aal" + "aa"

    def test_rewind_after_a_run_that_ended_the_stream(self):
        stream = script_stream("l" + "aaa")
        assert letters(stream, 1) == "l"
        assert stream.pop_alu_run(True) == 2
        assert stream.done
        stream.rewind_alu(1)
        assert letters(stream) == "a"

    def test_allow_end_is_refused_on_a_trailing_run(self):
        """With loads in flight a run may not end the stream: the one
        pop happens, inside the token, and nothing is armed."""
        stream = script_stream("l" + "aaa")
        letters(stream, 1)
        assert stream.pop_alu_run(False) == 0
        assert stream.next_op is OP_ALU and (stream._pos, stream._off) == (1, 1)
        assert stream.pop_alu_run(False) == 0
        assert stream.pop_alu_run(False) == 0
        assert stream.done

    def test_a_run_before_more_ops_is_armed_without_allow_end(self):
        stream = script_stream("aaal")
        assert stream.pop_alu_run(False) == 2
        assert stream.next_op is OP_LOAD


#: the patterns the compiler cannot key: coalesced footprints of
#: varying length, RNG-scattered under gather.
UNTRACEABLE = [
    pytest.param(lambda: ThreadAddressPattern(strided(8)), id="strided8"),
    pytest.param(lambda: ThreadAddressPattern(gather(64)), id="gather64"),
]


class TestUntraceablePatterns:
    """A pattern without ``first_key``/``footprint`` is generated by
    the oracle at warp launch (``trace.live_warp``) and replayed like a
    compiled warp."""

    @pytest.mark.parametrize("factory", UNTRACEABLE)
    def test_launch_replays_the_oracle_with_the_base_added(self, factory):
        profile = dataclasses.replace(get_profile("sv"),
                                      pattern_factory=factory,
                                      iters_per_warp=30)
        assert ktrace.get_trace(profile, 3) is None
        base = 3 << 40
        for warp_index in (0, 9):
            ops, keys, footprint = ktrace.live_warp(profile, warp_index, 3)
            assert list(keys) == [~i for i in range(30)]
            stream = ReplayStream(profile, ops, keys, footprint,
                                  base_line=base)
            live_ops, live_lines = ktrace.live_warp_arrays(
                profile, warp_index, 3)
            assert ops == encode_ops(live_ops, profile.cinst_per_minst)
            codes, lines = replay(stream)
            assert codes == live_ops
            assert lines == [base + line for line in live_lines]

    @pytest.mark.parametrize("factory", UNTRACEABLE)
    def test_production_equals_oracle(self, factory):
        from repro.config import scaled_config
        from repro.core.arbiter import SchemeConfig
        from repro.harness.perfbench import result_signature
        from repro.sim.engine import GPU, make_launches

        profile = dataclasses.replace(get_profile("sv"),
                                      pattern_factory=factory,
                                      iters_per_warp=40)
        cfg = scaled_config(num_sms=2)

        def run(reference):
            launches = make_launches([profile, get_profile("cd")], [2, 2],
                                     cfg, seed=1)
            return result_signature(GPU(cfg, launches, SchemeConfig(),
                                        reference=reference).run(1500))

        compiles0 = ktrace._COMPILES.value
        production = run(False)
        assert ktrace._COMPILES.value == compiles0 + 1, "cd's chunk only"
        assert production == run(True)


class TestCounters:
    def test_warp_hits_and_chunk_compiles(self):
        profile = get_profile("bp")
        trace = ktrace.get_trace(profile, 0)
        compiles0 = ktrace._COMPILES.value
        hits0 = ktrace._HITS.value
        trace.warp_arrays(0)
        trace.warp_arrays(1)  # same chunk: no second compile
        assert ktrace._COMPILES.value == compiles0 + 1
        assert ktrace._HITS.value == hits0 + 2

    def test_untraceable_pattern_counts_a_fallback(self):
        class Opaque:
            def addresses(self, *a, **kw):  # pragma: no cover - stub
                return []

        profile = dataclasses.replace(get_profile("bp"),
                                      pattern_factory=Opaque)
        before = ktrace._FALLBACKS.value
        assert ktrace.get_trace(profile, 0) is None
        assert ktrace._FALLBACKS.value == before + 1

    def test_lines_only_pattern_replays_live(self):
        """A pattern with ``trace_signature`` but no ``footprint`` is
        not compiled: each launch counts a fallback, its warps are
        generated at launch, and production equals the oracle."""
        from repro.config import scaled_config
        from repro.core.arbiter import SchemeConfig
        from repro.harness.perfbench import result_signature
        from repro.sim.engine import GPU, make_launches

        profile = dataclasses.replace(get_profile("sv"),
                                      pattern_factory=LinesOnlyPattern,
                                      iters_per_warp=40)
        cfg = scaled_config(num_sms=2)

        def run(reference=False):
            launches = make_launches([profile], [2], cfg)
            return result_signature(GPU(cfg, launches, SchemeConfig(),
                                        reference=reference).run(600))

        before = ktrace._FALLBACKS.value
        assert ktrace.get_trace(profile, 0) is None
        assert ktrace._FALLBACKS.value == before + 1
        compiles0 = ktrace._COMPILES.value
        signature = run()
        assert ktrace._FALLBACKS.value == before + 2
        assert ktrace._COMPILES.value == compiles0
        assert run(reference=True) == signature

    def test_counters_live_in_the_process_registry(self):
        """``disk_hits`` stays registered, reading 0: compiled chunks
        live in process memory only."""
        from repro.obs.registry import process_registry
        ktrace.get_trace(get_profile("bp"), 0).warp_arrays(0)
        names = process_registry().snapshot("trace_cache")
        assert {"trace_cache.warp_hits", "trace_cache.chunk_compiles",
                "trace_cache.disk_hits", "trace_cache.fallback_streams",
                "trace_cache.ops_compiled",
                "trace_cache.bytes_compiled"} == set(names)
        assert names["trace_cache.disk_hits"] == 0

    def test_compiled_work_counts_are_exact(self):
        profile = get_profile("ks")
        before = ktrace._OPS_COMPILED.value
        trace = ktrace.get_trace(profile, 0)
        trace.warp_arrays(0)
        trace.warp_arrays(ktrace.CHUNK_WARPS - 1)  # same chunk
        per_warp_ops = profile.iters_per_warp * (profile.cinst_per_minst + 1)
        assert (ktrace._OPS_COMPILED.value - before
                == ktrace.CHUNK_WARPS * per_warp_ops)

    @pytest.mark.parametrize("name", ["dc", "bp", "ks"])
    def test_bytes_compiled_are_the_chunk_arrays(self, name):
        """``bytes_compiled`` moves by the token and key bytes the
        chunk holds, counted once per compile."""
        profile = get_profile(name)
        before = ktrace._BYTES_COMPILED.value
        trace = ktrace.get_trace(profile, 0)
        held = 0
        for warp_index in range(ktrace.CHUNK_WARPS):
            ops, keys = trace.warp_arrays(warp_index)
            held += len(ops) + len(keys) * keys.itemsize
        assert ktrace._BYTES_COMPILED.value - before == held

