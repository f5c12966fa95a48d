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
from repro.workloads.kernel import OP_ALU, OP_SFU, ReplayStream
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
        ops, keys = ktrace.get_trace(get_profile("bp"), 0).warp_arrays(0)
        assert type(ops) is bytes
        assert type(keys) is array and keys.typecode == "i"
        assert all(type(key) is int for key in keys)


class TestPackedLines:
    def test_lines_are_packed_int64(self):
        """Every warp of a compiled ks chunk holds one 4-byte key per
        memory instruction; a warp far enough out that its lines pass
        2**32 holds 8-byte keys and replays the live stream."""
        profile = get_profile("ks")
        trace = ktrace.get_trace(profile, 0)
        header = sys.getsizeof(array("q"))
        for warp_index in range(ktrace.CHUNK_WARPS):
            keys = trace.warp_arrays(warp_index)[1]
            assert keys.itemsize == 4
            assert len(keys) == profile.iters_per_warp
            assert sys.getsizeof(keys) <= 8 * len(keys) + header

        far = 70_000
        expected = live_call_order(profile, far, 0)
        assert max(expected[1]) > 1 << 32
        assert compiled(profile, far, 0) == expected
        assert ktrace.get_trace(profile, 0).warp_arrays(far)[1].itemsize == 8


class TestKeyWidth:
    @pytest.mark.parametrize("keys,typecode", [
        ([0, 2**31 - 1], "i"),
        ([0, 2**31], "q"),
        ([~0, ~(2**31 - 1)], "i"),  # wrapped keys ~first
        ([~(2**31)], "q"),
        ([], "i"),
    ], ids=["max-narrow", "min-wide", "wrapped-narrow", "wrapped-wide",
            "empty"])
    def test_keys_are_stored_at_the_width_they_need(self, keys, typecode):
        """Narrow when every key fits in 32 bits, else int64."""
        packed = ktrace.key_array(keys)
        assert packed.typecode == typecode and list(packed) == keys


def replay_lines(stream):
    """Every line a ReplayStream hands the SM, in order."""
    lines = []
    while stream.next_op is not None:
        if stream.next_op is OP_ALU or stream.next_op is OP_SFU:
            stream.pop()
        else:
            lines.extend(stream.pop_mem())
    return lines


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
        assert ops == live_ops
        assert replay_lines(stream) == [base + line for line in live_lines]
        assert keys == pristine, "shared keys mutated"


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
            assert ops == live_ops
            assert replay_lines(stream) == [base + line
                                            for line in live_lines]

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
                "trace_cache.ops_compiled"} == set(names)
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
