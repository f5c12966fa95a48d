"""Precompiled kernel trace arrays.

Every warp's instruction stream is a pure function of
``(KernelProfile, warp_index, seed)``: the per-warp RNG is seeded from
``(seed, warp_index)`` alone, and the address patterns keep no state
shared *across* warps (StreamPattern cursors are keyed by warp index,
ReusePattern draws only from the RNG, MixPattern composes the two).
CKE schemes never alter the stream either — BMI/MIL/SMK/UCP only
change *when* instructions issue, not *which* — so one compiled trace
serves every scheme leg, every rep, and both the fast and reference
loops of a campaign.

This module compiles streams once into flat parallel arrays — one
opcode byte per instruction plus one *key* per memory instruction —
and replays them by index bump
(:class:`repro.workloads.kernel.ReplayStream`).  The compiler writes a
warp's arrays straight from the profile's integers: per iteration the
``cinst_per_minst`` compute opcodes, one load/store choice, and the
key the pattern's ``first_key`` returns.  The coalescer makes an
instruction's ``reqs_per_minst`` lines adjacent, so the key is its
first line, and replay expands it to ``range(base + key, base + key +
reqs_per_minst)``; an instruction whose lines wrap the pattern's
region or working set is keyed ``~first`` (negative), and replay
expands it through the pattern's ``footprint``.  What makes the
replayed footprint bit-identical to a live
:class:`~repro.workloads.kernel.InstructionStream` is the **draw-order
contract**: the compiler takes the same draws from the same per-warp
RNG in the order the oracle's ``pop()`` + ``memory_lines()`` take them.

* The draw that decides an instruction happens inside the ``pop()`` of
  the instruction before it (the constructor, for the first).
* A compute instruction draws once (the SFU choice) only when
  ``sfu_frac > 0``; a memory instruction always draws once (the
  load/store choice).
* The pattern draws a memory instruction's lines in
  ``memory_lines()``, after its ``pop()`` — so *after* the draw for
  the instruction that follows it: the next iteration's SFU choice when
  ``sfu_frac > 0``, its load/store choice when ``cinst_per_minst == 0``,
  nothing when ``sfu_frac == 0 < cinst_per_minst`` or the stream ends.

The live stream is the oracle, not the engine (:func:`live_warp`):
``tests/test_trace_cache.py`` (every profile, edge mixes, wrapping
footprints), the ``fuzz`` twin in ``tests/test_fuzz_twins.py`` and
``scripts/perf_smoke.py`` compare what a
:class:`~repro.workloads.kernel.ReplayStream` of the compiled arrays
yields (:func:`replayed_warp_arrays`) with it, so a change to
``InstructionStream.pop`` / ``_advance`` or to a pattern's draws must
change ``KernelTrace._compile_chunk`` in lockstep.

Traces are memoized process-wide keyed by a *profile fingerprint*
(every stream-affecting profile field plus the address pattern's
``trace_signature()``) and compiled in chunks of :data:`CHUNK_WARPS`
warps so memory stays bounded for long windows (a global LRU keeps at
most :data:`MAX_CHUNKS` chunks resident).  Compiled chunks live in
process memory only: a chunk compiles in a few ms, and a process
touches a dozen or so.

A warp's keys are packed: one array per warp (no per-key int object),
at the width its keys need (:func:`key_array`: ``array('i')``, 4 bytes
per memory instruction, when every key fits in 32 bits, else
``array('q')`` — the streaming kernels' lines pass 2**31 near warp
32 700, which a long Table-1 window reaches).

A profile whose pattern lacks ``trace_signature``, ``first_key`` or
``footprint`` is not compiled (:func:`get_trace` returns ``None``,
counted in ``trace_cache.fallback_streams``): each of its warps runs
the oracle once at launch (:func:`live_warp`) and replays that, so the
machine has one stream class.  Cache traffic is observable through
the process-wide counter registry (``trace_cache.*`` —
:func:`repro.obs.process_registry`).
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.registry import process_registry
from repro.workloads.kernel import (
    ALU_CODE,
    CODE_BY_OP,
    LOAD_CODE,
    OP_ALU,
    OP_SFU,
    SFU_CODE,
    STORE_CODE,
    InstructionStream,
    KernelProfile,
    ReplayStream,
    warp_rng,
)

#: the element type of the oracle's lines, and of a warp's keys when
#: one of them needs more than 32 bits.
LINE_TYPECODE = "q"

#: the element type of a warp's keys when every key fits in 32 bits.
NARROW_TYPECODE = "i"

#: warps compiled together.  64 warps of a typical profile are a few
#: hundred KB of arrays — big enough to amortise a compile's set-up,
#: small enough that eviction granularity stays fine.
CHUNK_WARPS = 64

#: process-wide cap on resident chunks (LRU).  Long windows launch
#: tens of thousands of warps per kernel; without a cap the arrays
#: for every warp ever launched would stay live.
MAX_CHUNKS = 256

_COUNTERS = process_registry()
_HITS = _COUNTERS.counter("trace_cache.warp_hits")
_COMPILES = _COUNTERS.counter("trace_cache.chunk_compiles")
# Reads 0: there is no disk cache; registered while benchmarks/e2e reads it.
_COUNTERS.counter("trace_cache.disk_hits")
_FALLBACKS = _COUNTERS.counter("trace_cache.fallback_streams")
_OPS_COMPILED = _COUNTERS.counter("trace_cache.ops_compiled")

#: (fingerprint, seed) -> KernelTrace, shared by every launch in the
#: process (campaign legs re-create GPU objects constantly).
_TRACES: Dict[Tuple, "KernelTrace"] = {}

#: (fingerprint, seed, chunk_index) -> (ops bytes per warp, keys per
#: warp), in LRU order (popitem(last=False) evicts the coldest chunk).
_CHUNKS: "OrderedDict[Tuple, Tuple[List[bytes], List[array]]]" = OrderedDict()


def profile_fingerprint(profile: KernelProfile) -> Optional[Tuple]:
    """Hashable key covering everything that shapes the instruction
    stream, or ``None`` when the profile is not traceable (its address
    pattern lacks ``trace_signature``, ``first_key`` or ``footprint``).

    Deliberately excludes fields that only affect *timing* (``mlp``,
    resources, latencies): profiles differing only in those share one
    trace, exactly like scheme legs do.
    """
    pattern = profile.pattern_factory()
    signature = getattr(pattern, "trace_signature", None)
    if (signature is None or not hasattr(pattern, "first_key")
            or not hasattr(pattern, "footprint")):
        return None
    return (
        profile.cinst_per_minst,
        profile.reqs_per_minst,
        profile.sfu_frac,
        profile.write_frac,
        profile.iters_per_warp,
        signature(),
    )


def get_trace(profile: KernelProfile, seed: int) -> Optional["KernelTrace"]:
    """The process-wide compiled trace for ``(profile, seed)``, or
    ``None`` when the profile's pattern cannot be keyed."""
    fingerprint = profile_fingerprint(profile)
    if fingerprint is None:
        _FALLBACKS.value += 1
        return None
    key = (fingerprint, seed)
    trace = _TRACES.get(key)
    if trace is None:
        trace = KernelTrace(profile, seed, fingerprint)
        _TRACES[key] = trace
    return trace


def live_warp(profile: KernelProfile, warp_index: int,
              seed: int) -> Tuple[bytes, array, Callable]:
    """The compiler's oracle, run once for one warp: the ops a live
    :class:`InstructionStream` yields (``pop()``, then ``memory_lines()``
    for a memory op), the key ``~i`` of memory instruction ``i``, and a
    ``footprint(i, count, base)`` returning instruction ``i``'s lines,
    each plus ``base`` — a :class:`ReplayStream`'s inputs.  A launch
    builds its warps from it when the profile's pattern cannot be keyed
    (:meth:`repro.sim.engine.KernelLaunch.new_stream`).  Each call
    draws a fresh pattern: pattern state is per warp (module
    docstring)."""
    stream = InstructionStream(profile, profile.pattern_factory(),
                               warp_index, seed)
    codes: List[str] = []
    footprints: List[List[int]] = []
    while stream.next_op is not None:
        op = stream.pop()
        codes.append(CODE_BY_OP[op])
        if not (op is OP_ALU or op is OP_SFU):
            footprints.append(stream.memory_lines())

    def footprint(index: int, count: int, base: int) -> List[int]:
        return [base + line for line in footprints[index]]

    keys = key_array([~i for i in range(len(footprints))])
    return "".join(codes).encode("ascii"), keys, footprint


def live_warp_arrays(profile: KernelProfile, warp_index: int,
                     seed: int) -> Tuple[bytes, array]:
    """:func:`live_warp` flattened: the warp's ops and the region-local
    lines of its memory instructions in order.  No run uses it; the
    tests and ``scripts/perf_smoke.py`` hold
    :func:`replayed_warp_arrays` equal to it."""
    ops, keys, footprint = live_warp(profile, warp_index, seed)
    lines = array(LINE_TYPECODE)
    for key in keys:
        lines.extend(footprint(~key, profile.reqs_per_minst, 0))
    return ops, lines


def replayed_warp_arrays(profile: KernelProfile, warp_index: int,
                         ops: bytes, keys: array) -> Tuple[bytes, array]:
    """The ``(ops, lines)`` a :class:`ReplayStream` of one compiled
    warp (:meth:`KernelTrace.warp_arrays`) yields through the SM's
    call sequence (``pop_mem`` for a memory op), in
    :func:`live_warp_arrays`' shape — so compile and key expansion are
    checked against the oracle in one comparison."""
    footprint = partial(profile.pattern_factory().footprint, warp_index)
    stream = ReplayStream(profile, ops, keys, footprint)
    lines = array(LINE_TYPECODE)
    codes = bytearray()
    while stream.next_op is not None:
        op = stream.next_op
        codes += CODE_BY_OP[op].encode("ascii")
        if op is OP_ALU or op is OP_SFU:
            stream.pop()
        else:
            lines.extend(stream.pop_mem())
    return bytes(codes), lines


def key_array(keys) -> array:
    """A warp's keys at the width they need: ``array('i')`` when every
    key fits in 32 bits, else ``array('q')``."""
    try:
        return array(NARROW_TYPECODE, keys)
    except OverflowError:
        return array(LINE_TYPECODE, keys)


def clear_memory_cache() -> None:
    """Drop every in-process trace and chunk (test hook)."""
    _TRACES.clear()
    _CHUNKS.clear()


class KernelTrace:
    """Lazily compiled per-warp trace arrays for one (profile, seed)."""

    __slots__ = ("profile", "seed", "fingerprint")

    def __init__(self, profile: KernelProfile, seed: int,
                 fingerprint: Tuple):
        self.profile = profile
        self.seed = seed
        self.fingerprint = fingerprint

    def warp_arrays(self, warp_index: int) -> Tuple[bytes, array]:
        """``(ops, keys)`` for one warp, compiling the containing chunk
        on demand."""
        chunk_index, offset = divmod(warp_index, CHUNK_WARPS)
        key = (self.fingerprint, self.seed, chunk_index)
        chunks = _CHUNKS
        chunk = chunks.get(key)
        if chunk is not None:
            chunks.move_to_end(key)
        else:
            chunk = self._compile_chunk(chunk_index)
            chunks[key] = chunk
            while len(chunks) > MAX_CHUNKS:
                chunks.popitem(last=False)
        _HITS.value += 1
        return chunk[0][offset], chunk[1][offset]

    # ------------------------------------------------------------------
    def _compile_chunk(self, chunk_index: int):
        """Generate the ops and keys for warps ``[chunk*C,
        (chunk+1)*C)`` from the profile's integers, reproducing the live
        stream's RNG draw order (module docstring)."""
        _COMPILES.value += 1
        profile = self.profile
        seed = self.seed
        cinst = profile.cinst_per_minst
        sfu_frac = profile.sfu_frac
        write_frac = profile.write_frac
        reqs = profile.reqs_per_minst
        stride = cinst + 1
        later_cinsts = range(1, cinst)
        template = (bytes([ALU_CODE] * cinst + [LOAD_CODE])
                    * profile.iters_per_warp)
        # The draw for the first op of an iteration: the SFU choice
        # (skipped, like the live stream's, when sfu_frac is 0) or, with
        # no compute instructions, the load/store choice.
        if cinst:
            head_draws, head_frac, head_code = bool(sfu_frac), sfu_frac, SFU_CODE
        else:
            head_draws, head_frac, head_code = True, write_frac, STORE_CODE
        # A fresh pattern per chunk is sound: pattern state is keyed by
        # warp index (or drawn from the per-warp RNG), never shared
        # across warps, so chunk boundaries cannot leak state.
        first_key = profile.pattern_factory().first_key
        ops_per_warp: List[bytes] = []
        keys_per_warp: List[array] = []
        first = chunk_index * CHUNK_WARPS
        for warp_index in range(first, first + CHUNK_WARPS):
            rng = warp_rng(seed, warp_index)
            rnd = rng.random
            ops = bytearray(template)
            keys: List[int] = []
            for pos in range(0, len(ops), stride):
                if head_draws and rnd() < head_frac:
                    ops[pos] = head_code
                if pos:
                    # The previous iteration's footprint, one op draw late.
                    keys.append(first_key(warp_index, rng, reqs))
                if cinst:
                    if sfu_frac:
                        for j in later_cinsts:
                            if rnd() < sfu_frac:
                                ops[pos + j] = SFU_CODE
                    if rnd() < write_frac:
                        ops[pos + cinst] = STORE_CODE
            if ops:
                keys.append(first_key(warp_index, rng, reqs))
            ops_per_warp.append(bytes(ops))
            keys_per_warp.append(key_array(keys))
            _OPS_COMPILED.value += len(ops)
        return ops_per_warp, keys_per_warp
