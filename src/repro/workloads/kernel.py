"""Kernel profiles and per-warp instruction streams.

A :class:`KernelProfile` is the synthetic stand-in for one of the
paper's CUDA benchmarks: it fixes the static resource footprint
(registers / shared memory / threads per TB — Table 2's occupancy
columns) and the dynamic behaviour (compute-to-memory instruction
ratio ``Cinst/Minst``, coalescing degree ``Req/Minst``, and the address
pattern that yields the benchmark's L1D miss profile).

A :class:`InstructionStream` turns a profile into the deterministic
instruction sequence one warp executes: groups of ``cinst_per_minst``
compute instructions followed by one memory instruction, repeated for
``iters_per_warp`` iterations per thread block.  All randomness is
drawn from a per-warp :class:`random.Random` seeded from
``(kernel seed, warp index)``, so runs are exactly reproducible.  It is
the oracle: the SM runs every warp as a :class:`ReplayStream` of the
same sequence, compiled ahead (:mod:`repro.workloads.trace`) or, for a
pattern the compiler cannot key, generated once at warp launch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.workloads.address import AccessPattern

#: Instruction opcodes of a warp's stream.
OP_ALU = "alu"
OP_SFU = "sfu"
OP_LOAD = "ld"
OP_STORE = "st"

#: single-byte opcode encoding, one letter per instruction: what the
#: live stream yields (:func:`repro.workloads.trace.live_warp_arrays`)
#: and what :func:`encode_ops` reads.
ALU_CODE = ord("a")
SFU_CODE = ord("s")
LOAD_CODE = ord("l")
STORE_CODE = ord("w")
CODE_BY_OP = {OP_ALU: "a", OP_SFU: "s", OP_LOAD: "l", OP_STORE: "w"}

#: the longest ALU run one token holds: run tokens are the byte values
#: ``1..RUN_CAP``, all below the letter codes.
RUN_CAP = ALU_CODE - 1

#: token -> opcode.  Ops are compared by identity throughout the
#: simulator, so replay decodes tokens to the interned module constants
#: above.  The ALU letter is not a token: a run is stored as its length.
OP_BY_TOKEN = [None] * 128
OP_BY_TOKEN[1:RUN_CAP + 1] = [OP_ALU] * RUN_CAP
OP_BY_TOKEN[SFU_CODE] = OP_SFU
OP_BY_TOKEN[LOAD_CODE] = OP_LOAD
OP_BY_TOKEN[STORE_CODE] = OP_STORE

_ALU_RUNS = [bytes([ALU_CODE]) * n for n in range(RUN_CAP + 1)]
_RUN_TOKENS = [bytes([n]) for n in range(RUN_CAP + 1)]


def encode_ops(codes: bytes, longest: int = RUN_CAP) -> bytes:
    """Per-instruction opcode letters as the run tokens a
    :class:`ReplayStream` replays: each maximal run of ALU letters
    becomes one byte holding its length, SFU / load / store keep their
    letter.  ``longest`` bounds the runs in ``codes`` (a profile's
    ``cinst_per_minst``; a run never spans a memory instruction); a run
    longer than it, or than :data:`RUN_CAP`, becomes adjacent tokens —
    still exact, see :meth:`ReplayStream.pop_alu_run`.  Replacing the
    longest run first makes each token a whole run, in C."""
    for n in range(min(longest, RUN_CAP), 0, -1):
        codes = codes.replace(_ALU_RUNS[n], _RUN_TOKENS[n])
    return codes


@dataclass(frozen=True)
class KernelProfile:
    """Static + dynamic characteristics of one synthetic kernel."""

    name: str
    full_name: str
    suite: str
    #: expected classification, 'C' (compute) or 'M' (memory) — Table 2.
    kind: str

    # Dynamic instruction mix (Table 2 columns).
    cinst_per_minst: int
    reqs_per_minst: int
    sfu_frac: float = 0.0
    write_frac: float = 0.05
    #: memory-level parallelism: independent loads one warp keeps in
    #: flight.  Memory-intensive kernels issue back-to-back independent
    #: loads (high MLP) — the reason they saturate miss resources.
    mlp: int = 2

    # Static per-TB resources, in scaled-config units (see DESIGN.md).
    threads_per_tb: int = 64
    regs_per_thread: int = 32
    smem_per_tb: int = 0

    #: factory producing a fresh address pattern per kernel instance.
    pattern_factory: Callable[[], AccessPattern] = None  # type: ignore[assignment]

    #: memory-instruction iterations one warp executes per TB.
    iters_per_warp: int = 200

    #: Table 2 reference values from the paper, for reporting.
    paper: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("C", "M"):
            raise ValueError(f"kind must be 'C' or 'M', got {self.kind!r}")
        if self.cinst_per_minst < 0 or self.reqs_per_minst < 1:
            raise ValueError("bad instruction mix")
        if self.threads_per_tb < 1:
            raise ValueError("threads_per_tb must be positive")
        if self.pattern_factory is None:
            raise ValueError("pattern_factory is required")

    def warps_per_tb(self, warp_size: int) -> int:
        return max(1, (self.threads_per_tb + warp_size - 1) // warp_size)

    def max_tbs_per_sm(self, config) -> int:
        """Maximum concurrent TBs of this kernel on one SM, limited by
        the four static resources of the paper's Table 2."""
        warp_size = config.warp_size
        by_threads = config.max_threads_per_sm // self.threads_per_tb
        by_warps = config.max_warps_per_sm // self.warps_per_tb(warp_size)
        by_regs = config.registers_per_sm // max(
            1, self.regs_per_thread * self.threads_per_tb)
        by_smem = (config.smem_per_sm // self.smem_per_tb
                   if self.smem_per_tb else config.max_tbs_per_sm)
        by_slots = config.max_tbs_per_sm
        return max(0, min(by_threads, by_warps, by_regs, by_smem, by_slots))

    def occupancy(self, config, tbs: Optional[int] = None) -> Dict[str, float]:
        """Static-resource occupancy at ``tbs`` concurrent TBs (defaults
        to the maximum) — reproduces Table 2's occupancy columns."""
        if tbs is None:
            tbs = self.max_tbs_per_sm(config)
        threads = tbs * self.threads_per_tb
        return {
            "rf": tbs * self.threads_per_tb * self.regs_per_thread
                  / config.registers_per_sm,
            "smem": tbs * self.smem_per_tb / config.smem_per_sm,
            "threads": threads / config.max_threads_per_sm,
            "tbs": tbs / config.max_tbs_per_sm,
        }


def warp_rng(seed: int, global_warp_index: int) -> random.Random:
    """The private RNG of one warp: every draw of its instruction
    stream, live or compiled, comes from this generator."""
    return random.Random((seed * 1000003 + global_warp_index) & 0x7FFFFFFF)


class InstructionStream:
    """The live, RNG-driven instruction sequence of one warp of one TB
    — the trace compiler's oracle
    (:func:`repro.workloads.trace.live_warp`), never driven by an SM.

    The stream interleaves ``cinst_per_minst`` compute instructions
    (ALU, or SFU with probability ``sfu_frac``) with one memory
    instruction per iteration.  ``next_op`` is the next opcode, ``None``
    once the warp's work is finished.
    """

    __slots__ = ("profile", "next_op", "_pattern", "_warp_index", "_rng",
                 "_iters_left", "_compute_left")

    def __init__(self, profile: KernelProfile, pattern: AccessPattern,
                 global_warp_index: int, seed: int):
        self.profile = profile
        self._pattern = pattern
        self._warp_index = global_warp_index
        self._rng = warp_rng(seed, global_warp_index)
        self._iters_left = profile.iters_per_warp
        self._compute_left = profile.cinst_per_minst
        self.next_op: Optional[str] = None
        self._advance()

    def _advance(self) -> None:
        profile = self.profile
        if self._iters_left <= 0:
            self.next_op = None
        elif self._compute_left > 0:
            sfu_frac = profile.sfu_frac
            if sfu_frac and self._rng.random() < sfu_frac:
                self.next_op = OP_SFU
            else:
                self.next_op = OP_ALU
        elif self._rng.random() < profile.write_frac:
            self.next_op = OP_STORE
        else:
            self.next_op = OP_LOAD

    def pop(self) -> str:
        """Consume and return the next opcode.  For a memory opcode the
        caller then takes its lines with :meth:`memory_lines`."""
        op = self.next_op
        if op is None:
            raise RuntimeError("instruction stream exhausted")
        if op is OP_ALU or op is OP_SFU:
            self._compute_left -= 1
        else:
            self._compute_left = self.profile.cinst_per_minst
            self._iters_left -= 1
        self._advance()
        return op

    def memory_lines(self) -> List[int]:
        """The region-local lines of the memory instruction just popped
        (``Req/Minst`` requested; the pattern decides)."""
        return self._pattern.lines(self._warp_index, self._rng,
                                   self.profile.reqs_per_minst)


class ReplayStream:
    """The instruction stream every warp on the machine executes.

    Built from flat arrays: ``ops`` is the warp's run tokens
    (:func:`encode_ops`: one byte per maximal ALU run holding its
    length, one letter per SFU, load or store), ``keys`` one int per
    memory instruction in order.  The stream keeps a token index plus
    the ALU ops already consumed of the current run.  A non-negative
    key is the instruction's first region-local line and expands inline
    to the ``reqs_per_minst`` adjacent lines; a negative key ``~k``
    expands through ``footprint(k, count, base)``.  A compiled warp
    (:class:`repro.workloads.trace.KernelTrace`) keys an instruction
    whose footprint wraps ``~first`` and passes the pattern's bound
    :meth:`~repro.workloads.address.AccessPattern.footprint`; a warp of
    a pattern the compiler cannot key
    (:func:`repro.workloads.trace.live_warp`) keys instruction ``i``
    ``~i`` and passes the oracle's footprints.  Popping is an index
    bump and a table lookup — no RNG, no pattern cursor arithmetic —
    and yields what the live :class:`InstructionStream` yields (the
    draw-order contract; see ``docs/PERF.md`` for the proof
    obligations).
    """

    __slots__ = ("profile", "next_op", "_ops", "_keys", "_footprint",
                 "_base", "_pos", "_off", "_len", "_rpm", "_mem_seen")

    def __init__(self, profile: KernelProfile, ops: bytes, keys,
                 footprint: Callable, base_line: int = 0):
        self.profile = profile
        self._ops = ops
        # The compiled arrays are region-local and shared by every
        # launch of the profile, so the kernel's base is added to the
        # lines an instruction hands out, never to the trace.
        self._keys = keys
        self._footprint = footprint
        self._base = base_line
        self._pos = 0
        self._off = 0
        self._len = len(ops)
        self._rpm = profile.reqs_per_minst
        self._mem_seen = 0
        self.next_op: Optional[str] = OP_BY_TOKEN[ops[0]] if ops else None

    @property
    def done(self) -> bool:
        return self.next_op is None

    def pop(self) -> str:
        """Consume and return the next opcode (a memory opcode's lines
        are skipped; the SM takes them with :meth:`pop_mem`)."""
        op = self.next_op
        if op is OP_ALU:
            off = self._off + 1
            if off < self._ops[self._pos]:
                self._off = off
                return op
            self._off = 0
        elif op is None:
            raise RuntimeError("instruction stream exhausted")
        elif op is not OP_SFU:
            self._mem_seen += 1
        pos = self._pos + 1
        self._pos = pos
        self.next_op = OP_BY_TOKEN[self._ops[pos]] if pos < self._len else None
        return op

    def pop_alu_run(self, allow_end: bool) -> int:
        """Pop one ALU op and pre-advance past the rest of its run
        token — the issue autopilot arms with it.  Returns the
        pre-advanced remainder length (0 means nothing armed; the
        single pop still happened).  ``allow_end`` False refuses a run
        that would exhaust the stream (the caller's in-flight loads
        could observe the drained ``next_op``).  A run split over
        adjacent tokens arms one token at a time: when a burst ends the
        autopilot re-arms at the greedy warp's next issue, so where a
        burst stops never changes what issues."""
        pos = self._pos
        off = self._off + 1
        run = self._ops[pos] - off
        pos += 1
        if pos < self._len:
            self.next_op = OP_BY_TOKEN[self._ops[pos]]
        elif allow_end or not run:
            self.next_op = None
        else:
            self._off = off
            return 0
        self._pos = pos
        self._off = 0
        return run

    def rewind_alu(self, count: int) -> None:
        """Give back ``count`` unissued ALU opcodes of a skipped run
        (the autopilot disarmed mid-burst): at most what the last
        :meth:`pop_alu_run` returned, so the rewind lands inside the
        token it advanced past."""
        pos = self._pos - 1
        self._pos = pos
        self._off = self._ops[pos] - count
        self.next_op = OP_ALU

    def pop_mem(self):
        """Pop a memory opcode and return its lines in global line
        space: a ``range`` for a non-negative key, the footprint's
        fresh list otherwise."""
        key = self._keys[self._mem_seen]
        self._mem_seen += 1
        pos = self._pos + 1
        self._pos = pos
        self.next_op = OP_BY_TOKEN[self._ops[pos]] if pos < self._len else None
        if key >= 0:
            first = self._base + key
            return range(first, first + self._rpm)
        return self._footprint(~key, self._rpm, self._base)
