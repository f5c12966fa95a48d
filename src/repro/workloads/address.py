"""Line-address stream generators for synthetic kernels.

Addresses are produced at cache-line granularity (the coalescer in
:mod:`repro.sim.lsu` has already merged thread accesses, matching the
paper's ``Req/Minst`` column).  Each kernel instance owns a disjoint
address region so concurrent kernels never share data; sharing effects
happen in the *capacity* and *resource* domains, as in the paper.

Three patterns cover the behaviours in Table 2:

* :class:`StreamPattern` — each warp walks its private region
  sequentially (compulsory misses, ~1.0 miss rate: ``bs``, ``pf``).
* :class:`ReusePattern` — uniform random lines from a kernel-shared
  working set (miss rate ≈ max(0, 1 - cache_share/ws): ``dc``).
* :class:`MixPattern` — a per-request Bernoulli mix of the two
  (intermediate miss rates: ``cp``, ``bp``, ``st``, ``3m``, ``sv``).
"""

from __future__ import annotations

import random
from typing import List, Optional, Protocol, Sequence


class AccessPattern(Protocol):
    """A source of line indices local to one kernel's address region."""

    def lines(self, warp_index: int, rng: random.Random, count: int) -> List[int]:
        """Return ``count`` line indices for one memory instruction."""

    def first_key(self, warp_index: int, rng: random.Random,
                  count: int) -> int:
        """Take exactly the RNG draws and cursor step :meth:`lines`
        takes, and return the instruction's *key*: its first line
        ``first``, or ``~first`` (negative) when its ``count`` lines do
        not run ``first, first + 1, ...`` because the footprint wraps
        the pattern's region or working set (optional)."""

    def footprint(self, warp_index: int, first: int, count: int,
                  base: int) -> Sequence[int]:
        """The ``count`` lines, each plus ``base``, of the instruction
        of ``warp_index`` whose first line is ``first`` — what
        :meth:`lines` returned after the :meth:`first_key` call that
        gave ``first`` (or ``~first``).  A ``range`` when the lines are
        adjacent, a list when they wrap.  Pure: no draw, no state
        change (optional).

        The trace compiler (:mod:`repro.workloads.trace`) stores one
        key per memory instruction and replay expands it: inline for a
        non-negative key, through this method for a wrapped one.  For a
        pattern without ``first_key`` and ``footprint`` the oracle
        generates each warp once at launch, and the warp replays that."""

    def trace_signature(self) -> tuple:
        """Hashable description of every parameter that influences the
        line sequence this pattern produces (optional).

        Patterns that implement it (and :meth:`first_key` /
        :meth:`footprint`) are eligible for trace precompilation
        (:mod:`repro.workloads.trace`): two pattern instances with
        equal signatures must generate identical line sequences for
        identical ``(warp_index, rng draws, count)`` inputs.  For other
        patterns the oracle generates each warp at launch — correct,
        just not shared between launches."""


class _KeyedPattern:
    """``lines`` defined through ``first_key`` and ``footprint``, so a
    pattern's arithmetic exists once.  Keywords (StreamPattern's
    ``origin``) reach both."""

    def lines(self, warp_index: int, rng: random.Random, count: int,
              **kw) -> List[int]:
        key = self.first_key(warp_index, rng, count, **kw)
        return list(self.footprint(warp_index, key if key >= 0 else ~key,
                                   count, 0, **kw))


class StreamPattern(_KeyedPattern):
    """Per-warp sequential walk over a private region of ``region_lines``.

    Consecutive memory instructions of a warp touch consecutive lines,
    so within the measurement window nothing is revisited (compulsory
    misses), while different warps never alias — no accidental MSHR
    merging.
    """

    #: per-warp extra offset (in lines) decorrelating the DRAM-row —
    #: and hence channel — phase of different warps' streams; without
    #: it all warps advance through channels in lockstep and serialise
    #: on one channel at a time.
    ROW_STAGGER = 33

    def __init__(self, region_lines: int = 1 << 16,
                 recycle_slots: Optional[int] = None):
        if region_lines < 1:
            raise ValueError("region_lines must be positive")
        if recycle_slots is not None and recycle_slots < 1:
            raise ValueError("recycle_slots must be positive")
        self.region_lines = region_lines
        #: when set, warp regions are recycled modulo this many slots:
        #: successive thread blocks re-walk the same data (a bounded,
        #: cache-resident footprint — compute kernels).  None gives
        #: every warp instance fresh data (an unbounded streaming
        #: footprint — memory-intensive kernels).
        self.recycle_slots = recycle_slots
        self._cursors: dict = {}

    def _region_start(self, warp_index: int, origin: int) -> int:
        slot = (warp_index if self.recycle_slots is None
                else warp_index % self.recycle_slots)
        return origin + slot * (self.region_lines + self.ROW_STAGGER)

    def first_key(self, warp_index: int, rng: random.Random, count: int,
                  origin: int = 0) -> int:
        """``origin`` shifts every line (MixPattern places the regions
        above its working set)."""
        region = self.region_lines
        cursors = self._cursors
        cursor = cursors.get(warp_index, 0)
        end = cursor + count
        cursors[warp_index] = end % region
        first = self._region_start(warp_index, origin) + cursor
        # count == 1 cannot wrap: the cursor is below the region size.
        return first if end <= region else ~first

    def footprint(self, warp_index: int, first: int, count: int,
                  base: int, origin: int = 0) -> Sequence[int]:
        start = self._region_start(warp_index, origin)
        cursor = first - start
        region = self.region_lines
        if cursor + count <= region:
            return range(base + first, base + first + count)
        # The walk wraps its region mid-instruction.
        start += base
        return [start + (cursor + i) % region for i in range(count)]

    def trace_signature(self) -> tuple:
        return ("stream", self.region_lines, self.recycle_slots,
                self.ROW_STAGGER)


class ReusePattern(_KeyedPattern):
    """Uniform random lines from a working set shared by all warps."""

    def __init__(self, working_set_lines: int):
        if working_set_lines < 1:
            raise ValueError("working_set_lines must be positive")
        self.working_set_lines = working_set_lines
        self._ws_bits = working_set_lines.bit_length()

    def first_key(self, warp_index: int, rng: random.Random,
                  count: int) -> int:
        ws = self.working_set_lines
        # start = rng.randrange(ws), as Random draws it (one
        # getrandbits rejection loop) without the two Python frames;
        # tests/test_address_patterns.py pins the equality.
        getrandbits = rng.getrandbits
        bits = self._ws_bits
        start = getrandbits(bits)
        while start >= ws:
            start = getrandbits(bits)
        # A coalesced instruction touches adjacent lines of the set.
        return start if start + count <= ws else ~start

    def footprint(self, warp_index: int, first: int, count: int,
                  base: int) -> Sequence[int]:
        ws = self.working_set_lines
        if first + count <= ws:
            return range(base + first, base + first + count)
        # The access wraps the working set.
        return [base + (first + i) % ws for i in range(count)]

    def trace_signature(self) -> tuple:
        return ("reuse", self.working_set_lines)


class MixPattern(_KeyedPattern):
    """Bernoulli mixture: reuse a shared working set with probability
    ``reuse_frac``, otherwise stream from the warp's private region."""

    def __init__(self, working_set_lines: int, reuse_frac: float,
                 region_lines: int = 1 << 16,
                 recycle_slots: Optional[int] = None):
        if not 0.0 <= reuse_frac <= 1.0:
            raise ValueError("reuse_frac must be in [0, 1]")
        self.reuse_frac = reuse_frac
        self._reuse = ReusePattern(working_set_lines)
        self._stream = StreamPattern(region_lines, recycle_slots)
        # Streamed lines must not collide with the shared working set
        # (which is also how footprint() tells the two apart).
        self._stream_base = working_set_lines + 1024

    def first_key(self, warp_index: int, rng: random.Random,
                  count: int) -> int:
        if rng.random() < self.reuse_frac:
            return self._reuse.first_key(warp_index, rng, count)
        return self._stream.first_key(warp_index, rng, count,
                                      self._stream_base)

    def footprint(self, warp_index: int, first: int, count: int,
                  base: int) -> Sequence[int]:
        if first < self._stream_base:
            return self._reuse.footprint(warp_index, first, count, base)
        return self._stream.footprint(warp_index, first, count, base,
                                      self._stream_base)

    def trace_signature(self) -> tuple:
        return ("mix", self.reuse_frac, self._stream_base,
                self._reuse.trace_signature(), self._stream.trace_signature())
