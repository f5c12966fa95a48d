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
from typing import List, Optional, Protocol


class AccessPattern(Protocol):
    """A source of line indices local to one kernel's address region."""

    def lines(self, warp_index: int, rng: random.Random, count: int) -> List[int]:
        """Return ``count`` line indices for one memory instruction."""

    def extend_lines(self, out: List[int], warp_index: int,
                     rng: random.Random, count: int) -> None:
        """Append to ``out`` exactly what :meth:`lines` would return,
        with the same RNG draws and state changes (optional).

        The bulk form the trace compiler fills a warp's footprint
        with; the built-in patterns define :meth:`lines` through it.
        A pattern without it is compiled through :meth:`lines`."""

    def trace_signature(self) -> tuple:
        """Hashable description of every parameter that influences the
        line sequence this pattern produces (optional).

        Patterns that implement it are eligible for trace
        precompilation (:mod:`repro.workloads.trace`): two pattern
        instances with equal signatures must generate identical line
        sequences for identical ``(warp_index, rng draws, count)``
        inputs.  Patterns without the method simply fall back to live
        RNG generation — correct, just slower."""


class _BulkPattern:
    """``lines`` defined through ``extend_lines``, so a pattern's
    arithmetic exists once."""

    def lines(self, warp_index: int, rng: random.Random, count: int) -> List[int]:
        out: List[int] = []
        self.extend_lines(out, warp_index, rng, count)
        return out


class StreamPattern(_BulkPattern):
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

    def extend_lines(self, out: List[int], warp_index: int,
                     rng: random.Random, count: int, origin: int = 0) -> None:
        """``origin`` shifts every line (MixPattern places the regions
        above its working set)."""
        region = self.region_lines
        slot = (warp_index if self.recycle_slots is None
                else warp_index % self.recycle_slots)
        cursor = self._cursors.get(warp_index, 0)
        base = origin + slot * (region + self.ROW_STAGGER)
        end = cursor + count
        if count == 1:  # cannot wrap; append skips the range object
            out.append(base + cursor)
        elif end <= region:
            out.extend(range(base + cursor, base + end))
        else:  # the walk wraps its region mid-instruction
            out.extend([base + (cursor + i) % region for i in range(count)])
        self._cursors[warp_index] = end % region

    def trace_signature(self) -> tuple:
        return ("stream", self.region_lines, self.recycle_slots,
                self.ROW_STAGGER)


class ReusePattern(_BulkPattern):
    """Uniform random lines from a working set shared by all warps."""

    def __init__(self, working_set_lines: int):
        if working_set_lines < 1:
            raise ValueError("working_set_lines must be positive")
        self.working_set_lines = working_set_lines
        self._ws_bits = working_set_lines.bit_length()

    def extend_lines(self, out: List[int], warp_index: int,
                     rng: random.Random, count: int) -> None:
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
        if count == 1:  # cannot wrap; append skips the range object
            out.append(start)
        elif start + count <= ws:
            out.extend(range(start, start + count))
        else:  # the access wraps the working set
            out.extend([(start + i) % ws for i in range(count)])

    def trace_signature(self) -> tuple:
        return ("reuse", self.working_set_lines)


class MixPattern(_BulkPattern):
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
        # Streamed lines must not collide with the shared working set.
        self._stream_base = working_set_lines + 1024

    def extend_lines(self, out: List[int], warp_index: int,
                     rng: random.Random, count: int) -> None:
        if rng.random() < self.reuse_frac:
            self._reuse.extend_lines(out, warp_index, rng, count)
        else:
            self._stream.extend_lines(out, warp_index, rng, count,
                                      self._stream_base)

    def trace_signature(self) -> tuple:
        return ("mix", self.reuse_frac, self._stream_base,
                self._reuse.trace_signature(), self._stream.trace_signature())
