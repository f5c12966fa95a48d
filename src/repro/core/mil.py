"""MIL — Memory Instruction Limiting (paper §3.3).

Limiting the number of in-flight memory instructions a kernel may have
reduces the pressure on cache-miss-related resources (line slots,
MSHRs, miss-queue entries), which (a) removes the memory pipeline
stalls that block *other* kernels sharing the SM, and (b) improves the
limited kernel's own L1D locality.

* :class:`StaticLimiter` (SMIL) applies fixed per-kernel caps — the
  offline sweep of Figure 9.
* :class:`DynamicLimiter` (DMIL) adapts the cap at runtime using one
  :class:`MILG` per kernel per SM (Figure 10): every
  ``window`` (=1024 in the paper) memory requests,

      limit = max(peak_inflight - (rsfails >> log2(window)), 1)

  i.e. shrink the cap by the observed reservation failures *per
  request*.  The insight is to converge on a near-stall-free memory
  pipeline (at most ~1 reservation failure per request) while always
  permitting at least one in-flight memory instruction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

#: ceiling for the adaptive limit — the 7-bit in-flight counter
#: (at most 128 instructions can access the L1D concurrently, §4.4).
MAX_LIMIT = 128


class WindowHooks(list):
    """An ``on_window`` listener that fans out to every subscriber, in
    subscription order.  Global DMIL's MILGs are shared by all SMs, and
    each of them has to hear that the limits it issues under moved."""

    def __call__(self) -> None:
        for hook in self:
            hook()


def subscribe_window(source, hook) -> None:
    """Add ``hook`` to ``source.on_window`` (a MILG, a Req/Minst
    estimator, a QBMI policy) without displacing earlier subscribers."""
    hooks = source.on_window
    if hooks is None:
        hooks = source.on_window = WindowHooks()
    hooks.append(hook)


class MILG:
    """Memory-Instruction-Limiting-number Generator (Figure 10).

    Hardware-wise this is a peak in-flight counter, a reservation-
    failure counter, a request counter, and a right shifter; see
    :func:`hardware_cost`.
    """

    def __init__(self, window: int = 1024, recovery: bool = True):
        if window < 2 or window & (window - 1):
            raise ValueError("window must be a power of two >= 2")
        self.window = window
        self.shift = window.bit_length() - 1
        #: probe the limit back up after stall-free windows (see
        #: _recompute); False gives the paper's literal one-way rule.
        self.recovery = recovery
        self._peak_inflight = 0
        self._rsfails = 0
        self._requests = 0
        #: None means unlimited (before the first window completes).
        self.limit: Optional[int] = None
        self.windows_completed = 0
        #: observability collector + (sm, kernel) key, wired by
        #: ``Observability.attach`` (None = zero-cost sentinel check).
        self._obs = None
        self._obs_key = None
        #: window-boundary hook (subscribed to by every SM that issues
        #: under this MILG, see :func:`subscribe_window`): fired
        #: whenever a 1024-request window completes and the limit is
        #: recomputed, so a sleeping SM wakes and re-evaluates issue
        #: eligibility.  None = no listener.
        self.on_window = None

    def observe_inflight(self, inflight: int) -> None:
        if inflight > self._peak_inflight:
            self._peak_inflight = inflight

    def note_rsfail(self, count: int = 1) -> None:
        # Purely additive and read only at the window boundary inside
        # note_request, so a stalled LSU may report a whole stretch of
        # replayed failures in one call (LoadStoreUnit._flush_stall_debt).
        self._rsfails += count

    def note_request(self, current_inflight: int) -> None:
        self._requests += 1
        if self._requests >= self.window:
            self._recompute(current_inflight)

    def _recompute(self, current_inflight: int) -> None:
        # Capture the pre-update state for the adaptation event log
        # before the window counters are reset below.
        old_limit = self.limit
        window_rsfails = self._rsfails
        fails_per_request = self._rsfails >> self.shift
        if fails_per_request >= 1:
            self.limit = max(self._peak_inflight - fails_per_request, 1)
        elif self.recovery and self.limit is not None:
            # The pipeline ran (near) stall-free this window: probe one
            # step back up.  Without this the cap can only ratchet
            # down — peak in-flight is itself bounded by the cap — and
            # a kernel throttled to 1 could never recover after a
            # co-runner phase change (the adaptivity §3.3.2 claims).
            self.limit = min(self.limit + 1, MAX_LIMIT)
        self.windows_completed += 1
        self._peak_inflight = current_inflight
        self._rsfails = 0
        self._requests = 0
        if self._obs is not None:
            self._obs.mil_update(self._obs_key, old_limit, self.limit,
                                 window_rsfails, self.windows_completed)
        if self.on_window is not None:
            self.on_window()

    @staticmethod
    def hardware_cost() -> Dict[str, int]:
        """§4.4 per-MILG storage: 7-bit in-flight counter (≤128
        concurrent L1D accesses), 12-bit reservation-failure counter,
        10-bit request counter; the 10-bit right shifter is wires."""
        return {
            "inflight_counter_bits": 7,
            "rsfail_counter_bits": 12,
            "request_counter_bits": 10,
            "shifter_bits": 0,  # wiring only
        }


class MemInstLimiter:
    """Interface consumed by the SM's issue logic."""

    def can_issue(self, kernel: int, inflight: int) -> bool:
        raise NotImplementedError

    def note_request(self, kernel: int, current_inflight: int) -> None:
        """A memory request was issued to the L1D by ``kernel``."""

    def note_rsfail(self, kernel: int, count: int = 1) -> None:
        """``count`` reservation failures were charged while serving
        ``kernel`` (one per stalled cycle; the LSU batches replays)."""

    def observe_inflight(self, kernel: int, inflight: int) -> None:
        """Sample the kernel's current in-flight memory instructions."""

    def limits(self) -> List[Optional[int]]:
        """Current per-kernel caps (None = unlimited)."""
        raise NotImplementedError


class NoLimit(MemInstLimiter):
    """Baseline: unlimited in-flight memory instructions."""

    def __init__(self, num_kernels: int):
        self.num_kernels = num_kernels

    def can_issue(self, kernel: int, inflight: int) -> bool:
        return True

    def limits(self) -> List[Optional[int]]:
        return [None] * self.num_kernels


class StaticLimiter(MemInstLimiter):
    """SMIL: fixed per-kernel caps (``None`` entries are unlimited)."""

    def __init__(self, limits: Sequence[Optional[int]]):
        for lim in limits:
            if lim is not None and lim < 1:
                raise ValueError("limits must be >= 1 or None")
        self._limits = list(limits)

    def can_issue(self, kernel: int, inflight: int) -> bool:
        limit = self._limits[kernel]
        return limit is None or inflight < limit

    def limits(self) -> List[Optional[int]]:
        return list(self._limits)


class DynamicLimiter(MemInstLimiter):
    """DMIL: one MILG per kernel (local DMIL — per SM, §3.3.2)."""

    def __init__(self, num_kernels: int, window: int = 1024,
                 recovery: bool = True):
        self.milgs = [MILG(window, recovery) for _ in range(num_kernels)]

    def can_issue(self, kernel: int, inflight: int) -> bool:
        limit = self.milgs[kernel].limit
        return limit is None or inflight < limit

    def note_request(self, kernel: int, current_inflight: int) -> None:
        self.milgs[kernel].note_request(current_inflight)

    def note_rsfail(self, kernel: int, count: int = 1) -> None:
        self.milgs[kernel].note_rsfail(count)

    def observe_inflight(self, kernel: int, inflight: int) -> None:
        self.milgs[kernel].observe_inflight(inflight)

    def limits(self) -> List[Optional[int]]:
        return [m.limit for m in self.milgs]


class GlobalLimiterView(MemInstLimiter):
    """One SM's view of a *global* DMIL (§3.3.2).

    Global DMIL deploys a single MILG set fed by one monitor SM and
    broadcasts the generated limits to every SM — cheaper hardware,
    but it requires all SMs to run the same kernel mix.  Non-monitor
    SMs consult the shared limits but do not feed the counters.
    """

    def __init__(self, shared: DynamicLimiter, is_monitor: bool):
        self.shared = shared
        self.is_monitor = is_monitor

    def can_issue(self, kernel: int, inflight: int) -> bool:
        return self.shared.can_issue(kernel, inflight)

    def note_request(self, kernel: int, current_inflight: int) -> None:
        if self.is_monitor:
            self.shared.note_request(kernel, current_inflight)

    def note_rsfail(self, kernel: int, count: int = 1) -> None:
        if self.is_monitor:
            self.shared.note_rsfail(kernel, count)

    def observe_inflight(self, kernel: int, inflight: int) -> None:
        if self.is_monitor:
            self.shared.observe_inflight(kernel, inflight)

    def limits(self) -> List[Optional[int]]:
        return self.shared.limits()
