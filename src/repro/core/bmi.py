"""BMI — Balanced Memory-request Issuing (paper §3.2).

When concurrent kernels share one SM's memory pipeline, the kernel
with more memory instructions monopolises the LSU and the other kernel
starves (Figure 6).  BMI arbitrates the single per-cycle memory-
instruction issue slot between kernels:

* :class:`RoundRobinBMI` (RBMI) — issue memory instructions from
  kernels in a loose round-robin.  Loose means a kernel's turn is not
  wasted when it has nothing to issue: another kernel may go, and the
  turn advances.
* :class:`QuotaBMI` (QBMI) — because one memory instruction expands to
  ``Req/Minst`` requests and kernels differ widely in coalescing
  degree (Table 2: 1–17), round-robin over *instructions* does not
  balance *requests*.  QBMI assigns each kernel a quota
  ``LCM(r_1..r_K) / r_i`` of memory instructions, where ``r_i`` is the
  kernel's measured ``Req/Minst`` (updated every ``sample_window``
  requests).  The kernel with the largest remaining quota has issue
  priority; each issue decrements its quota; when any kernel's quota
  reaches zero a fresh quota set — recomputed from the latest
  ``Req/Minst`` — is *added* to all kernels' remaining quotas, so a
  zero-quota kernel is never starved while others are idle
  (Figure 7's workflow).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

#: cap on the Req/Minst estimate fed into the LCM (keeps quotas bounded
#: even for degenerate coalescing; Table 2's maximum is 17).
MAX_REQ_PER_MINST = 32


class ReqPerMinstEstimator:
    """Hardware-style running estimate of one kernel's ``Req/Minst``.

    The estimate is refreshed every ``window`` memory requests issued
    by the kernel (paper: 1024), matching the observation that the
    metric is stable throughout a kernel's execution (§3.2).
    """

    def __init__(self, window: int = 1024):
        if window < 1:
            raise ValueError("window must be positive")
        self.window = window
        self._minsts = 0
        self._reqs = 0
        self._estimate = 1
        #: window-boundary hook (subscribed to by the SM, which wakes
        #: on it); fired when the estimate is refreshed.  None = no
        #: listener.
        self.on_window = None

    def note_mem_inst(self) -> None:
        self._minsts += 1

    def note_request(self) -> None:
        self._reqs += 1
        if self._reqs >= self.window:
            self._refresh()

    def _refresh(self) -> None:
        if self._minsts:
            raw = round(self._reqs / self._minsts)
            self._estimate = max(1, min(MAX_REQ_PER_MINST, raw))
        self._minsts = 0
        self._reqs = 0
        if self.on_window is not None:
            self.on_window()

    @property
    def value(self) -> int:
        if self._minsts >= 8:
            # Early in execution, use the running partial ratio.
            raw = round(self._reqs / self._minsts)
            return max(1, min(MAX_REQ_PER_MINST, raw))
        return self._estimate


def compute_quotas(req_per_minst: Sequence[int]) -> List[int]:
    """Quota_i = LCM(r_1..r_K) / r_i (paper §3.2 formula).

    Higher ``Req/Minst`` ⇒ lower quota, so every kernel is granted the
    same number of memory *requests* per quota round.
    """
    rates = [max(1, min(MAX_REQ_PER_MINST, int(r))) for r in req_per_minst]
    if not rates:
        raise ValueError("need at least one kernel")
    lcm = math.lcm(*rates)
    return [lcm // r for r in rates]


class MemIssuePolicy:
    """Interface: choose which kernel wins the cycle's memory-issue slot."""

    def pick(self, candidate_kernels: Sequence[int]) -> int:
        """Return the index (into ``candidate_kernels``) of the winner."""
        raise NotImplementedError

    def note_mem_inst(self, kernel: int) -> None:
        """A memory instruction issued from ``kernel``."""

    def note_request(self, kernel: int) -> None:
        """A memory request (post-coalescing) issued from ``kernel``."""


class UnmanagedIssue(MemIssuePolicy):
    """Baseline: no dedicated management — the first proposing
    scheduler wins (scheduler priority rotates at the SM level), so
    memory-intensive kernels win in proportion to their ready memory
    warps, reproducing the starvation of §2.5."""

    def pick(self, candidate_kernels: Sequence[int]) -> int:
        return 0


class RoundRobinBMI(MemIssuePolicy):
    """RBMI: loose round-robin over kernel slots."""

    def __init__(self, num_kernels: int):
        if num_kernels < 1:
            raise ValueError("need at least one kernel")
        self.num_kernels = num_kernels
        self._turn = 0

    def pick(self, candidate_kernels: Sequence[int]) -> int:
        # Prefer the turn-holder; otherwise the next kernel after the
        # turn-holder that is actually proposing (loose round-robin).
        for offset in range(self.num_kernels):
            kernel = (self._turn + offset) % self.num_kernels
            if kernel in candidate_kernels:
                self._turn = (kernel + 1) % self.num_kernels
                return candidate_kernels.index(kernel)
        return 0

    @staticmethod
    def hardware_cost(num_kernels: int) -> Dict[str, int]:
        return {"turn_pointer_bits": max(1, (num_kernels - 1).bit_length())}


class QuotaBMI(MemIssuePolicy):
    """QBMI: quota-based priority (Figure 7 workflow)."""

    def __init__(self, num_kernels: int, window: int = 1024,
                 initial_req_per_minst: Optional[Sequence[int]] = None):
        if num_kernels < 1:
            raise ValueError("need at least one kernel")
        self.num_kernels = num_kernels
        self.estimators = [ReqPerMinstEstimator(window) for _ in range(num_kernels)]
        if initial_req_per_minst is not None:
            if len(initial_req_per_minst) != num_kernels:
                raise ValueError("one initial Req/Minst per kernel required")
            for est, r in zip(self.estimators, initial_req_per_minst):
                est._estimate = max(1, min(MAX_REQ_PER_MINST, int(r)))
        self.quotas: List[int] = [0] * num_kernels
        #: observability collector + SM id, wired by
        #: ``Observability.attach`` (set before the initial replenish
        #: below so the sentinel check is always valid).
        self._obs = None
        self._obs_key = 0
        #: window-boundary hook (subscribed to by the SM, which wakes
        #: on it); fired on every quota replenish.  Set before the
        #: initial replenish so the sentinel check is always valid.
        self.on_window = None
        self._replenish()

    def _replenish(self) -> None:
        estimates = [est.value for est in self.estimators]
        fresh = compute_quotas(estimates)
        old_quotas = self.quotas
        if self._obs is not None:
            old_quotas = list(old_quotas)
        for i, quota in enumerate(fresh):
            self.quotas[i] += quota
        if self._obs is not None:
            self._obs.qbmi_replenish(self._obs_key, old_quotas,
                                     self.quotas, estimates)
        if self.on_window is not None:
            self.on_window()

    def pick(self, candidate_kernels: Sequence[int]) -> int:
        best_idx = max(range(len(candidate_kernels)),
                       key=lambda i: self.quotas[candidate_kernels[i]])
        winner = candidate_kernels[best_idx]
        self.quotas[winner] -= 1
        if self.quotas[winner] <= 0:
            self._replenish()
        return best_idx

    def note_mem_inst(self, kernel: int) -> None:
        self.estimators[kernel].note_mem_inst()

    def note_request(self, kernel: int) -> None:
        self.estimators[kernel].note_request()

    @staticmethod
    def hardware_cost(num_kernels: int) -> Dict[str, int]:
        """§4.4: one extra 10-bit memory instruction counter per kernel
        plus quota arithmetic, on top of the MILG counters."""
        return {
            "mem_inst_counter_bits": 10 * num_kernels,
            "request_counter_bits": 10 * num_kernels,
            "quota_register_bits": 16 * num_kernels,
        }
