"""Scheme composition: what runs inside each SM for a given experiment.

A :class:`SchemeConfig` names the mechanism stack —

* memory-issue balancing (``bmi``: none / rbmi / qbmi, §3.2),
* in-flight memory instruction limiting (``mil``: none / smil / dmil,
  §3.3, with ``smil_limits`` for the static variant),
* UCP L1D way partitioning (``ucp``, §3.1),
* SMK's warp-instruction quota gate (``smk_quotas``, the "+W" part of
  SMK-(P+W) [45]) —

and :meth:`SchemeConfig.build` instantiates the per-SM state bundle
(:class:`SchemeBundle`) the SM consults at issue time.  TB partitioning
(Warped-Slicer / SMK-P / spatial / leftover) is decided *before* the
run by :mod:`repro.cke` and enters the engine as per-kernel TB limits,
so any TB partitioner composes with any scheme stack, as in the
paper's evaluation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.core.bmi import MemIssuePolicy
    from repro.core.cache_partition import UCPController
    from repro.core.mil import MemInstLimiter

# The mechanisms are imported by :meth:`SchemeConfig.build`, which
# instantiates them: the scheme grammar (``ExperimentRunner.check_scheme``)
# and every pickled ``SchemeConfig`` need the declaration only.

BMI_CHOICES = ("none", "rbmi", "qbmi")
MIL_CHOICES = ("none", "smil", "dmil", "gdmil")


class SMKQuotaGate:
    """SMK-(P+W)'s periodic warp-instruction quota [45].

    Each kernel receives a quota of warp instructions per epoch
    (proportional to its isolated IPC, from offline profiling); a
    kernel that exhausts its quota stops issuing *any* instruction
    until every resident kernel's quota reaches zero, whereupon all
    quotas are re-armed.
    """

    def __init__(self, quotas: Sequence[int]):
        if not quotas or any(q < 1 for q in quotas):
            raise ValueError("quotas must be positive")
        self._initial = list(quotas)
        self.remaining = list(quotas)
        self.epochs = 0

    def can_issue(self, kernel: int) -> bool:
        return self.remaining[kernel] > 0

    def note_issue(self, kernel: int) -> None:
        if self.remaining[kernel] > 0:
            self.remaining[kernel] -= 1

    def maybe_reset(self, resident_kernels: Sequence[int]) -> None:
        """Re-arm once every *resident* kernel has drained its quota
        (kernels with no warps on this SM cannot drain and are
        ignored, preventing livelock)."""
        if all(self.remaining[k] <= 0 for k in resident_kernels):
            self.remaining = list(self._initial)
            self.epochs += 1


@dataclass(frozen=True)
class SchemeConfig:
    """Declarative description of the intra-SM mechanism stack."""

    bmi: str = "none"
    mil: str = "none"
    #: per-kernel static caps for SMIL (None entry = unlimited).
    smil_limits: Optional[Tuple[Optional[int], ...]] = None
    ucp: bool = False
    ucp_interval: int = 5000
    #: per-kernel warp-instruction quotas per epoch (SMK-(P+W)).
    smk_quotas: Optional[Tuple[int, ...]] = None
    #: sampling window (memory requests) for QBMI/DMIL; None uses the
    #: GPUConfig value.
    sample_window: Optional[int] = None
    #: initial Req/Minst hints for QBMI (None = learn from scratch).
    qbmi_init_req_per_minst: Optional[Tuple[int, ...]] = None
    #: allow MILG to probe its limit back up after stall-free windows;
    #: False is the paper's literal one-way formula (ablation knob).
    dmil_recovery: bool = True
    #: per-kernel L1D read bypassing (§4.5 discussion): True entries
    #: send that kernel's loads straight to L2, skipping L1 lookup,
    #: allocation and MSHRs.
    l1d_bypass: Optional[Tuple[bool, ...]] = None

    def __post_init__(self) -> None:
        if self.bmi not in BMI_CHOICES:
            raise ValueError(f"bmi must be one of {BMI_CHOICES}, got {self.bmi!r}")
        if self.mil not in MIL_CHOICES:
            raise ValueError(f"mil must be one of {MIL_CHOICES}, got {self.mil!r}")
        if self.mil == "smil" and self.smil_limits is None:
            raise ValueError("smil requires smil_limits")

    def describe(self) -> str:
        parts = []
        if self.bmi != "none":
            parts.append(self.bmi.upper())
        if self.mil == "smil":
            limits = ",".join("Inf" if l is None else str(l)
                              for l in (self.smil_limits or ()))
            parts.append(f"SMIL({limits})")
        elif self.mil == "dmil":
            parts.append("DMIL")
        elif self.mil == "gdmil":
            parts.append("GlobalDMIL")
        if self.ucp:
            parts.append("UCP")
        if self.l1d_bypass:
            flags = ",".join("1" if b else "0" for b in self.l1d_bypass)
            parts.append(f"Bypass({flags})")
        if self.smk_quotas:
            parts.append("SMK-W")
        return "+".join(parts) if parts else "baseline"

    def build(self, num_kernels: int, gpu_config, l1_tags,
              shared: Optional[dict] = None,
              sm_id: int = 0) -> "SchemeBundle":
        """Instantiate per-SM scheme state.

        ``shared`` is a dict living at GPU scope for mechanisms with
        cross-SM state (global DMIL); ``sm_id`` identifies the SM so
        SM 0 can act as the monitor.
        """
        from repro.core.bmi import QuotaBMI, RoundRobinBMI, UnmanagedIssue
        from repro.core.cache_partition import UCPController
        from repro.core.mil import (DynamicLimiter, GlobalLimiterView,
                                    NoLimit, StaticLimiter)
        window = self.sample_window or gpu_config.sample_window

        if self.bmi == "rbmi":
            policy: MemIssuePolicy = RoundRobinBMI(num_kernels)
        elif self.bmi == "qbmi":
            policy = QuotaBMI(num_kernels, window,
                              self.qbmi_init_req_per_minst)
        else:
            policy = UnmanagedIssue()

        if self.mil == "smil":
            limits = self.smil_limits
            assert limits is not None
            if len(limits) != num_kernels:
                raise ValueError("one SMIL limit per kernel required")
            limiter: MemInstLimiter = StaticLimiter(limits)
        elif self.mil == "dmil":
            limiter = DynamicLimiter(num_kernels, window, self.dmil_recovery)
        elif self.mil == "gdmil":
            if shared is None:
                shared = {}
            core = shared.setdefault(
                "gdmil", DynamicLimiter(num_kernels, window, self.dmil_recovery))
            limiter = GlobalLimiterView(core, is_monitor=(sm_id == 0))
        else:
            limiter = NoLimit(num_kernels)

        ucp = (UCPController(num_kernels, l1_tags, self.ucp_interval)
               if self.ucp and num_kernels >= 2 else None)

        gate = None
        if self.smk_quotas is not None:
            if len(self.smk_quotas) != num_kernels:
                raise ValueError("one SMK quota per kernel required")
            gate = SMKQuotaGate(self.smk_quotas)

        bypass = self.l1d_bypass
        if bypass is not None and len(bypass) != num_kernels:
            raise ValueError("one bypass flag per kernel required")
        return SchemeBundle(policy, limiter, ucp, gate, bypass)


class SchemeBundle:
    """Per-SM instances of the configured mechanisms."""

    def __init__(self, mem_policy: MemIssuePolicy, limiter: MemInstLimiter,
                 ucp: Optional[UCPController], smk_gate: Optional[SMKQuotaGate],
                 l1d_bypass: Optional[Tuple[bool, ...]] = None):
        self.mem_policy = mem_policy
        self.limiter = limiter
        self.ucp = ucp
        self.smk_gate = smk_gate
        self.l1d_bypass = l1d_bypass

    def bypasses_l1d(self, kernel: int) -> bool:
        return bool(self.l1d_bypass) and self.l1d_bypass[kernel]
