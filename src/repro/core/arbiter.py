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
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.core.bmi import MemIssuePolicy
    from repro.core.cache_partition import UCPController
    from repro.core.mil import MemInstLimiter

# The mechanisms are imported by :meth:`SchemeConfig.build`, which
# instantiates them: the scheme grammar (:func:`parse_scheme`) and
# every pickled ``SchemeConfig`` need the declaration only.

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
        self.check_kernels(num_kernels)
        window = self.sample_window or gpu_config.sample_window

        if self.bmi == "rbmi":
            policy: MemIssuePolicy = RoundRobinBMI(num_kernels)
        elif self.bmi == "qbmi":
            policy = QuotaBMI(num_kernels, window,
                              self.qbmi_init_req_per_minst)
        else:
            policy = UnmanagedIssue()

        if self.mil == "smil":
            assert self.smil_limits is not None
            limiter: MemInstLimiter = StaticLimiter(self.smil_limits)
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

        gate = (SMKQuotaGate(self.smk_quotas)
                if self.smk_quotas is not None else None)
        return SchemeBundle(policy, limiter, ucp, gate, self.l1d_bypass)

    def check_kernels(self, num_kernels: int) -> None:
        """Raise the ``ValueError`` :meth:`build` raises when a
        per-kernel list does not hold ``num_kernels`` entries."""
        for values, what in (
                (self.smil_limits if self.mil == "smil" else None,
                 "SMIL limit"),
                (self.smk_quotas, "SMK quota"),
                (self.l1d_bypass, "bypass flag")):
            if values is not None and len(values) != num_kernels:
                raise ValueError(f"one {what} per kernel required")


#: every scheme name the harness knows, as ``(name, meaning)`` rows
#: (what ``python -m repro schemes`` prints): a TB partitioner, then for
#: ``ws``, ``dws`` and ``smk-p`` an optional suffix of ``+``-joined
#: mechanism tokens, which :func:`parse_scheme` reads.
SCHEMES: Tuple[Tuple[str, str], ...] = (
    ("spatial", "spatial multitasking (SM split) [2]"),
    ("leftover", "Hyper-Q-style left-over policy"),
    ("even", "naive even intra-SM TB split"),
    ("ws", "Warped-Slicer sweet-spot TB partition"),
    ("ws-rbmi", "+ round-robin balanced memory issuing (§3.2)"),
    ("ws-qbmi", "+ quota-based balanced memory issuing (§3.2)"),
    ("ws-dmil", "+ dynamic memory instruction limiting (§3.3.2)"),
    ("ws-gdmil", "+ global DMIL: one MILG set, broadcast (§3.3.2)"),
    ("ws-qbmi+dmil", "+ QBMI and DMIL"),
    ("ws-ucp", "+ UCP L1D way partitioning (§3.1)"),
    ("ws-smil:3,1", "+ static limits, 'inf' for unlimited (§3.3.1)"),
    ("ws-byp:0,1", "+ L1D bypassing for flagged kernels (§4.5)"),
    ("dws", "dynamic Warped-Slicer: online profiling (§2.5)"),
    ("dws-dmil", "dws + DMIL (any ws suffix applies)"),
    ("smk-p", "SMK DRF partition only"),
    ("smk-p+w", "SMK-(P+W): DRF + warp-instruction quotas [45]"),
    ("smk-p+qbmi", "SMK-P + QBMI"),
    ("smk-p+dmil", "SMK-P + DMIL"),
)


def parse_scheme(name: str, reqs_per_minst: Sequence[int] = ()
                 ) -> Tuple[str, Optional[SchemeConfig]]:
    """Split a scheme name (:data:`SCHEMES`, any case) into its TB
    partitioner — ``spatial``, ``leftover``, ``even``, ``ws``, ``dws``
    or ``smk`` — and the :class:`SchemeConfig` its suffix names:
    ``None`` for ``smk-p+w``, whose quotas come from the kernels'
    isolated IPCs.  ``reqs_per_minst`` (one per kernel) seeds QBMI.
    Raises ``ValueError`` for a name outside the grammar."""
    name = name.lower()
    if name in ("spatial", "leftover", "even"):
        return name, SchemeConfig()
    for partition in ("dws", "ws"):
        if name.startswith(partition):
            return partition, _stack(name[len(partition):], reqs_per_minst)
    if name.startswith("smk"):
        variant = name[len("smk"):]
        if variant in ("-p+w", "+w"):
            return "smk", None
        if variant in ("-p", ""):
            return "smk", SchemeConfig()
        if variant.startswith("-p+"):
            return "smk", _stack(variant[len("-p+"):], reqs_per_minst)
        raise ValueError(f"unknown SMK variant {name!r}")
    raise ValueError(f"unknown scheme {name!r}")


def _stack(suffix: str, reqs_per_minst: Sequence[int]) -> SchemeConfig:
    """The mechanism stack a scheme suffix names, e.g. ``-qbmi+dmil``
    or ``-smil:3,1``."""
    suffix = suffix.lstrip("-")
    if not suffix:
        return SchemeConfig()
    kwargs: Dict[str, object] = {}
    for token in suffix.split("+"):
        if token in ("rbmi", "qbmi"):
            kwargs["bmi"] = token
            if token == "qbmi":
                kwargs["qbmi_init_req_per_minst"] = tuple(reqs_per_minst)
        elif token in ("dmil", "gdmil"):
            kwargs["mil"] = token
        elif token == "ucp":
            kwargs["ucp"] = True
        elif token.startswith("byp:"):
            kwargs["l1d_bypass"] = tuple(
                part.strip() in ("1", "true")
                for part in token[len("byp:"):].split(","))
        elif token.startswith("smil:"):
            kwargs["mil"] = "smil"
            kwargs["smil_limits"] = tuple(
                None if part in ("inf", "none") else int(part)
                for part in token[len("smil:"):].split(","))
        else:
            raise ValueError(f"unknown scheme token {token!r}")
    return SchemeConfig(**kwargs)


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
