"""Synthetic GPU kernels calibrated to the paper's benchmark suite.

The paper characterises 13 CUDA benchmarks (Table 2) by their dynamic
instruction mix (``Cinst/Minst``), memory coalescing degree
(``Req/Minst``), L1D miss/reservation-failure rates and static-resource
occupancy, then builds 2- and 3-kernel CKE workloads from them.  The
schemes under study never look at program semantics — only at these
observable characteristics — so we reproduce each benchmark as a
parameterised instruction/address stream generator
(:class:`~repro.workloads.kernel.KernelProfile`).
"""

from repro._lazy import lazy_getattr

#: public name -> defining module, imported on first use.
_EXPORTS = {
    **dict.fromkeys(("AccessPattern", "StreamPattern", "ReusePattern",
                     "MixPattern"), "repro.workloads.address"),
    **dict.fromkeys(("ThreadAddressPattern", "coalesce",
                     "coalescing_degree", "unit_stride", "strided",
                     "gather"), "repro.workloads.coalescer"),
    **dict.fromkeys(("KernelProfile", "InstructionStream"),
                    "repro.workloads.kernel"),
    **dict.fromkeys(("ALL_PROFILES", "COMPUTE_PROFILES", "MEMORY_PROFILES",
                     "PROFILES_BY_NAME", "get_profile"),
                    "repro.workloads.profiles"),
    **dict.fromkeys(("WorkloadMix", "classify_mix", "paper_pairs",
                     "representative_pairs", "representative_triples"),
                    "repro.workloads.mixes"),
}
__getattr__ = lazy_getattr(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
