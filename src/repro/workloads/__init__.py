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
