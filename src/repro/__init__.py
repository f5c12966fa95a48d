"""repro — reproduction of "Accelerate GPU Concurrent Kernel Execution
by Mitigating Memory Pipeline Stalls" (Dai et al., HPCA 2018).

A cycle-level GPU simulator with intra-SM concurrent kernel execution
(CKE) plus the paper's mechanisms: balanced memory-request issuing
(RBMI/QBMI), memory instruction limiting (SMIL/DMIL), UCP L1D cache
partitioning, on top of Warped-Slicer / SMK / spatial-multitasking TB
partitioners.

Quickstart::

    from repro.config import scaled_config
    from repro.core.arbiter import SchemeConfig
    from repro.harness.runner import run_pair

    cfg = scaled_config()
    outcome = run_pair("bp", "sv", SchemeConfig(mil="dmil"), cfg)
    print(outcome.scheme)  # ws:DMIL
"""
