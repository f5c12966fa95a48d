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
    from repro.harness.runner import ExperimentRunner
    from repro.workloads.mixes import mix

    cfg = scaled_config()
    outcome = ExperimentRunner(cfg).run_mix_with_stack(
        mix("bp", "sv"), SchemeConfig(mil="dmil"))
    print(outcome.scheme)  # ws:DMIL
"""
