"""repro — reproduction of "Accelerate GPU Concurrent Kernel Execution
by Mitigating Memory Pipeline Stalls" (Dai et al., HPCA 2018).

A cycle-level GPU simulator with intra-SM concurrent kernel execution
(CKE) plus the paper's mechanisms: balanced memory-request issuing
(RBMI/QBMI), memory instruction limiting (SMIL/DMIL), UCP L1D cache
partitioning, on top of Warped-Slicer / SMK / spatial-multitasking TB
partitioners.

Quickstart::

    from repro import scaled_config, SchemeConfig
    from repro.harness import run_pair

    cfg = scaled_config()
    outcome = run_pair("bp", "sv", SchemeConfig(mil="dmil"), cfg)
    print(outcome.scheme)  # ws:DMIL
"""

from repro._lazy import lazy_getattr
from repro.config import MAXWELL_CONFIG, CacheConfig, GPUConfig, scaled_config

#: names re-exported from the simulator packages, imported on first use.
__getattr__ = lazy_getattr(__name__, {
    "SchemeConfig": "repro.core.arbiter",
    "GPU": "repro.sim.engine",
    "KernelLaunch": "repro.sim.engine",
    "make_launches": "repro.sim.engine",
    "ALL_PROFILES": "repro.workloads",
    "get_profile": "repro.workloads",
})

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "GPUConfig",
    "MAXWELL_CONFIG",
    "scaled_config",
    "SchemeConfig",
    "GPU",
    "KernelLaunch",
    "make_launches",
    "ALL_PROFILES",
    "get_profile",
    "__version__",
]
