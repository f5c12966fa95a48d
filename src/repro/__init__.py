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
_EXPORTS = {
    "SchemeConfig": "repro.core.arbiter",
    **dict.fromkeys(("GPU", "KernelLaunch", "make_launches"),
                    "repro.sim.engine"),
    **dict.fromkeys(("ALL_PROFILES", "get_profile"),
                    "repro.workloads.profiles"),
}
__getattr__ = lazy_getattr(__name__, _EXPORTS)

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "GPUConfig",
    "MAXWELL_CONFIG",
    "scaled_config",
    *_EXPORTS,
    "__version__",
]
