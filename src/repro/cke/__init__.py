"""Concurrent-kernel-execution policies: how thread blocks from
multiple kernels are partitioned across and within SMs.

* :mod:`repro.cke.partition` — feasibility rules and TB-partition data
  types shared by all policies.
* :mod:`repro.cke.warped_slicer` — Warped-Slicer [46]: scalability
  curves and sweet-spot selection.
* :mod:`repro.cke.smk` — SMK [45]: Dominant-Resource-Fairness static
  partition (SMK-P) and the warp-instruction quota (the "+W" part).
* :mod:`repro.cke.spatial` — spatial multitasking [2]: disjoint SM
  sets per kernel.
* :mod:`repro.cke.leftover` — the naive left-over policy (Hyper-Q
  style): first kernel takes what it wants, the second gets the rest.
"""

from repro._lazy import lazy_getattr

#: public name -> defining module, imported on first use: only
#: ``dynamic_ws`` runs the simulator, and only a ``dws`` cell needs it.
_EXPORTS = {
    **dict.fromkeys(("TBPartition", "even_partition", "feasible_partitions",
                     "fits_together", "max_feasible"),
                    "repro.cke.partition"),
    **dict.fromkeys(("ScalabilityCurve", "sweet_spot",
                     "theoretical_weighted_speedup"),
                    "repro.cke.warped_slicer"),
    **dict.fromkeys(("DynamicWarpedSlicer", "DynamicWSResult"),
                    "repro.cke.dynamic_ws"),
    **dict.fromkeys(("drf_partition", "smk_quotas"), "repro.cke.smk"),
    "spatial_masks": "repro.cke.spatial",
    "leftover_partition": "repro.cke.leftover",
}
__getattr__ = lazy_getattr(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
