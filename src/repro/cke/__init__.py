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
