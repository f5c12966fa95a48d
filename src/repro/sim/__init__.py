"""Cycle-level SM core model: warps, GTO/LRR schedulers, execution
units, the LSU memory pipeline, and the top-level GPU engine."""

from repro._lazy import lazy_getattr

#: public name -> defining module, imported on first use: unpickling a
#: ``RunResult`` needs ``stats``, not the cycle model beside it.
_EXPORTS = {
    **dict.fromkeys(("KernelStats", "RunResult"), "repro.sim.stats"),
    **dict.fromkeys(("MemInst", "ThreadBlock", "Warp"), "repro.sim.warp"),
    "WarpScheduler": "repro.sim.scheduler",
    "LoadStoreUnit": "repro.sim.lsu",
    "StreamingMultiprocessor": "repro.sim.sm",
    **dict.fromkeys(("GPU", "KernelLaunch"), "repro.sim.engine"),
}
__getattr__ = lazy_getattr(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
