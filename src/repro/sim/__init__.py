"""Cycle-level SM core model: warps, GTO/LRR schedulers, execution
units, the LSU memory pipeline, and the top-level GPU engine."""

from repro.sim.stats import KernelStats, RunResult
from repro.sim.warp import MemInst, ThreadBlock, Warp
from repro.sim.scheduler import WarpScheduler
from repro.sim.lsu import LoadStoreUnit
from repro.sim.sm import StreamingMultiprocessor
from repro.sim.engine import GPU, KernelLaunch

__all__ = [
    "KernelStats",
    "RunResult",
    "MemInst",
    "ThreadBlock",
    "Warp",
    "WarpScheduler",
    "LoadStoreUnit",
    "StreamingMultiprocessor",
    "GPU",
    "KernelLaunch",
]
