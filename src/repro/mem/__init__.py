"""Memory hierarchy substrate: L1D/L2 caches with MSHRs and miss
queues (including the reservation-failure semantics the paper's DMIL
scheme keys on), a crossbar interconnect, and FR-FCFS-like DRAM
channels."""

from repro._lazy import lazy_getattr

#: public name -> defining module, imported on first use.
_EXPORTS = {
    "MSHRFile": "repro.mem.mshr",
    **dict.fromkeys(("AccessResult", "CacheStats", "SetAssocCache",
                     "L1DCache"), "repro.mem.cache"),
    "Interconnect": "repro.mem.interconnect",
    **dict.fromkeys(("DRAMChannel", "DRAMModel"), "repro.mem.dram"),
    **dict.fromkeys(("MemRequest", "MemorySubsystem"),
                    "repro.mem.subsystem"),
}
__getattr__ = lazy_getattr(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
