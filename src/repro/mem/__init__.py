"""Memory hierarchy substrate: L1D/L2 caches with MSHRs and miss
queues (including the reservation-failure semantics the paper's DMIL
scheme keys on), a crossbar interconnect, and FR-FCFS-like DRAM
channels."""
