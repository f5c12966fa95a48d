"""The paper's primary contribution: balanced memory-request issuing
(BMI: RBMI/QBMI, §3.2), memory instruction limiting (MIL: SMIL/DMIL
with the MILG generator, §3.3), and the UCP L1D cache-partitioning
comparison point (§3.1)."""
