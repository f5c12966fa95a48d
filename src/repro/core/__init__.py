"""The paper's primary contribution: balanced memory-request issuing
(BMI: RBMI/QBMI, §3.2), memory instruction limiting (MIL: SMIL/DMIL
with the MILG generator, §3.3), and the UCP L1D cache-partitioning
comparison point (§3.1)."""

from repro._lazy import lazy_getattr

#: public name -> defining module, imported on first use: the scheme
#: grammar needs ``arbiter.SchemeConfig``, not the mechanisms it builds.
_EXPORTS = {
    **dict.fromkeys(("MemIssuePolicy", "UnmanagedIssue", "RoundRobinBMI",
                     "QuotaBMI", "ReqPerMinstEstimator", "compute_quotas"),
                    "repro.core.bmi"),
    **dict.fromkeys(("MILG", "MemInstLimiter", "NoLimit", "StaticLimiter",
                     "DynamicLimiter"), "repro.core.mil"),
    **dict.fromkeys(("ShadowTagArray", "UCPController",
                     "lookahead_partition"), "repro.core.cache_partition"),
    **dict.fromkeys(("SchemeBundle", "SchemeConfig", "SMKQuotaGate"),
                    "repro.core.arbiter"),
}
__getattr__ = lazy_getattr(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
