"""Multiprogramming metrics used throughout the paper's evaluation,
plus the §4.5 event-based energy model."""

from repro._lazy import lazy_getattr

#: public name -> defining module, imported on first use.
_EXPORTS = {
    **dict.fromkeys(("normalized_ipcs", "weighted_speedup", "antt",
                     "fairness"), "repro.metrics.speedup"),
    **dict.fromkeys(("EnergyModel", "EnergyReport", "energy_report"),
                    "repro.metrics.energy"),
}
__getattr__ = lazy_getattr(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
