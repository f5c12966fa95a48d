"""Cross-run artifact comparison: the simulated-metric regression gate.

`repro compare A B` loads two artifact sets written by
:mod:`repro.obs.ledger` (directories or single files), pairs them by
``(workload, scheme)`` and reports per-workload IPC / weighted-speedup
deltas, the largest stall-mix share shifts, and the geomean of the
B/A total-IPC ratios.  With ``--check`` the CLI exits nonzero when the
geomean drops below ``1 - threshold%`` — the simulated-metric
counterpart of the wall-clock ``benchmarks/e2e/run.py --compare`` gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.harness.reporting import geomean
from repro.obs.ledger import load_artifacts

#: default allowed geomean total-IPC drop, percent.
DEFAULT_THRESHOLD_PCT = 2.0


@dataclass
class CellComparison:
    """One (workload, scheme) cell present in both artifact sets."""

    workload: str
    scheme: str
    ipc_a: float
    ipc_b: float
    ws_a: Optional[float]
    ws_b: Optional[float]
    #: reason -> share change in percentage points (B - A).
    stall_shifts: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc_ratio(self) -> float:
        return self.ipc_b / self.ipc_a if self.ipc_a else 0.0

    @property
    def ipc_delta_pct(self) -> float:
        return (self.ipc_ratio - 1.0) * 100.0 if self.ipc_a else 0.0

    def top_stall_shift(self) -> Optional[Tuple[str, float]]:
        if not self.stall_shifts:
            return None
        reason = max(self.stall_shifts,
                     key=lambda r: abs(self.stall_shifts[r]))
        return reason, self.stall_shifts[reason]


@dataclass
class Comparison:
    """Everything `repro compare` prints and gates on."""

    cells: List[CellComparison]
    only_a: List[Tuple[str, str]]
    only_b: List[Tuple[str, str]]

    def geomean_ratio(self) -> float:
        """Geomean of the per-cell B/A total-IPC ratios; a cell whose
        IPC collapsed to zero makes it 0.0 (raises with no cells)."""
        return geomean([cell.ipc_ratio for cell in self.cells])

    def regressed(self, threshold_pct: float = DEFAULT_THRESHOLD_PCT) -> bool:
        """True when the geomean total-IPC ratio drops more than the
        threshold (or no cells could be compared at all)."""
        if not self.cells:
            return True
        return self.geomean_ratio() < 1.0 - threshold_pct / 100.0


def _stall_shifts(a: Dict[str, object],
                  b: Dict[str, object]) -> Dict[str, float]:
    shares_a = a.get("stall_shares") or {}
    shares_b = b.get("stall_shares") or {}
    shifts: Dict[str, float] = {}
    for reason in sorted(set(shares_a) | set(shares_b)):
        delta = (shares_b.get(reason, 0.0) - shares_a.get(reason, 0.0)) * 100.0
        if abs(delta) > 1e-12:
            shifts[reason] = delta
    return shifts


def compare_paths(path_a: str, path_b: str) -> Comparison:
    """Load two artifact sets and pair them by (workload, scheme)."""
    set_a = load_artifacts(path_a)
    set_b = load_artifacts(path_b)
    cells: List[CellComparison] = []
    for key in sorted(set_a.keys() & set_b.keys()):
        a, b = set_a[key], set_b[key]
        cells.append(CellComparison(
            workload=key[0],
            scheme=key[1],
            ipc_a=float(a["metrics"].get("total_ipc", 0.0)),
            ipc_b=float(b["metrics"].get("total_ipc", 0.0)),
            ws_a=a["metrics"].get("weighted_speedup"),
            ws_b=b["metrics"].get("weighted_speedup"),
            stall_shifts=_stall_shifts(a, b),
        ))
    return Comparison(
        cells=cells,
        only_a=sorted(set_a.keys() - set_b.keys()),
        only_b=sorted(set_b.keys() - set_a.keys()),
    )


def format_comparison(comparison: Comparison,
                      threshold_pct: float = DEFAULT_THRESHOLD_PCT) -> str:
    """Human-readable diff table plus the geomean verdict line."""
    lines: List[str] = []
    header = (f"{'workload':<24} {'scheme':<12} {'ipc A':>9} {'ipc B':>9} "
              f"{'delta':>8}  top stall shift")
    lines.append(header)
    lines.append("-" * len(header))
    for cell in comparison.cells:
        shift = cell.top_stall_shift()
        shift_txt = (f"{shift[0]} {shift[1]:+.2f}pp" if shift else "-")
        lines.append(
            f"{cell.workload:<24} {cell.scheme:<12} "
            f"{cell.ipc_a:>9.4f} {cell.ipc_b:>9.4f} "
            f"{cell.ipc_delta_pct:>+7.2f}%  {shift_txt}")
    for key in comparison.only_a:
        lines.append(f"{key[0]:<24} {key[1]:<12} (only in A)")
    for key in comparison.only_b:
        lines.append(f"{key[0]:<24} {key[1]:<12} (only in B)")
    if comparison.cells:
        geomean = comparison.geomean_ratio()
        verdict = ("REGRESSION" if comparison.regressed(threshold_pct)
                   else "ok")
        lines.append("")
        lines.append(f"geomean total-IPC ratio B/A: {geomean:.4f} "
                     f"({(geomean - 1.0) * 100.0:+.2f}%, "
                     f"threshold -{threshold_pct:g}%) -> {verdict}")
    else:
        lines.append("")
        lines.append("no overlapping (workload, scheme) cells to compare")
    return "\n".join(lines)
