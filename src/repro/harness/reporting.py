"""Report rendering for the experiment harness.

Two layers live here (consolidated from the former near-duplicate
``harness/report.py``):

* plain-text table/series formatters used by the experiment drivers —
  the paper's figures are bar/line charts; the drivers regenerate the
  underlying rows/series and these helpers render them the way the
  benches and ``EXPERIMENTS.md`` present them;
* the full-campaign markdown report generator (:func:`build_report` /
  :func:`write_report`) behind ``python -m repro report out.md``.
"""

from __future__ import annotations

import io
from typing import Dict, List, Sequence, Union

Number = Union[int, float]


def _fmt(value, width: int, precision: int) -> str:
    if isinstance(value, float):
        return f"{value:>{width}.{precision}f}"
    return f"{value!s:>{width}}"


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 precision: int = 3) -> str:
    """Fixed-width text table."""
    widths = [len(h) for h in headers]
    rendered: List[List[str]] = []
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        cells = []
        for i, cell in enumerate(row):
            text = _fmt(cell, widths[i], precision).strip()
            widths[i] = max(widths[i], len(text))
            cells.append(text)
        rendered.append(cells)
    lines = ["  ".join(h.rjust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * w for w in widths))
    for cells in rendered:
        lines.append("  ".join(c.rjust(widths[i]) for i, c in enumerate(cells)))
    return "\n".join(lines)


def format_series(series: Dict[str, Sequence[Number]], precision: int = 2,
                  max_points: int = 40) -> str:
    """Render named numeric series (timeline/curve data) compactly."""
    lines = []
    for name, values in series.items():
        vals = list(values)
        if len(vals) > max_points:
            step = len(vals) / max_points
            vals = [vals[int(i * step)] for i in range(max_points)]
        body = " ".join(f"{v:.{precision}f}" if isinstance(v, float) else str(v)
                        for v in vals)
        lines.append(f"{name}: {body}")
    return "\n".join(lines)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (the paper averages weighted speedups this way).

    A zero factor makes the mean 0.0: a fully starved cell pulls its
    class mean down instead of dropping out of it.  Negative or empty
    input raises ``ValueError``.  Imports nothing of the simulator, so
    ``repro compare`` can share it."""
    vals = list(values)
    if not vals:
        raise ValueError("geomean needs at least one value")
    if any(v < 0 for v in vals):
        raise ValueError("geomean needs non-negative values")
    if 0 in vals:
        return 0.0
    product = 1.0
    for v in vals:
        product *= v
    return product ** (1.0 / len(vals))


# ----------------------------------------------------------------------
# full-campaign markdown report (``python -m repro report out.md``)
def _scheme_metric_table(sweep, schemes, metric: str) -> str:
    classes = [*sweep.classes(), None]
    labels = [c or "ALL" for c in classes]
    rows = [[scheme] + [sweep.mean_metric(scheme, metric, cls)
                        for cls in classes]
            for scheme in schemes]
    return format_table(["scheme", *labels], rows, precision=3)


def build_report(runner, include_sweeps: bool = True) -> str:
    """Run every experiment driver against ``runner`` and render one
    markdown document — the programmatic counterpart of
    ``EXPERIMENTS.md`` (which records one such campaign)."""
    # Imported lazily: the experiment drivers import the runner module,
    # which this module must not depend on at import time (both are
    # pulled in by ``harness/__init__``).
    from repro.harness import experiments as ex

    out = io.StringIO()
    w = out.write

    w("# Reproduction campaign report\n\n")
    w(f"config: {runner.config.num_sms} SMs, "
      f"{runner.config.max_warps_per_sm} warps/SM, "
      f"L1D {runner.config.l1d.size_bytes // 1024}KB/"
      f"{runner.config.l1d.mshrs} MSHRs, "
      f"scheduler {runner.config.scheduler_policy.upper()}; "
      f"windows iso={runner.settings.iso_cycles} "
      f"conc={runner.settings.concurrent_cycles} cycles\n\n")

    w("## Table 2 — workload characterisation\n\n```\n")
    rows = ex.table2_characteristics(runner)
    classes = ex.classify_measured(rows)
    w(format_table(
        ["bench", "miss", "miss(paper)", "rsfail", "rsfail(paper)",
         "lsu_stall", "type", "type(paper)"],
        [[r["name"], r["l1d_miss_rate"], r["paper"]["l1d_miss_rate"],
          r["l1d_rsfail_rate"], r["paper"]["l1d_rsfail_rate"],
          r["lsu_stall_pct"], classes[str(r["name"])], r["paper"]["type"]]
         for r in rows], precision=2))
    w("\n```\n\n")

    w("## Figure 3 — sweet spot (bp+sv)\n\n```\n")
    spot = ex.figure3_sweet_spot(runner)
    w(format_series({k: v for k, v in spot.curves.items()}))
    w(f"\nsweet spot: {spot.partition}, theoretical WS "
      f"{spot.theoretical_ws:.2f}\n```\n\n")

    w("## Figure 4 — theoretical vs achieved\n\n```\n")
    gaps = ex.figure4_gap(runner)
    w(format_table(["mix", "class", "theoretical", "achieved"],
                   [[g.mix_name, g.mix_class, g.theoretical, g.achieved]
                    for g in gaps], precision=2))
    w("\n```\n\n")

    if include_sweeps:
        w("## Figure 12 — main result (Warped-Slicer)\n\n")
        sweep = ex.figure12_main(runner)
        for metric in ("weighted_speedup", "antt", "fairness"):
            w(f"### {metric}\n\n```\n")
            w(_scheme_metric_table(sweep, ex.WS_SCHEMES, metric))
            w("\n```\n\n")

        w("## Figure 13 — main result (SMK)\n\n")
        smk = ex.figure13_smk(runner)
        for metric in ("weighted_speedup", "antt"):
            w(f"### {metric}\n\n```\n")
            w(_scheme_metric_table(smk, ex.SMK_SCHEMES, metric))
            w("\n```\n\n")

    w("## §4.4 — hardware overhead\n\n```\n")
    cost = ex.hardware_overhead()
    w(format_table(["component", "bits"],
                   [[k, v] for k, v in cost.items() if k != "detail"]))
    w("\n```\n")
    return out.getvalue()


def write_report(path: str, runner=None, include_sweeps: bool = True) -> str:
    """Build the report and write it to ``path``; returns the text."""
    if runner is None:
        from repro.harness.runner import ExperimentRunner
        runner = ExperimentRunner()
    text = build_report(runner, include_sweeps=include_sweeps)
    with open(path, "w") as fh:
        fh.write(text)
    return text
