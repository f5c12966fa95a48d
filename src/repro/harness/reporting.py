"""Report rendering for the experiment harness.

Two layers live here:

* plain-text table/series formatters and :func:`geomean` — the
  paper's figures are bar/line charts; the renderers of the figure
  registry (:data:`repro.harness.experiments.FIGURES`) print their
  underlying rows/series with these helpers, and
  :func:`format_verdicts` prints an entry's paper-shape verdicts;
* the markdown report (:func:`build_report` / :func:`write_report`)
  behind ``python -m repro report out.md``: a loop over the registry.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

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
def build_report(runner, include_sweeps: bool = True) -> str:
    """Run every entry of the figure registry
    (:data:`repro.harness.experiments.FIGURES`) against ``runner`` and
    render one markdown document: each entry's table, then one ✓/✗
    line per paper-shape verdict.  ``include_sweeps=False`` skips the
    entries that run a workloads×schemes grid."""
    # Imported lazily: ``experiments`` imports this module at module
    # level, so a module-level import here would be circular.
    from repro.harness.experiments import FIGURES

    config, settings = runner.config, runner.settings
    out = ["# Reproduction campaign report\n",
           f"config: {config.num_sms} SMs, "
           f"{config.max_warps_per_sm} warps/SM, "
           f"L1D {config.l1d.size_bytes // 1024}KB/{config.l1d.mshrs} MSHRs, "
           f"scheduler {config.scheduler_policy.upper()}; "
           f"windows iso={settings.iso_cycles} "
           f"conc={settings.concurrent_cycles} cycles\n"]
    for figure in FIGURES:
        if figure.grid and not include_sweeps:
            continue
        data = figure.run(runner)
        out.append(f"## {figure.title}\n\n```\n{figure.render(data)}\n```\n")
        out.append(format_verdicts(figure.verdicts(data)) + "\n")
    return "\n".join(out)


def format_verdicts(verdicts: Sequence[Tuple[str, bool]]) -> str:
    """One ``- ✓ claim`` / ``- ✗ claim`` line per paper-shape verdict."""
    return "\n".join(f"- {'✓' if holds else '✗'} {claim}"
                     for claim, holds in verdicts)


def write_report(path: str, runner=None, include_sweeps: bool = True) -> str:
    """Build the report and write it to ``path``; returns the text."""
    if runner is None:
        from repro.harness.runner import ExperimentRunner
        runner = ExperimentRunner()
    text = build_report(runner, include_sweeps=include_sweeps)
    with open(path, "w") as fh:
        fh.write(text)
    return text
