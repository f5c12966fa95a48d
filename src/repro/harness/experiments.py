"""The paper's evaluation as one registry, :data:`FIGURES` (see
DESIGN.md §4).

Each :class:`Figure` is one table, figure or study: its driver, one
renderer and its paper-shape verdicts.  ``repro report``
(:func:`repro.harness.reporting.build_report`) and the one figure bench
(``benchmarks/bench_figures.py``) both run the registry, so every table
is formatted in exactly one place and every claim is checked the same
way wherever it is printed.

Every driver takes an :class:`~repro.harness.runner.ExperimentRunner`
(so isolated-profiling runs are shared and cached across drivers) and
returns plain data structures.  Cycle budgets scale through the
runner's settings, so the same drivers serve the tier-1 report test,
the quick report, the benches and longer campaigns.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cke.warped_slicer import sweet_spot, theoretical_weighted_speedup
from repro.config import MAXWELL_CONFIG, GPUConfig
from repro.core.arbiter import SchemeConfig
from repro.core.bmi import QuotaBMI
from repro.core.mil import MILG
from repro.harness.reporting import format_series, format_table, geomean
from repro.harness.runner import ExperimentRunner, WorkloadOutcome
from repro.metrics.energy import energy_report
from repro.obs.collector import ObsOptions
from repro.workloads.mixes import (
    WorkloadMix,
    mix,
    paper_pairs,
    representative_pairs,
    representative_triples,
)
from repro.workloads.profiles import ALL_PROFILES

#: scheme sets used by the main-result figures.
WS_SCHEMES = ("spatial", "ws", "ws-qbmi", "ws-dmil")
SMK_SCHEMES = ("smk-p+w", "smk-p+qbmi", "smk-p+dmil")
#: the schemes of Fig. 14, the §4.3 studies and the §4.5 energy study.
BMI_MIL_SCHEMES = ("ws", "ws-qbmi", "ws-dmil")

Verdicts = List[Tuple[str, bool]]


@dataclass(frozen=True)
class Figure:
    """One paper table, figure or study.

    ``run(runner)`` measures it, ``render(data)`` prints it and
    ``verdicts(data)`` lists its paper-shape claims as ``(claim,
    holds)``.  ``grid`` marks an entry that runs a workloads×schemes
    grid (:func:`scheme_sweep`), which ``repro report --quick`` skips.
    """

    key: str
    title: str
    run: Callable[[ExperimentRunner], Any]
    render: Callable[[Any], str]
    verdicts: Callable[[Any], Verdicts]
    grid: bool = False


# ----------------------------------------------------------------------
# Table 1 — baseline architecture configuration
def table1_config(runner: ExperimentRunner) -> Tuple[GPUConfig, GPUConfig]:
    """The paper's Table 1 machine next to the runner's machine."""
    return MAXWELL_CONFIG, runner.config


_TABLE1_FIELDS = (
    ("# SMs", "num_sms"), ("warp size", "warp_size"),
    ("schedulers/SM", "schedulers_per_sm"),
    ("threads/SM", "max_threads_per_sm"), ("warps/SM", "max_warps_per_sm"),
    ("TBs/SM", "max_tbs_per_sm"), ("L1D bytes", "l1d.size_bytes"),
    ("L1D assoc", "l1d.assoc"), ("L1D MSHRs", "l1d.mshrs"),
    ("L2 bytes", "l2.size_bytes"), ("DRAM channels", "dram_channels"),
)


def _render_table1(data) -> str:
    paper, scaled = data
    return format_table(["parameter", "paper", "scaled"],
                        [[label, attrgetter(name)(paper),
                          attrgetter(name)(scaled)]
                         for label, name in _TABLE1_FIELDS])


def _verdicts_table1(data) -> Verdicts:
    paper, scaled = data
    paper_ratio = paper.l1d.mshrs / paper.max_warps_per_sm
    scaled_ratio = scaled.l1d.mshrs / scaled.max_warps_per_sm
    return [
        ("Table 1: 16 SMs, 128 L1D MSHRs",
         paper.num_sms == 16 and paper.l1d.mshrs == 128),
        ("Table 1: 24KB 6-way L1D",
         paper.l1d.size_bytes == 24 * 1024 and paper.l1d.assoc == 6),
        ("Table 1: 2MB L2", paper.l2.size_bytes == 2 * 1024 * 1024),
        ("scaled warps/SM divide evenly over the schedulers",
         scaled.max_warps_per_sm % scaled.schedulers_per_sm == 0),
        ("scaled MSHRs per warp within 0.5x-4x of Table 1",
         0.5 < scaled_ratio / paper_ratio < 4),
    ]


# ----------------------------------------------------------------------
# Table 2 / Figure 2 — workload characterisation
def table2_characteristics(runner: ExperimentRunner) -> List[Dict[str, object]]:
    """Per-benchmark characteristics (paper Table 2), measured on the
    scaled machine, with the paper's reference values alongside."""
    rows = []
    for profile in ALL_PROFILES:
        iso = runner.isolated(profile)
        occ = profile.occupancy(runner.config)
        rows.append({
            "name": profile.name,
            "application": profile.full_name, "suite": profile.suite,
            "rf_oc": occ["rf"], "smem_oc": occ["smem"],
            "thread_oc": occ["threads"], "tb_oc": occ["tbs"],
            "cinst_per_minst": profile.cinst_per_minst,
            "req_per_minst": profile.reqs_per_minst,
            "ipc": iso.ipc,
            "l1d_miss_rate": iso.l1d_miss_rate,
            "l1d_rsfail_rate": iso.l1d_rsfail_rate,
            "lsu_stall_pct": iso.lsu_stall_pct,
            "type": profile.kind,
            "paper": profile.paper,
        })
    return rows


def classify_measured(rows: Sequence[Dict[str, object]],
                      stall_threshold: float = 0.20) -> Dict[str, str]:
    """The paper's classification rule: >20% LSU stall cycles ⇒
    memory-intensive.  On the scaled machine the same rule separates
    the classes (C kernels sit well below, M kernels well above)."""
    return {str(r["name"]): ("M" if float(r["lsu_stall_pct"]) > stall_threshold
                             else "C")
            for r in rows}


def _class_mismatches(rows) -> List[object]:
    classes = classify_measured(rows)
    return [r["name"] for r in rows
            if classes[str(r["name"])] != r["paper"]["type"]]


def _render_table2(rows) -> str:
    classes = classify_measured(rows)
    table = format_table(
        ["bench", "application", "suite", "rf", "smem", "thr", "tb",
         "C/M inst", "Req/M", "IPC", "miss", "miss(paper)", "rsfail",
         "rsfail(paper)", "lsu_stall", "type", "type(paper)"],
        [[r["name"], r["application"], r["suite"], r["rf_oc"], r["smem_oc"],
          r["thread_oc"], r["tb_oc"], r["cinst_per_minst"], r["req_per_minst"], r["ipc"],
          r["l1d_miss_rate"], r["paper"]["l1d_miss_rate"],
          r["l1d_rsfail_rate"], r["paper"]["l1d_rsfail_rate"],
          r["lsu_stall_pct"], classes[str(r["name"])], r["paper"]["type"]]
         for r in rows],
        precision=2)
    return (f"{table}\nclassification mismatches vs paper: "
            f"{_class_mismatches(rows) or 'none'}")


def _verdicts_table2(rows) -> Verdicts:
    return [("measured C/M classification matches the paper for every "
             "kernel", not _class_mismatches(rows))]


def figure2_utilization(runner: ExperimentRunner) -> List[Dict[str, float]]:
    """ALU/SFU utilization and LSU stall fraction per benchmark,
    sorted by decreasing ALU utilization (paper Figure 2)."""
    rows = []
    for profile in ALL_PROFILES:
        iso = runner.isolated(profile)
        rows.append({
            "name": profile.name,
            "alu_utilization": iso.alu_utilization,
            "sfu_utilization": iso.sfu_utilization,
            "lsu_stall_pct": iso.lsu_stall_pct,
        })
    rows.sort(key=lambda r: -float(r["alu_utilization"]))
    return rows


def _stall_halves(rows) -> Tuple[float, float]:
    """Mean LSU stall of the top and bottom halves by ALU utilization."""
    half = len(rows) // 2
    top = sum(float(r["lsu_stall_pct"]) for r in rows[:half]) / half
    bottom = (sum(float(r["lsu_stall_pct"]) for r in rows[half:])
              / (len(rows) - half))
    return top, bottom


def _render_fig2(rows) -> str:
    top, bottom = _stall_halves(rows)
    table = format_table(
        ["bench", "ALU_util", "SFU_util", "LSU_stall"],
        [[r["name"], r["alu_utilization"], r["sfu_utilization"],
          r["lsu_stall_pct"]] for r in rows],
        precision=2)
    return (f"{table}\nmean LSU stall: top-util half {top:.2f} vs bottom "
            f"half {bottom:.2f}")


def _verdicts_fig2(rows) -> Verdicts:
    top, bottom = _stall_halves(rows)
    return [("the top half by ALU utilization stalls less on the LSU than "
             "the bottom half", top < bottom)]


# ----------------------------------------------------------------------
# Figure 3 — scalability curves and the sweet spot
@dataclass
class SweetSpotResult:
    pair: str
    curves: Dict[str, Tuple[float, ...]]
    partition: Tuple[int, ...]
    theoretical_ws: float


def figure3_sweet_spot(runner: ExperimentRunner, a: str = "bp",
                       b: str = "sv") -> SweetSpotResult:
    m = mix(a, b)
    profiles = list(m.profiles)
    curves = [runner.curve(p) for p in profiles]
    partition = sweet_spot(profiles, curves, runner.config)
    return SweetSpotResult(
        pair=m.name,
        curves={c.kernel: c.ipc_by_tbs for c in curves},
        partition=tuple(partition),
        theoretical_ws=theoretical_weighted_speedup(curves, partition),
    )


def _render_fig3(res) -> str:
    return "\n".join([
        format_series(res.curves),
        f"sweet spot (TBs bp, sv): {res.partition}",
        f"theoretical weighted speedup at sweet spot: {res.theoretical_ws:.2f}",
    ])


def _verdicts_fig3(res) -> Verdicts:
    bp, sv = res.curves["bp"], res.curves["sv"]
    peak = max(range(len(sv)), key=lambda i: sv[i])
    return [
        ("bp rises with more TBs", bp[1] > bp[0]),
        ("sv peaks before max occupancy", peak < len(sv) - 1),
        ("the sweet spot gives every kernel a TB",
         all(t >= 1 for t in res.partition)),
    ]


# ----------------------------------------------------------------------
# Figure 4 — theoretical vs achieved weighted speedup
@dataclass
class GapRow:
    mix_name: str
    mix_class: str
    theoretical: float
    achieved: float


def figure4_gap(runner: ExperimentRunner,
                pairs: Optional[Sequence[WorkloadMix]] = None,
                cycles: Optional[int] = None) -> List[GapRow]:
    pairs = list(pairs) if pairs is not None else representative_pairs(3)
    rows = []
    for m in pairs:
        profiles = list(m.profiles)
        curves = [runner.curve(p) for p in profiles]
        partition = sweet_spot(profiles, curves, runner.config)
        theo = theoretical_weighted_speedup(curves, partition)
        outcome = runner.run_mix(m, "ws", cycles=cycles)
        rows.append(GapRow(m.name, m.mix_class, theo, outcome.weighted_speedup))
    return rows


def gap_by_class(rows: Sequence[GapRow]) -> Dict[str, Tuple[float, float]]:
    """Geometric means per class (paper Figure 4 bars)."""
    classes: Dict[str, List[GapRow]] = {}
    for row in rows:
        classes.setdefault(row.mix_class, []).append(row)
    classes["ALL"] = list(rows)
    return {
        cls: (geomean([r.theoretical for r in rs]),
              geomean([r.achieved for r in rs]))
        for cls, rs in classes.items()
    }


def _render_fig4(rows) -> str:
    per_mix = format_table(
        ["mix", "class", "theoretical", "achieved", "achieved/theoretical"],
        [[r.mix_name, r.mix_class, r.theoretical, r.achieved,
          r.achieved / r.theoretical] for r in rows],
        precision=2)
    per_class = format_table(
        ["class", "theoretical", "achieved"],
        [[cls, theo, ach] for cls, (theo, ach) in gap_by_class(rows).items()],
        precision=2)
    return f"{per_mix}\n{per_class}"


def _verdicts_fig4(rows) -> Verdicts:
    ratios = {cls: ach / theo
              for cls, (theo, ach) in gap_by_class(rows).items()}
    return [
        ("on average achieved falls short of theoretical", ratios["ALL"] < 1.0),
        ("C+C is the closest class (within 0.05)",
         ratios["C+C"] >= max(ratios["C+M"], ratios["M+M"]) - 0.05),
    ]


# ----------------------------------------------------------------------
# generic scheme-comparison sweeps (Figures 5, 11, 12, 13, 14, §4.3)
@dataclass
class SchemeSweep:
    """Outcomes for a set of workloads × a set of schemes."""

    schemes: Tuple[str, ...]
    outcomes: Dict[str, Dict[str, WorkloadOutcome]] = field(default_factory=dict)

    def add(self, outcome: WorkloadOutcome) -> None:
        self.outcomes.setdefault(outcome.mix_name, {})[outcome.scheme] = outcome

    def mixes(self) -> List[str]:
        return list(self.outcomes)

    def outcome(self, mix_name: str, scheme: str) -> WorkloadOutcome:
        return self.outcomes[mix_name][scheme]

    def class_of(self, mix_name: str) -> str:
        return next(iter(self.outcomes[mix_name].values())).mix_class

    def classes(self) -> List[str]:
        seen: List[str] = []
        for name in self.outcomes:
            cls = self.class_of(name)
            if cls not in seen:
                seen.append(cls)
        return seen

    def mean_metric(self, scheme: str, metric: str,
                    mix_class: Optional[str] = None) -> float:
        values = [getattr(per_mix[scheme], metric)
                  for name, per_mix in self.outcomes.items()
                  if mix_class is None or self.class_of(name) == mix_class]
        return geomean(values)

    def improvement(self, scheme: str, baseline: str,
                    metric: str = "weighted_speedup") -> float:
        """Mean relative improvement of ``scheme`` over ``baseline``."""
        return (self.mean_metric(scheme, metric)
                / self.mean_metric(baseline, metric) - 1.0)


def scheme_sweep(runner: ExperimentRunner, schemes: Sequence[str],
                 workloads: Sequence[WorkloadMix],
                 cycles: Optional[int] = None,
                 policy=None, resume: bool = False) -> SchemeSweep:
    """The workloads×schemes grid behind every scheme-comparison
    figure, fanned over worker processes when the host allows (the
    worker count resolves from ``$REPRO_BENCH_WORKERS``/CPU count; one
    worker runs in-process).  Outcomes are bit-identical to serial
    execution either way.

    By default the grid runs under the plain policy: the first failing
    cell raises.  With a ``policy`` (a
    :class:`~repro.harness.resilience.ResiliencePolicy`) or
    ``resume=True``, crashed/hung cells are retried then quarantined
    instead of stranding the sweep, completed cells checkpoint to the
    journal, and ``resume`` re-runs only the unfinished remainder.
    Quarantined cells are simply absent from the sweep (their metrics
    never existed), so downstream geomeans stay well-defined."""
    from repro.harness.resilience import PLAIN, Quarantined
    if policy is None and not resume:
        policy = PLAIN
    sweep = SchemeSweep(tuple(schemes))
    outcomes, _report = runner.run_campaign_resilient(
        list(workloads), list(schemes), policy=policy, cycles=cycles,
        resume=resume)
    for outcome in outcomes:
        if not isinstance(outcome, Quarantined):
            sweep.add(outcome)
    return sweep


def _class_means(sweep: SchemeSweep, metric: str) -> str:
    """One row per scheme: the metric's geomean per class and overall."""
    classes = [*sweep.classes(), None]
    return format_table(
        ["scheme", *[c or "ALL" for c in classes]],
        [[scheme] + [sweep.mean_metric(scheme, metric, cls) for cls in classes]
         for scheme in sweep.schemes],
        precision=3)


def _rate_row(result) -> List[float]:
    """Per-kernel L1D miss and rsfail rates of a two-kernel run."""
    return [result.l1d_miss_rate(0), result.l1d_miss_rate(1),
            result.l1d_rsfail_rate(0), result.l1d_rsfail_rate(1)]


def figure5_cache_partitioning(runner: ExperimentRunner,
                               cycles: Optional[int] = None) -> SchemeSweep:
    """WS vs WS + UCP L1D partitioning on the six case-study pairs."""
    return scheme_sweep(runner, ("ws", "ws-ucp"), paper_pairs(), cycles)


def _render_fig5(sweep) -> str:
    rows = []
    for name in sweep.mixes():
        base, ucp = sweep.outcome(name, "ws"), sweep.outcome(name, "ws-ucp")
        row = [name, sweep.class_of(name), base.weighted_speedup,
               ucp.weighted_speedup]
        for pair in zip(_rate_row(base.result), _rate_row(ucp.result)):
            row.extend(pair)
        rows.append(row)
    table = format_table(
        ["mix", "class", "WS", "WS-L1DPart",
         "miss_k0", "miss_k0'", "miss_k1", "miss_k1'",
         "rsf_k0", "rsf_k0'", "rsf_k1", "rsf_k1'"],
        rows, precision=2)
    return (f"{table}\ngeomean weighted speedup: "
            f"WS {sweep.mean_metric('ws', 'weighted_speedup'):.3f}  "
            f"WS-L1DPartition {sweep.mean_metric('ws-ucp', 'weighted_speedup'):.3f}")


def _verdicts_fig5(sweep) -> Verdicts:
    return [("UCP partitioning gives no average weighted-speedup gain "
             "(within 3%)",
             sweep.mean_metric("ws-ucp", "weighted_speedup")
             <= sweep.mean_metric("ws", "weighted_speedup") * 1.03)]


def figure11_qbmi_vs_dmil(runner: ExperimentRunner,
                          cycles: Optional[int] = None) -> SchemeSweep:
    return scheme_sweep(runner, ("ws-qbmi", "ws-dmil", "ws-qbmi+dmil"),
                        paper_pairs(), cycles)


def _render_fig11(sweep) -> str:
    schemes = sweep.schemes
    speedups = format_table(
        ["mix", "class", *schemes],
        [[name, sweep.class_of(name)]
         + [sweep.outcome(name, s).weighted_speedup for s in schemes]
         for name in sweep.mixes()],
        precision=2)
    rates = format_table(
        ["mix", "scheme", "miss_k0", "miss_k1", "rsfail_k0", "rsfail_k1"],
        [[name, s, *_rate_row(sweep.outcome(name, s).result)]
         for name in sweep.mixes() for s in schemes],
        precision=2)
    means = [f"geomean WS {s}: {sweep.mean_metric(s, 'weighted_speedup'):.3f}  "
             f"ANTT: {sweep.mean_metric(s, 'antt'):.3f}" for s in schemes]
    return "\n".join(["(a) weighted speedup", speedups, "",
                      "(b,c) L1D miss and rsfail rates", rates, *means])


def _verdicts_fig11(sweep) -> Verdicts:
    cc = [sweep.mean_metric(s, "weighted_speedup", "C+C")
          for s in sweep.schemes]
    dmil = sweep.mean_metric("ws-dmil", "weighted_speedup")
    both = sweep.mean_metric("ws-qbmi+dmil", "weighted_speedup")
    return [
        ("C+C: all three schemes within 10% of each other",
         max(cc) / min(cc) < 1.1),
        ("QBMI+DMIL is within 15% of DMIL alone (§3.4)",
         abs(both - dmil) / dmil < 0.15),
    ]


def figure12_main(runner: ExperimentRunner,
                  pairs: Optional[Sequence[WorkloadMix]] = None,
                  cycles: Optional[int] = None) -> SchemeSweep:
    pairs = list(pairs) if pairs is not None else representative_pairs(3)
    return scheme_sweep(runner, WS_SCHEMES, pairs, cycles)


def _mean_result_metric(sweep: SchemeSweep, scheme: str, fn) -> float:
    """Arithmetic mean of ``fn(result)`` over every mix of the sweep."""
    values = [fn(sweep.outcome(name, scheme).result) for name in sweep.mixes()]
    return sum(values) / len(values)


def _render_fig12(sweep) -> str:
    parts = []
    for metric, better in (("weighted_speedup", "higher"),
                           ("antt", "lower"), ("fairness", "higher")):
        parts += [f"{metric} ({better} is better)",
                  _class_means(sweep, metric), ""]
    stats = format_table(
        ["scheme", "l1d_miss", "l1d_rsfail", "lsu_stall", "compute_util"],
        [[scheme,
          _mean_result_metric(sweep, scheme, lambda r: (
              r.l1d_miss_rate(0) + r.l1d_miss_rate(1)) / 2),
          _mean_result_metric(sweep, scheme, lambda r: (
              r.l1d_rsfail_rate(0) + r.l1d_rsfail_rate(1)) / 2),
          _mean_result_metric(sweep, scheme, lambda r: r.lsu_stall_pct()),
          _mean_result_metric(sweep, scheme,
                              lambda r: r.compute_utilization())]
         for scheme in sweep.schemes],
        precision=3)
    ws_antt = sweep.mean_metric("ws", "antt")
    parts += [
        "(d-g) machine statistics (means over all pairs)", stats, "",
        f"ANTT improvement over WS: "
        f"QBMI {ws_antt / sweep.mean_metric('ws-qbmi', 'antt') - 1:+.1%}, "
        f"DMIL {ws_antt / sweep.mean_metric('ws-dmil', 'antt') - 1:+.1%}",
        f"Fairness improvement over WS: "
        f"QBMI {sweep.improvement('ws-qbmi', 'ws', 'fairness'):+.1%}, "
        f"DMIL {sweep.improvement('ws-dmil', 'ws', 'fairness'):+.1%}",
        f"Weighted-speedup change over WS: "
        f"QBMI {sweep.improvement('ws-qbmi', 'ws'):+.1%}, "
        f"DMIL {sweep.improvement('ws-dmil', 'ws'):+.1%}",
    ]
    return "\n".join(parts)


def _verdicts_fig12(sweep) -> Verdicts:
    ws_antt = sweep.mean_metric("ws", "antt")
    return [
        ("QBMI must not worsen turnaround (ANTT within 2% of WS)",
         sweep.mean_metric("ws-qbmi", "antt") < ws_antt * 1.02),
        ("DMIL improves average turnaround",
         sweep.mean_metric("ws-dmil", "antt") < ws_antt),
        ("DMIL improves fairness",
         sweep.mean_metric("ws-dmil", "fairness")
         > sweep.mean_metric("ws", "fairness")),
        ("intra-SM sharing beats spatial multitasking on C+C (§4.1.1)",
         sweep.mean_metric("ws", "weighted_speedup", "C+C")
         > sweep.mean_metric("spatial", "weighted_speedup", "C+C")),
    ]


def figure13_smk(runner: ExperimentRunner,
                 pairs: Optional[Sequence[WorkloadMix]] = None,
                 cycles: Optional[int] = None) -> SchemeSweep:
    pairs = list(pairs) if pairs is not None else representative_pairs(3)
    return scheme_sweep(runner, SMK_SCHEMES, pairs, cycles)


def _render_fig13(sweep) -> str:
    base = sweep.mean_metric("smk-p+w", "weighted_speedup")
    qbmi = sweep.mean_metric("smk-p+qbmi", "weighted_speedup")
    dmil = sweep.mean_metric("smk-p+dmil", "weighted_speedup")
    return "\n".join([
        "weighted_speedup", _class_means(sweep, "weighted_speedup"), "",
        "antt", _class_means(sweep, "antt"), "",
        f"weighted-speedup change over SMK-(P+W): "
        f"QBMI {qbmi / base - 1:+.1%}, DMIL {dmil / base - 1:+.1%}"])


def _verdicts_fig13(sweep) -> Verdicts:
    return [("SMK-(P+DMIL) beats SMK-(P+W) on average",
             sweep.mean_metric("smk-p+dmil", "weighted_speedup")
             > sweep.mean_metric("smk-p+w", "weighted_speedup"))]


def figure14_three_kernels(runner: ExperimentRunner,
                           cycles: Optional[int] = None) -> SchemeSweep:
    return scheme_sweep(runner, BMI_MIL_SCHEMES, representative_triples(),
                        cycles)


def _m_antt_sums(sweep) -> Tuple[float, float]:
    """Summed ANTT over the M-containing mixes: (ws, ws-dmil)."""
    mixed = [name for name in sweep.mixes() if "M" in sweep.class_of(name)]
    return (sum(sweep.outcome(n, "ws").antt for n in mixed),
            sum(sweep.outcome(n, "ws-dmil").antt for n in mixed))


def _render_fig14(sweep) -> str:
    rows = []
    for name in sweep.mixes():
        for scheme in sweep.schemes:
            out = sweep.outcome(name, scheme)
            rows.append([name, out.mix_class, scheme, out.weighted_speedup,
                         out.antt, out.fairness])
    table = format_table(["mix", "class", "scheme", "WS", "ANTT", "fairness"],
                         rows, precision=3)
    means = [f"geomean {s}: WS {sweep.mean_metric(s, 'weighted_speedup'):.3f} "
             f"ANTT {sweep.mean_metric(s, 'antt'):.3f}" for s in sweep.schemes]
    base, dmil = _m_antt_sums(sweep)
    return "\n".join([table, *means,
                      f"sum ANTT over M-containing mixes: ws {base:.2f} -> "
                      f"dmil {dmil:.2f}"])


def _verdicts_fig14(sweep) -> Verdicts:
    base, dmil = _m_antt_sums(sweep)
    return [("M-containing 3-kernel mixes keep DMIL's turnaround (summed "
             "ANTT within 5% of WS)", dmil < base * 1.05)]


# ----------------------------------------------------------------------
# Figures 6 and 8 — timelines
def _phase_series(result, name: str, kernel: int) -> List[int]:
    """One per-kernel series of a phase-sampled run's record."""
    return result.obs.phases[0]["series"][f"k{kernel}.{name}"]


def figure6_timelines(runner: ExperimentRunner, a: str = "bp", b: str = "sv",
                      interval: int = 1000,
                      cycles: Optional[int] = None) -> Dict[str, List[int]]:
    """L1D requests per interval: each kernel alone, then concurrent."""
    obs = ObsOptions(phase=True, phase_interval=interval)
    pa, pb = mix(a, b).profiles
    iso_a = runner.isolated_result(pa, cycles=cycles, obs=obs)
    iso_b = runner.isolated_result(pb, cycles=cycles, obs=obs)
    shared = runner.run_mix(mix(a, b), "ws", cycles=cycles, obs=obs).result
    return {
        f"{a}_alone": _phase_series(iso_a, "mem_requests", 0),
        f"{b}_alone": _phase_series(iso_b, "mem_requests", 0),
        f"{a}_shared": _phase_series(shared, "mem_requests", 0),
        f"{b}_shared": _phase_series(shared, "mem_requests", 1),
    }


def _steady(values) -> float:
    """Mean after the two warm-up intervals."""
    tail = values[2:] or values
    return sum(tail) / len(tail)


def _render_fig6(series) -> str:
    return "\n".join([
        format_series(series, precision=0, max_points=20),
        f"bp steady-state accesses/1K: alone {_steady(series['bp_alone']):.0f}"
        f" -> shared {_steady(series['bp_shared']):.0f}",
        f"sv steady-state accesses/1K while shared: "
        f"{_steady(series['sv_shared']):.0f}"])


def _verdicts_fig6(series) -> Verdicts:
    shared = _steady(series["bp_shared"])
    return [
        ("bp starves on L1D access bandwidth (shared < 0.8x alone)",
         shared < 0.8 * _steady(series["bp_alone"])),
        ("sv dominates the shared L1D", _steady(series["sv_shared"]) > shared),
    ]


def figure8_issue_timelines(runner: ExperimentRunner, a: str = "bp",
                            b: str = "sv", interval: int = 1000,
                            cycles: Optional[int] = None
                            ) -> Dict[str, Dict[str, object]]:
    """Warp instructions issued per interval and normalized IPC under
    WS, WS-RBMI and WS-QBMI (paper Figure 8)."""
    obs = ObsOptions(phase=True, phase_interval=interval)
    out: Dict[str, Dict[str, object]] = {}
    for scheme in ("ws", "ws-rbmi", "ws-qbmi"):
        outcome = runner.run_mix(mix(a, b), scheme, cycles=cycles, obs=obs)
        out[scheme] = {
            f"{a}_insts": _phase_series(outcome.result, "warp_insts", 0),
            f"{b}_insts": _phase_series(outcome.result, "warp_insts", 1),
            "norm_ipc": tuple(outcome.norm_ipcs),
        }
    return out


def _render_fig8(data) -> str:
    parts = []
    for scheme, series in data.items():
        norm = series["norm_ipc"]
        parts += [f"[{scheme}]",
                  format_series({"bp": series["bp_insts"],
                                 "sv": series["sv_insts"]},
                                precision=0, max_points=16),
                  f"normalized IPC: bp {norm[0]:.2f}  sv {norm[1]:.2f}"]
    return "\n".join(parts)


def _verdicts_fig8(data) -> Verdicts:
    bp_ws, bp_rbmi, bp_qbmi = (data[s]["norm_ipc"][0]
                               for s in ("ws", "ws-rbmi", "ws-qbmi"))
    return [
        ("QBMI must not starve bp further (within 2% of WS)",
         bp_qbmi >= bp_ws * 0.98),
        ("BMI lifts the compute kernel", max(bp_rbmi, bp_qbmi) > bp_ws),
    ]


# ----------------------------------------------------------------------
# Figure 9 — the SMIL sweep
#: the scaled machine's limit grid per kernel (None = unlimited).
FIG9_LIMITS = (1, 2, 4, 8, None)


def figure9_smil_sweep(runner: ExperimentRunner, a: str, b: str,
                       limits: Sequence[Optional[int]] = FIG9_LIMITS,
                       cycles: Optional[int] = None
                       ) -> Dict[Tuple[str, str], float]:
    """Weighted speedup over a grid of (Limit_k0, Limit_k1)."""
    surface: Dict[Tuple[str, str], float] = {}
    for la in limits:
        for lb in limits:
            spec = f"ws-smil:{'inf' if la is None else la},{'inf' if lb is None else lb}"
            outcome = runner.run_mix(mix(a, b), spec, cycles=cycles)
            surface[(str(la), str(lb))] = outcome.weighted_speedup
    return surface


def smil_optimum(surface: Dict[Tuple[str, str], float]) -> Tuple[Tuple[str, str], float]:
    best = max(surface.items(), key=lambda kv: kv[1])
    return best[0], best[1]


def _render_fig9(surface) -> str:
    axis = [str(limit) for limit in FIG9_LIMITS]
    (opt, value) = smil_optimum(surface)
    table = format_table(
        ["limits"] + [f"k1={lb}" for lb in axis],
        [[f"k0={la}"] + [surface[(la, lb)] for lb in axis] for la in axis],
        precision=2)
    return f"{table}\noptimum at {opt}: {value:.2f}"


def _verdicts_fig9a(surface) -> Verdicts:
    return [("C+C needs no limiting: the unlimited corner is within 10% of "
             "the optimum",
             surface[("None", "None")] >= smil_optimum(surface)[1] * 0.9)]


def _verdicts_fig9b(surface) -> Verdicts:
    best_limited_k1 = max(surface[(la, lb)] for la in map(str, FIG9_LIMITS)
                          for lb in ("1", "2", "4"))
    return [("C+M: limiting the memory kernel (k1 <= 4) reaches 97% of no "
             "limiting", best_limited_k1 >= surface[("None", "None")] * 0.97)]


def _verdicts_fig9c(surface) -> Verdicts:
    return [("M+M: the optimum has positive weighted speedup",
             smil_optimum(surface)[1] > 0)]


# ----------------------------------------------------------------------
# §4.3 — sensitivity studies
def _variant_runner(runner: ExperimentRunner, **changes) -> ExperimentRunner:
    """``runner``'s machine with ``changes`` applied, on the same
    settings and cache dir."""
    return ExperimentRunner(runner.config.replace(**changes), runner.settings,
                            cache_dir=runner.cache_dir)


#: L1D capacities of the §4.3 study (the scaled analogue of the
#: paper's 24/48/96 KB).
L1D_KBS = (12, 24, 48)
#: warp schedulers of the §4.3 study.
SCHED_POLICIES = ("gto", "lrr")


def l1d_capacity_sweeps(runner: ExperimentRunner) -> Dict[int, SchemeSweep]:
    """WS vs WS-QBMI vs WS-DMIL at each of :data:`L1D_KBS`."""
    l1d = runner.config.l1d
    return {kb: scheme_sweep(
                _variant_runner(runner, l1d=dataclasses.replace(
                    l1d, size_bytes=kb * 1024)),
                BMI_MIL_SCHEMES, paper_pairs())
            for kb in L1D_KBS}


def scheduler_sweeps(runner: ExperimentRunner) -> Dict[str, SchemeSweep]:
    """The same sweep under each of :data:`SCHED_POLICIES`."""
    return {policy: scheme_sweep(
                _variant_runner(runner, scheduler_policy=policy),
                BMI_MIL_SCHEMES, paper_pairs())
            for policy in SCHED_POLICIES}


def _render_sensitivity(header: str, label: Callable[[object], str]):
    def render(sweeps) -> str:
        return format_table(
            [header, "scheme", "WS", "ANTT", "fairness"],
            [[label(variant), scheme,
              sweep.mean_metric(scheme, "weighted_speedup"),
              sweep.mean_metric(scheme, "antt"),
              sweep.mean_metric(scheme, "fairness")]
             for variant, sweep in sweeps.items() for scheme in sweep.schemes],
            precision=3)
    return render


def _verdicts_sec43_l1d(sweeps) -> Verdicts:
    return [(f"DMIL does not regress ANTT (within 5% of WS) at {kb}KB",
             sweep.mean_metric("ws-dmil", "antt")
             <= sweep.mean_metric("ws", "antt") * 1.05)
            for kb, sweep in sweeps.items()]


def _verdicts_sec43_sched(sweeps) -> Verdicts:
    lrr = sweeps["lrr"]
    return [("DMIL remains effective under LRR (ANTT within 5% of WS)",
             lrr.mean_metric("ws-dmil", "antt")
             < lrr.mean_metric("ws", "antt") * 1.05)]


# ----------------------------------------------------------------------
# §4.4 — hardware overhead
def hardware_overhead(num_kernels: int = 2, num_sms: int = 16
                      ) -> Dict[str, object]:
    """Storage bits for the proposed mechanisms (paper §4.4)."""
    milg = MILG.hardware_cost()
    milg_bits = sum(milg.values())
    qbmi = QuotaBMI.hardware_cost(num_kernels)
    qbmi_bits = sum(qbmi.values())
    return {
        "milg_per_kernel_bits": milg_bits,
        "milg_per_sm_bits": milg_bits * num_kernels,
        "milg_gpu_bits": milg_bits * num_kernels * num_sms,
        "qbmi_per_sm_bits": qbmi_bits,
        "qbmi_gpu_bits": qbmi_bits * num_sms,
        "detail": {"milg": milg, "qbmi": qbmi},
    }


def _render_sec44(cost) -> str:
    return format_table(
        ["component", "bits"],
        [["MILG per kernel", cost["milg_per_kernel_bits"]],
         ["MILG per SM", cost["milg_per_sm_bits"]],
         ["MILG whole GPU", cost["milg_gpu_bits"]],
         ["QBMI per SM", cost["qbmi_per_sm_bits"]],
         ["QBMI whole GPU", cost["qbmi_gpu_bits"]]])


def _verdicts_sec44(cost) -> Verdicts:
    return [
        ("MILG: 7-bit inflight + 12-bit rsfail + 10-bit request counters",
         cost["milg_per_kernel_bits"] == 7 + 12 + 10),
        ("MILG whole-GPU storage is under a kilobyte",
         cost["milg_gpu_bits"] < 8 * 1024),
        ("QBMI whole-GPU storage is under a kilobyte",
         cost["qbmi_gpu_bits"] < 8 * 1024),
    ]


# ----------------------------------------------------------------------
# §4.5 — cache bypassing and energy efficiency
#: C+M pairs whose memory-intensive kernel (k1) is bypassed.
BYPASS_PAIRS = (("bp", "ks"), ("bp", "sv"))


def bypass_interaction(runner: ExperimentRunner
                       ) -> List[Tuple[str, WorkloadOutcome, WorkloadOutcome,
                                       WorkloadOutcome]]:
    """WS, WS with the memory kernel's L1D accesses bypassed, and that
    plus DMIL, per pair: ``(mix, ws, bypass, bypass+dmil)``.  The paper
    argues MIL stays useful on top of bypassing, which offloads the
    memory kernel's traffic to L2/DRAM."""
    rows = []
    for a, b in BYPASS_PAIRS:
        m = mix(a, b)
        rows.append((
            m.name, runner.run_mix(m, "ws"), runner.run_mix(m, "ws-byp:0,1"),
            runner.run_mix_with_stack(
                m, SchemeConfig(mil="dmil", l1d_bypass=(False, True)))))
    return rows


def _render_sec45_bypass(rows) -> str:
    table = []
    for name, *outcomes in rows:
        for label, out in zip(("ws", "ws+bypass(M)", "ws+bypass+dmil"),
                              outcomes):
            table.append([name, label, out.weighted_speedup, out.antt,
                          out.result.l1d_miss_rate(0),
                          out.result.l1d_rsfail_rate(0)])
    return format_table(
        ["mix", "scheme", "WS", "ANTT", "C-kernel miss", "C-kernel rsfail"],
        table, precision=2)


def _verdicts_sec45_bypass(rows) -> Verdicts:
    verdicts = []
    for name, base, byp, byp_dmil in rows:
        verdicts += [
            (f"{name}: bypassing relieves the compute kernel's L1D (miss "
             f"rate within +0.02)",
             byp.result.l1d_miss_rate(0) <= base.result.l1d_miss_rate(0) + 0.02),
            (f"{name}: DMIL composes on bypassing (ANTT within 10% of "
             f"bypass alone)", byp_dmil.antt <= byp.antt * 1.10),
        ]
    return verdicts


ENERGY_PAIRS = (("bp", "ks"), ("sv", "ks"), ("pf", "bp"))


def energy_efficiency(runner: ExperimentRunner) -> Dict[Tuple[str, str], tuple]:
    """``(mix, scheme) -> (outcome, energy report)``.  With a fixed
    window leakage is constant, so instructions per unit energy must
    rise wherever a scheme raises throughput (§4.5)."""
    out = {}
    for a, b in ENERGY_PAIRS:
        for scheme in BMI_MIL_SCHEMES:
            outcome = runner.run_mix(mix(a, b), scheme)
            out[(f"{a}+{b}", scheme)] = (outcome, energy_report(outcome.result))
    return out


def _render_sec45_energy(data) -> str:
    return format_table(
        ["mix", "scheme", "insts", "avg power", "insts/energy (x1e3)",
         "leakage share"],
        [[name, scheme, report.instructions, report.avg_power,
          report.insts_per_energy * 1000, report.leakage / report.total]
         for (name, scheme), (_outcome, report) in data.items()],
        precision=3)


def _verdicts_sec45_energy(data) -> Verdicts:
    verdicts = []
    for a, b in ENERGY_PAIRS:
        name = f"{a}+{b}"
        base = data[(name, "ws")][1]
        for scheme in ("ws-qbmi", "ws-dmil"):
            rep = data[(name, scheme)][1]
            verdicts.append((
                f"{name} {scheme}: issuing at least WS's instructions keeps "
                f"efficiency within 5% of WS",
                rep.instructions < base.instructions
                or rep.insts_per_energy >= base.insts_per_energy * 0.95))
    return verdicts


# ----------------------------------------------------------------------
# §2.5 — dynamic vs static Warped-Slicer
DWS_PAIRS = (("bp", "sv"), ("bp", "ks"), ("pf", "bp"))
DWS_SCHEMES = ("ws", "dws", "ws-dmil", "dws-dmil")


def dynamic_ws(runner: ExperimentRunner
               ) -> Dict[Tuple[str, str], WorkloadOutcome]:
    """Static (isolated profiling) vs dynamic (profiling during
    concurrent execution) Warped-Slicer, each with and without DMIL."""
    return {(f"{a}+{b}", scheme): runner.run_mix(mix(a, b), scheme)
            for a, b in DWS_PAIRS for scheme in DWS_SCHEMES}


def _render_dws(data) -> str:
    return format_table(
        ["mix", "scheme", "TBs/SM", "WS", "ANTT", "fairness"],
        [[name, scheme, str(out.partition), out.weighted_speedup, out.antt,
          out.fairness] for (name, scheme), out in data.items()],
        precision=3)


def _verdicts_dws(data) -> Verdicts:
    verdicts = []
    for a, b in DWS_PAIRS:
        name = f"{a}+{b}"
        static, dynamic = data[(name, "ws")], data[(name, "dws")]
        verdicts += [
            (f"{name}: dynamic WS gives every kernel a TB",
             all(t >= 1 for t in dynamic.partition)),
            (f"{name}: dynamic WS reaches 70% of static WS's weighted "
             f"speedup",
             dynamic.weighted_speedup > 0.7 * static.weighted_speedup),
        ]
    verdicts.append((
        "bp+ks: DMIL on dynamic WS keeps ANTT within 10% of dynamic WS",
        data[("bp+ks", "dws-dmil")].antt < data[("bp+ks", "dws")].antt * 1.10))
    return verdicts


# ----------------------------------------------------------------------
# DMIL design ablations (beyond the paper's headline figures)
ABLATION_PAIRS = (("bp", "ks"), ("sv", "ks"))


def dmil_local_vs_global(runner: ExperimentRunner) -> List[list]:
    """Per-SM MILGs (local) vs the cheaper global variant that monitors
    one SM and broadcasts (§3.3.2): ``[mix, WS, ANTT, WS', ANTT']``."""
    rows = []
    for a, b in ABLATION_PAIRS:
        local = runner.run_mix(mix(a, b), "ws-dmil")
        globl = runner.run_mix(mix(a, b), "ws-gdmil")
        rows.append([f"{a}+{b}", local.weighted_speedup, local.antt,
                     globl.weighted_speedup, globl.antt])
    return rows


def dmil_recovery(runner: ExperimentRunner) -> List[list]:
    """MILG with and without this library's additive-increase limit
    recovery (the paper's formula only lowers the cap):
    ``[mix, WS, M-kernel nIPC, WS', M-kernel nIPC']``."""
    rows = []
    for a, b in ABLATION_PAIRS:
        with_rec = runner.run_mix_with_stack(
            mix(a, b), SchemeConfig(mil="dmil", dmil_recovery=True))
        without = runner.run_mix_with_stack(
            mix(a, b), SchemeConfig(mil="dmil", dmil_recovery=False))
        rows.append([f"{a}+{b}",
                     with_rec.weighted_speedup, with_rec.norm_ipcs[1],
                     without.weighted_speedup, without.norm_ipcs[1]])
    return rows


#: MILG sampling windows of the ablation, in requests.
DMIL_WINDOWS = (128, 256, 512)


def dmil_sampling_window(runner: ExperimentRunner) -> List[list]:
    """DMIL on bp+ks per MILG sampling window in :data:`DMIL_WINDOWS`
    (the paper picks 1024 requests; the scaled machine defaults to
    256)."""
    rows = []
    for window in DMIL_WINDOWS:
        out = runner.run_mix_with_stack(
            mix("bp", "ks"), SchemeConfig(mil="dmil", sample_window=window))
        rows.append([window, out.weighted_speedup, out.antt, out.fairness])
    return rows


def _render_rows(headers: Sequence[str]):
    def render(rows) -> str:
        return format_table(headers, rows, precision=3)
    return render


def _verdicts_ablation_global(rows) -> Verdicts:
    return [(f"{row[0]}: global DMIL tracks local DMIL (WS within 25%)",
             abs(row[1] - row[3]) / row[1] < 0.25) for row in rows]


def _verdicts_ablation_recovery(rows) -> Verdicts:
    return [(f"{row[0]}: recovery never leaves the memory kernel worse off "
             f"(nIPC >= 0.9x one-way)", row[2] >= row[4] * 0.9)
            for row in rows]


def _verdicts_ablation_window(rows) -> Verdicts:
    speedups = [row[1] for row in rows]
    return [("DMIL is robust to the sampling window (WS spread < 1.2x)",
             max(speedups) / min(speedups) < 1.2)]


# ----------------------------------------------------------------------
# the registry
FIGURES: Tuple[Figure, ...] = (
    Figure("table1", "Table 1 — paper baseline vs scaled experiment machine",
           table1_config, _render_table1, _verdicts_table1),
    Figure("table2", "Table 2 — workload characterisation (measured vs paper)",
           table2_characteristics, _render_table2, _verdicts_table2),
    Figure("fig2", "Figure 2 — utilization and LSU stalls (sorted by ALU util)",
           figure2_utilization, _render_fig2, _verdicts_fig2),
    Figure("fig3", "Figure 3 — scalability curves and sweet spot for bp+sv",
           figure3_sweet_spot, _render_fig3, _verdicts_fig3),
    Figure("fig4", "Figure 4 — theoretical vs achieved weighted speedup",
           figure4_gap, _render_fig4, _verdicts_fig4),
    Figure("fig5", "Figure 5 — effectiveness of L1D cache partitioning (UCP)",
           figure5_cache_partitioning, _render_fig5, _verdicts_fig5,
           grid=True),
    Figure("fig6", "Figure 6 — L1D accesses per 1K cycles",
           figure6_timelines, _render_fig6, _verdicts_fig6),
    Figure("fig8", "Figure 8 — warp instructions issued per 1K cycles",
           figure8_issue_timelines, _render_fig8, _verdicts_fig8),
    Figure("fig9a", "Figure 9(a) — SMIL sweep, C+C (pf+bp)",
           lambda runner: figure9_smil_sweep(runner, "pf", "bp"),
           _render_fig9, _verdicts_fig9a),
    Figure("fig9b", "Figure 9(b) — SMIL sweep, C+M (bp+ks)",
           lambda runner: figure9_smil_sweep(runner, "bp", "ks"),
           _render_fig9, _verdicts_fig9b),
    Figure("fig9c", "Figure 9(c) — SMIL sweep, M+M (sv+ks)",
           lambda runner: figure9_smil_sweep(runner, "sv", "ks"),
           _render_fig9, _verdicts_fig9c),
    Figure("fig11", "Figure 11 — QBMI vs DMIL vs QBMI+DMIL on Warped-Slicer",
           figure11_qbmi_vs_dmil, _render_fig11, _verdicts_fig11, grid=True),
    Figure("fig12", "Figure 12 — main result on Warped-Slicer",
           figure12_main, _render_fig12, _verdicts_fig12, grid=True),
    Figure("fig13", "Figure 13 — QBMI and DMIL on SMK",
           figure13_smk, _render_fig13, _verdicts_fig13, grid=True),
    Figure("fig14", "Figure 14 — 3-kernel workloads",
           figure14_three_kernels, _render_fig14, _verdicts_fig14, grid=True),
    Figure("sec43_l1d", "§4.3 — L1D capacity sensitivity "
           "(scaled 12/24/48KB ≈ paper 24/48/96KB)",
           l1d_capacity_sweeps, _render_sensitivity("L1D", lambda kb: f"{kb}KB"),
           _verdicts_sec43_l1d, grid=True),
    Figure("sec43_sched", "§4.3 — warp scheduler sensitivity (GTO vs LRR)",
           scheduler_sweeps, _render_sensitivity("policy", str),
           _verdicts_sec43_sched, grid=True),
    Figure("sec44", "§4.4 — hardware overhead (2 kernels, 16 SMs)",
           lambda _runner: hardware_overhead(), _render_sec44, _verdicts_sec44),
    Figure("sec45_bypass", "§4.5 — bypassing the memory-intensive kernel's "
           "L1D accesses",
           bypass_interaction, _render_sec45_bypass, _verdicts_sec45_bypass),
    Figure("sec45_energy", "§4.5 — energy efficiency (arbitrary energy units)",
           energy_efficiency, _render_sec45_energy, _verdicts_sec45_energy),
    Figure("dws", "§2.5 — dynamic vs static Warped-Slicer",
           dynamic_ws, _render_dws, _verdicts_dws),
    Figure("ablation_global", "Ablation — local vs global DMIL",
           dmil_local_vs_global,
           _render_rows(["mix", "local WS", "local ANTT", "global WS",
                         "global ANTT"]),
           _verdicts_ablation_global),
    Figure("ablation_recovery",
           "Ablation — MILG limit recovery (additive increase)",
           dmil_recovery,
           _render_rows(["mix", "WS (recovery)", "M-kernel nIPC",
                         "WS (one-way)", "M-kernel nIPC'"]),
           _verdicts_ablation_recovery),
    Figure("ablation_window",
           "Ablation — DMIL sampling window (requests per MILG window)",
           dmil_sampling_window,
           _render_rows(["window", "WS", "ANTT", "fairness"]),
           _verdicts_ablation_window),
)
