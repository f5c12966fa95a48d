"""Tests for the per-figure experiment drivers (fast budgets) and the
figure registry that runs them."""

import inspect
from collections import Counter

import pytest

from repro.config import scaled_config
from repro.core.arbiter import parse_scheme
from repro.harness import experiments as ex
from repro.harness.runner import ExperimentRunner, RunnerSettings
from repro.workloads.mixes import mix

FAST = RunnerSettings(iso_cycles=1500, curve_cycles=1200, concurrent_cycles=2000)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scaled_config(), FAST)


class TestCharacterisationDrivers:
    def test_table2_rows_complete(self, runner):
        rows = ex.table2_characteristics(runner)
        assert len(rows) == 13
        for row in rows:
            assert {"name", "l1d_miss_rate", "l1d_rsfail_rate",
                    "lsu_stall_pct", "paper"} <= set(row)

    def test_classify_measured_threshold(self):
        rows = [{"name": "a", "lsu_stall_pct": 0.1},
                {"name": "b", "lsu_stall_pct": 0.5}]
        assert ex.classify_measured(rows) == {"a": "C", "b": "M"}

    def test_figure2_sorted_by_alu(self, runner):
        rows = ex.figure2_utilization(runner)
        utils = [r["alu_utilization"] for r in rows]
        assert utils == sorted(utils, reverse=True)


class TestSweetSpotDrivers:
    def test_figure3_result_structure(self, runner):
        res = ex.figure3_sweet_spot(runner, "bp", "sv")
        assert set(res.curves) == {"bp", "sv"}
        assert len(res.partition) == 2
        assert res.theoretical_ws > 0

    def test_figure4_rows(self, runner):
        rows = ex.figure4_gap(runner, pairs=[mix("pf", "bp")])
        assert rows[0].mix_class == "C+C"
        assert rows[0].theoretical > 0 and rows[0].achieved > 0

    def test_gap_by_class_includes_all(self, runner):
        rows = ex.figure4_gap(runner, pairs=[mix("pf", "bp"), mix("bp", "sv")])
        by_class = ex.gap_by_class(rows)
        assert {"C+C", "C+M", "ALL"} <= set(by_class)


class TestSweeps:
    def test_scheme_sweep_accessors(self, runner):
        sweep = ex.scheme_sweep(runner, ("ws", "ws-qbmi"), [mix("bp", "sv")])
        assert sweep.mixes() == ["bp+sv"]
        assert sweep.class_of("bp+sv") == "C+M"
        out = sweep.outcome("bp+sv", "ws")
        assert out.scheme == "ws"
        assert sweep.mean_metric("ws", "weighted_speedup") == pytest.approx(
            out.weighted_speedup)

    def test_improvement_metric(self, runner):
        sweep = ex.scheme_sweep(runner, ("ws", "ws-qbmi"), [mix("bp", "sv")])
        delta = sweep.improvement("ws-qbmi", "ws")
        assert isinstance(delta, float)

    def test_smil_sweep_and_optimum(self, runner):
        surface = ex.figure9_smil_sweep(runner, "bp", "sv", limits=(1, None))
        assert len(surface) == 4
        key, value = ex.smil_optimum(surface)
        assert surface[key] == value


class TestTimelineDrivers:
    def test_figure6_keys(self, runner):
        series = ex.figure6_timelines(runner, "bp", "sv", interval=500,
                                      cycles=1500)
        assert set(series) == {"bp_alone", "sv_alone", "bp_shared", "sv_shared"}
        assert all(len(v) >= 2 for v in series.values())

    def test_figure8_schemes(self, runner):
        data = ex.figure8_issue_timelines(runner, "bp", "sv", interval=500,
                                          cycles=1500)
        assert set(data) == {"ws", "ws-rbmi", "ws-qbmi"}
        for series in data.values():
            assert len(series["norm_ipc"]) == 2


class TestOverheadDriver:
    def test_scales_with_kernels_and_sms(self):
        two = ex.hardware_overhead(2, 16)
        three = ex.hardware_overhead(3, 16)
        assert three["milg_per_sm_bits"] > two["milg_per_sm_bits"]
        assert two["milg_gpu_bits"] == two["milg_per_sm_bits"] * 16


class TestFigureRegistry:
    #: public functions of ``experiments`` that are not drivers: helpers
    #: the drivers, renderers and verdicts share.
    HELPERS = {"classify_measured", "gap_by_class", "scheme_sweep",
               "smil_optimum"}

    def test_keys_unique(self):
        keys = [figure.key for figure in ex.FIGURES]
        assert len(keys) == len(set(keys))

    def test_every_scheme_the_figures_run_parses(self, monkeypatch):
        """Every scheme name the registry runs is one the grammar
        accepts: the named scheme sets, and Fig. 5's and Fig. 11's
        grids (read off the ``scheme_sweep`` call, not simulated)."""
        swept = []
        monkeypatch.setattr(ex, "scheme_sweep",
                            lambda _runner, schemes, *_a, **_k:
                            swept.extend(schemes))
        ex.figure5_cache_partitioning(None)
        ex.figure11_qbmi_vs_dmil(None)
        assert swept == ["ws", "ws-ucp", "ws-qbmi", "ws-dmil",
                         "ws-qbmi+dmil"]
        for name in (*ex.WS_SCHEMES, *ex.SMK_SCHEMES, *ex.BMI_MIL_SCHEMES,
                     *ex.DWS_SCHEMES, *swept):
            parse_scheme(name)

    def test_every_driver_reached_by_exactly_one_entry(self):
        """A public driver no entry runs is an orphan nothing prints or
        checks; add it to the registry or delete it."""
        drivers = {name for name, fn in vars(ex).items()
                   if inspect.isfunction(fn) and fn.__module__ == ex.__name__
                   and not name.startswith("_")} - self.HELPERS
        reached = Counter()
        for figure in ex.FIGURES:
            run = figure.run
            names = ([name for name in inspect.getclosurevars(run).globals
                      if name in drivers]
                     if run.__name__ == "<lambda>" else [run.__name__])
            assert len(names) == 1 and names[0] in drivers, figure.key
            reached[names[0]] += 1
        # Fig. 9's three panels share one driver.
        assert reached == Counter(dict.fromkeys(drivers, 1)) \
            + Counter(figure9_smil_sweep=2)

    def test_quick_report_prints_every_non_grid_entry_and_verdict(
            self, quick_report):
        text, recorded = quick_report
        quick = [f for f in ex.FIGURES if not f.grid]
        assert set(recorded) == {f.key for f in quick}
        for figure in ex.FIGURES:
            assert (f"## {figure.title}\n" in text) == (not figure.grid)
        verdict_lines = [line for line in text.splitlines()
                         if line.startswith(("- ✓ ", "- ✗ "))]
        assert verdict_lines == [
            f"- {'✓' if holds else '✗'} {claim}"
            for f in quick for claim, holds in recorded[f.key]]
