"""Tests for the experiment runner (caching, scheme resolution)."""

import pytest

from repro.config import scaled_config
from repro.core.arbiter import SCHEMES, SchemeConfig, parse_scheme
from repro.harness.reporting import format_series, format_table, geomean
from repro.harness.runner import ExperimentRunner, RunnerSettings
from repro.workloads.mixes import mix
from repro.workloads.profiles import get_profile

FAST = RunnerSettings(iso_cycles=1500, curve_cycles=1000, concurrent_cycles=2000)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scaled_config(), FAST)


class TestIsolatedCache:
    def test_memoised_in_memory(self, runner):
        first = runner.isolated(get_profile("bp"))
        second = runner.isolated(get_profile("bp"))
        assert first is second

    def test_disk_cache_round_trip(self, tmp_path):
        r1 = ExperimentRunner(scaled_config(), FAST, cache_dir=str(tmp_path))
        rec = r1.isolated(get_profile("dc"))
        r2 = ExperimentRunner(scaled_config(), FAST, cache_dir=str(tmp_path))
        rec2 = r2.isolated(get_profile("dc"))
        assert rec2.ipc == rec.ipc
        assert list(tmp_path.glob("iso-*.json"))

    def test_curve_has_one_point_per_tb(self, runner):
        profile = get_profile("sv")
        curve = runner.curve(profile)
        assert curve.max_tbs == profile.max_tbs_per_sm(runner.config)

    def test_rejects_impossible_tbs(self, runner):
        with pytest.raises(ValueError):
            runner.isolated(get_profile("bp"), tbs=0)

    @pytest.mark.parametrize("first", ("iso", "curve"))
    def test_max_tb_curve_point_shares_the_iso_simulation(
            self, tmp_path, monkeypatch, first):
        """The max-TB curve point is a prefix of the iso run: whichever
        is asked for first simulates once and installs both records —
        the records separate simulations produce, under the same keys —
        in memory and on disk."""
        from repro.sim import engine as engine_module
        profile = get_profile("bp")
        config = scaled_config()
        max_tbs = profile.max_tbs_per_sm(config)
        budgets = {"iso": FAST.iso_cycles, "curve": FAST.curve_cycles}
        # Equal budgets share nothing: each record from its own run.
        apart = {
            name: ExperimentRunner(config, RunnerSettings(
                iso_cycles=cycles, curve_cycles=cycles)).isolated(
                    profile, max_tbs, cycles)
            for name, cycles in budgets.items()}

        built = []
        real_gpu = engine_module.GPU

        def counting_gpu(*args, **kwargs):
            built.append(args)
            return real_gpu(*args, **kwargs)

        monkeypatch.setattr(engine_module, "GPU", counting_gpu)
        shared = ExperimentRunner(config, FAST, cache_dir=str(tmp_path))
        other = "curve" if first == "iso" else "iso"
        assert shared.isolated(profile, max_tbs, budgets[first]) \
            == apart[first]
        assert len(built) == 1
        assert len(list(tmp_path.glob("iso-*.json"))) == 2
        assert shared.isolated(profile, max_tbs, budgets[other]) \
            == apart[other]
        # A second runner finds both on disk; nothing simulates again.
        again = ExperimentRunner(config, FAST, cache_dir=str(tmp_path))
        for name, cycles in budgets.items():
            assert again.isolated(profile, max_tbs, cycles) == apart[name]
        assert len(built) == 1
        # Below the maximum TB count the curve point stands alone.
        shared.isolated(profile, 1, FAST.curve_cycles)
        assert len(built) == 2
        assert len(list(tmp_path.glob("iso-*.json"))) == 3


class TestSchemeResolution:
    def test_ws_partition_is_feasible(self, runner):
        profiles = [get_profile("bp"), get_profile("sv")]
        limits, masks, stack = runner.resolve_scheme("ws", profiles)
        assert masks is None
        assert all(l >= 1 for l in limits)
        assert stack.describe() == "baseline"

    def test_spatial_masks_cover_all_sms(self, runner):
        profiles = [get_profile("bp"), get_profile("sv")]
        limits, masks, _ = runner.resolve_scheme("spatial", profiles)
        assert masks is not None
        covered = set().union(*masks)
        assert covered == set(range(runner.config.num_sms))

    def test_mechanism_suffix_parsing(self, runner):
        profiles = [get_profile("bp"), get_profile("sv")]
        _, _, stack = runner.resolve_scheme("ws-qbmi+dmil", profiles)
        assert stack.bmi == "qbmi" and stack.mil == "dmil"
        _, _, stack = runner.resolve_scheme("ws-smil:3,inf", profiles)
        assert stack.smil_limits == (3, None)
        _, _, stack = runner.resolve_scheme("ws-ucp", profiles)
        assert stack.ucp

    def test_smk_variants(self, runner):
        profiles = [get_profile("bp"), get_profile("sv")]
        _, _, stack = runner.resolve_scheme("smk-p+w", profiles)
        assert stack.smk_quotas is not None
        _, _, stack = runner.resolve_scheme("smk-p+dmil", profiles)
        assert stack.mil == "dmil" and stack.smk_quotas is None

    def test_unknown_scheme_rejected(self, runner):
        with pytest.raises(ValueError):
            runner.resolve_scheme("bogus", [get_profile("bp")])
        with pytest.raises(ValueError):
            runner.resolve_scheme("ws-nope", [get_profile("bp")])
        with pytest.raises(ValueError):
            runner.resolve_scheme("smk-x", [get_profile("bp")])

    def test_check_scheme_is_the_same_grammar_without_simulating(self):
        """The CLI's up-front name check is ``parse_scheme``, the parser
        ``run_mix`` dispatches on — a function beside ``SchemeConfig``,
        so no runner (and no cache dir) exists yet."""
        for name, partition in (
                ("spatial", "spatial"), ("leftover", "leftover"),
                ("even", "even"), ("ws", "ws"), ("WS-DMIL", "ws"),
                ("ws-qbmi+dmil", "ws"), ("ws-smil:3,inf", "ws"),
                ("ws-byp:0,1", "ws"), ("smk", "smk"), ("smk-p", "smk"),
                ("smk-p+w", "smk"), ("smk-p+qbmi", "smk"),
                ("dws", "dws"), ("dws-dmil", "dws")):
            assert parse_scheme(name)[0] == partition
        assert parse_scheme("smk-p+w") == ("smk", None)
        assert parse_scheme("dws-dmil")[1] == SchemeConfig(mil="dmil")
        assert parse_scheme("ws-qbmi", (2, 4))[1] == SchemeConfig(
            bmi="qbmi", qbmi_init_req_per_minst=(2, 4))
        for name in ("bogus", "ws-nope", "smk-x", "dws-nope",
                     "ws-smil:a,b", "spatial-dmil", ""):
            with pytest.raises(ValueError):
                parse_scheme(name)

    def test_every_listed_scheme_parses(self):
        """``SCHEMES`` — what ``repro schemes`` prints and the unknown-
        scheme error lists — holds only names the grammar accepts."""
        assert len({name for name, _ in SCHEMES}) == len(SCHEMES)
        for name, _ in SCHEMES:
            parse_scheme(name)

    def test_dws_partitions_online(self, runner):
        with pytest.raises(ValueError, match="partitions online"):
            runner.resolve_scheme("dws", [get_profile("bp")])


class TestRunMix:
    def test_outcome_metrics_consistent(self, runner):
        outcome = runner.run_mix(mix("bp", "sv"), "ws")
        assert outcome.weighted_speedup == pytest.approx(sum(outcome.norm_ipcs))
        assert outcome.mix_class == "C+M"
        assert outcome.partition and len(outcome.partition) == 2
        assert 0 < outcome.fairness <= 1

    def test_run_pair_with_scheme_name(self, runner):
        outcome = runner.run_mix(mix("pf", "bp"), "even", cycles=1500)
        assert outcome.mix_name == "pf+bp"
        assert outcome.scheme == "even"

    def test_run_pair_with_scheme_config(self, runner):
        """An explicit stack runs on a named partition, labelled
        ``<partition>:<describe>``."""
        outcome = runner.run_mix_with_stack(
            mix("pf", "bp"), SchemeConfig(bmi="rbmi"), cycles=1500)
        assert outcome.scheme == "ws:RBMI"


class TestReportingHelpers:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], [3, 4.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.500" in text

    def test_format_table_validates_width(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_series_downsamples(self):
        text = format_series({"s": list(range(100))}, max_points=10)
        assert len(text.split()) <= 12

    def test_geomean(self):
        from types import SimpleNamespace

        from repro.harness.experiments import SchemeSweep
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        # A zero factor is a zero mean, not a dropped value.
        assert geomean([0.0, 4.0]) == 0.0
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([-1.0, 4.0])
        # So a fully starved cell (fairness 0) pulls its class mean to
        # 0 instead of dropping out of it.
        sweep = SchemeSweep(("ws",))
        for name, fair in (("a+b", 0.0), ("c+d", 0.5)):
            sweep.add(SimpleNamespace(mix_name=name, mix_class="C+M",
                                      scheme="ws", fairness=fair))
        assert sweep.mean_metric("ws", "fairness", "C+M") == 0.0
