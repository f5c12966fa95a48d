"""Phase telemetry: the interval sampler never perturbs simulation,
its per-interval stall-mix deltas sum exactly to the aggregate
taxonomy, interval boundaries (including partial tails) cover every
cycle exactly once, and records merge/pickle across workers."""

import pickle

import pytest

from repro.config import scaled_config
from repro.core.arbiter import SchemeConfig
from repro.harness.perfbench import result_signature
from repro.obs.collector import ObsOptions, ObsReport
from repro.obs.stalls import LSU_STALL_REASONS
from repro.obs.timeline import (
    ADAPT_MECHANISMS,
    ADAPT_MIL,
    ADAPT_QBMI,
    PHASE_SCHED_OUTCOMES,
    PhaseSampler,
    adapt_events_from_record,
    merge_phase_records,
)
from repro.sim.engine import GPU, make_launches
from repro.workloads.profiles import get_profile

ADAPTIVE_SCHEME = {"bmi": "qbmi", "qbmi_init_req_per_minst": (4, 4),
                   "mil": "dmil"}


def run_mix(kernels, tbs, scheme_kwargs=None, cycles=1500, obs=None,
            reference=None):
    cfg = scaled_config()
    launches = make_launches([get_profile(k) for k in kernels], list(tbs),
                             cfg, seed=3)
    gpu = GPU(cfg, launches, SchemeConfig(**(scheme_kwargs or {})), obs=obs,
              reference=reference)
    return gpu.run(cycles)


def phase_record(kernels, tbs, scheme_kwargs=None, cycles=1500,
                 interval=256, reference=None):
    result = run_mix(kernels, tbs, scheme_kwargs, cycles,
                     obs=ObsOptions(phase_interval=interval),
                     reference=reference)
    assert len(result.obs.phases) == 1
    return result, result.obs, result.obs.phases[0]


def by_reason(report):
    agg = {}
    for (_sm, _sched, _k, reason), n in report.sched_stalls.items():
        agg[reason] = agg.get(reason, 0) + n
    return agg


class TestBitIdentity:
    @pytest.mark.parametrize("kernels,tbs,scheme_kwargs", [
        (("st", "sv"), (4, 4), ADAPTIVE_SCHEME),
        (("3m", "bp"), (2, 2), {"smk_quotas": (1, 1)}),
    ])
    def test_sampler_on_matches_sampler_off(self, kernels, tbs,
                                            scheme_kwargs):
        """The sampler is pull-based: switching it on changes no
        simulated stat, against both the unobserved run and the
        observed-without-sampler run."""
        plain = run_mix(kernels, tbs, scheme_kwargs, obs=None)
        observed = run_mix(kernels, tbs, scheme_kwargs, obs=True)
        sampled = run_mix(kernels, tbs, scheme_kwargs,
                          obs=ObsOptions(phase_interval=256))
        assert result_signature(sampled) == result_signature(plain)
        assert result_signature(sampled) == result_signature(observed)


class TestExactSum:
    def test_issue_series_sum_to_aggregate_taxonomy(self):
        """Summing each global issue.{reason} series over every row
        (committed + tail) reproduces the aggregate StallTable — the
        deltas lose nothing, exactly."""
        _result, report, record = phase_record(("st", "sv"), (4, 4),
                                               ADAPTIVE_SCHEME)
        agg = by_reason(report)
        series = record["series"]
        for reason in PHASE_SCHED_OUTCOMES:
            assert sum(series[f"issue.{reason}"]) == agg.get(reason, 0)

    def test_per_kernel_series_sum_to_per_kernel_aggregate(self):
        _result, report, record = phase_record(("st", "sv"), (4, 4),
                                               ADAPTIVE_SCHEME)
        per_kernel = {}
        for (_sm, _sched, kernel, reason), n in report.sched_stalls.items():
            key = (kernel, reason)
            per_kernel[key] = per_kernel.get(key, 0) + n
        series = record["series"]
        for kernel in (0, 1):
            for reason in PHASE_SCHED_OUTCOMES:
                assert (sum(series[f"k{kernel}.issue.{reason}"])
                        == per_kernel.get((kernel, reason), 0))

    def test_lsu_series_sum_to_aggregate(self):
        _result, report, record = phase_record(("st", "sv"), (4, 4),
                                               ADAPTIVE_SCHEME)
        per_kernel = {}
        for (_sm, kernel, reason), n in report.lsu_stalls.items():
            key = (kernel, reason)
            per_kernel[key] = per_kernel.get(key, 0) + n
        series = record["series"]
        for kernel in (0, 1):
            for reason in LSU_STALL_REASONS:
                assert (sum(series[f"k{kernel}.lsu.{reason}"])
                        == per_kernel.get((kernel, reason), 0))

    @pytest.mark.parametrize("reference", (False, True),
                             ids=("production", "oracle"))
    def test_counter_series_sum_to_kernel_stats(self, reference):
        """The Figure 8 / Figure 6 series — warp instructions issued
        and L1D requests accepted per interval — are integer deltas
        that sum exactly to the run's KernelStats, tail row included."""
        result, _report, record = phase_record(("bp", "sv"), (2, 2),
                                               cycles=3100, interval=500,
                                               reference=reference)
        series = record["series"]
        for kernel in (0, 1):
            insts = series[f"k{kernel}.warp_insts"]
            reqs = series[f"k{kernel}.mem_requests"]
            assert len(insts) == len(reqs) == 7  # 6 intervals + a tail
            assert all(type(v) is int for v in insts + reqs)
            assert sum(insts) == result.kernels[kernel].warp_insts
            assert sum(reqs) == result.kernels[kernel].mem_requests
            assert sum(reqs) > 0


class TestIntervals:
    def test_partial_tail_covers_every_cycle_once(self):
        """Run length not a multiple of the interval: committed samples
        plus one uncommitted tail row cover [0, cycles) exactly."""
        _result, _report, record = phase_record(("st", "sv"), (4, 4),
                                                cycles=1000, interval=256)
        windows = record["series"]["window"]
        assert len(windows) == 4  # 3 committed + tail of 232
        assert windows[:3] == [256.0, 256.0, 256.0]
        assert windows[3] == 1000 - 3 * 256
        assert sum(windows) == record["cycles"] == 1000
        assert record["series"]["cycle"][-1] == 1000.0

    def test_exact_multiple_has_no_tail_row(self):
        _result, _report, record = phase_record(("st", "sv"), (4, 4),
                                                cycles=1024, interval=256)
        windows = record["series"]["window"]
        assert windows == [256.0] * 4
        assert sum(windows) == record["cycles"] == 1024

    def test_run_shorter_than_interval_is_one_tail_row(self):
        _result, _report, record = phase_record(("st", "sv"), (4, 4),
                                                cycles=100, interval=256)
        assert record["series"]["window"] == [100.0]

    def test_snapshot_is_non_destructive(self):
        """Snapshotting twice yields identical records: the tail is
        measured without committing baselines."""
        result = run_mix(("st", "sv"), (4, 4), ADAPTIVE_SCHEME,
                         cycles=1000,
                         obs=ObsOptions(phase_interval=256))
        record = result.obs.phases[0]
        sampler = PhaseSampler(256)
        assert sampler.samples == 0
        assert record["version"] == 1
        assert record["interval"] == 256
        # The committed rows were unaffected by the tail measurement.
        assert len(record["series"]["window"]) == 4

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            PhaseSampler(0)


class TestAdaptEvents:
    def test_mil_and_qbmi_events_recorded(self):
        _result, _report, record = phase_record(("st", "sv"), (4, 4),
                                               ADAPTIVE_SCHEME,
                                               cycles=3000)
        events = adapt_events_from_record(record)
        assert events
        mechanisms = {event.mechanism for event in events}
        assert mechanisms <= set(ADAPT_MECHANISMS)
        assert ADAPT_MIL in mechanisms
        assert ADAPT_QBMI in mechanisms

    def test_events_ordered_and_mil_chain_consistent(self):
        """Event cycles are nondecreasing, and each MIL recompute's old
        limit is the previous recompute's new limit for that key."""
        _result, _report, record = phase_record(("st", "sv"), (4, 4),
                                                ADAPTIVE_SCHEME,
                                                cycles=3000)
        events = adapt_events_from_record(record)
        assert all(a.cycle <= b.cycle
                   for a, b in zip(events, events[1:]))
        last = {}
        for event in events:
            if event.mechanism != ADAPT_MIL:
                continue
            key = (event.sm_id, event.kernel)
            if key in last:
                assert event.old == last[key]
            last[key] = event.new

    def test_qbmi_events_carry_req_per_minst(self):
        _result, _report, record = phase_record(("st", "sv"), (4, 4),
                                                ADAPTIVE_SCHEME,
                                                cycles=3000)
        for event in adapt_events_from_record(record):
            if event.mechanism == ADAPT_QBMI:
                assert event.req_per_minst is not None
                assert event.new is not None and event.new >= 1


class TestMergeAndTransport:
    def test_merge_is_associative_concatenation(self):
        a, b, c = [{"id": 1}], [{"id": 2}], [{"id": 3}]
        left = merge_phase_records([merge_phase_records([a, b]), c])
        right = merge_phase_records([a, merge_phase_records([b, c])])
        flat = merge_phase_records([a, b, c])
        assert left == right == flat == [{"id": 1}, {"id": 2}, {"id": 3}]

    def test_obs_report_merge_keeps_every_phase_record(self):
        result_a = run_mix(("st", "sv"), (4, 4), ADAPTIVE_SCHEME,
                           cycles=512,
                           obs=ObsOptions(phase_interval=256))
        result_b = run_mix(("3m", "bp"), (2, 2), cycles=512,
                           obs=ObsOptions(phase_interval=128))
        merged = ObsReport.merged([result_a.obs, result_b.obs])
        assert len(merged.phases) == 2
        intervals = sorted(record["interval"] for record in merged.phases)
        assert intervals == [128, 256]

    def test_report_with_phases_pickles(self):
        result, report, record = phase_record(("st", "sv"), (4, 4),
                                              ADAPTIVE_SCHEME, cycles=512)
        clone = pickle.loads(pickle.dumps(report))
        assert clone.phases == report.phases
        # And the whole RunResult (the worker-boundary payload).
        result_clone = pickle.loads(pickle.dumps(result))
        assert result_clone.obs.phases[0] == record

    def test_record_is_json_safe(self):
        import json
        _result, _report, record = phase_record(("st", "sv"), (4, 4),
                                                ADAPTIVE_SCHEME, cycles=512)
        assert json.loads(json.dumps(record)) == record
