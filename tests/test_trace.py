"""Chrome trace-event recording: unit behaviour of the recorder and
the end-to-end JSON a traced simulation writes."""

import json

import pytest

from repro.config import scaled_config
from repro.core.arbiter import SchemeConfig
from repro.obs.collector import ObsOptions
from repro.obs.trace import TraceRecorder
from repro.sim.engine import GPU, make_launches
from repro.workloads.profiles import get_profile


class TestRecorderUnits:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TraceRecorder(max_events=0)
        with pytest.raises(ValueError):
            TraceRecorder(issue_sample=0)
        with pytest.raises(ValueError):
            TraceRecorder(mem_sample=0)

    def test_issue_sampling_every_nth(self):
        rec = TraceRecorder(issue_sample=4)
        wants = [rec.want_issue() for _ in range(8)]
        assert wants == [False, False, False, True] * 2

    def test_mem_sampling_and_ids(self):
        rec = TraceRecorder(mem_sample=2)
        ids = [rec.next_mem_id() for _ in range(6)]
        assert ids == [None, 1, None, 2, None, 3]

    def test_buffer_cap_counts_drops(self):
        rec = TraceRecorder(max_events=2)
        for i in range(5):
            rec.instant(f"e{i}", "cat", 0, i)
        assert len(rec.events) == 2
        assert rec.dropped == 3
        # a full buffer also refuses new mem-lifetime ids
        assert rec.next_mem_id() is None
        assert rec.dropped == 4

    def test_process_named_once(self):
        rec = TraceRecorder()
        rec.name_process(0, "SM 0")
        rec.name_process(0, "SM 0")
        assert len(rec.events) == 1
        assert rec.events[0]["ph"] == "M"

    def test_event_shapes(self):
        rec = TraceRecorder()
        rec.complete("ld", "issue", 0, 1, ts=10, dur=1, args={"kernel": 0})
        rec.async_begin("mem:load", "mem", 0, 7, ts=10)
        rec.async_instant("l1d:miss", "mem", 0, 7, ts=12)
        rec.async_end("mem:load", "mem", 0, 7, ts=90)
        rec.counter("dmil limit k0", 0, 50, {"limit": 3.0})
        phases = [e["ph"] for e in rec.events]
        assert phases == ["X", "b", "n", "e", "C"]
        begin, _, end = rec.events[1:4]
        assert begin["id"] == end["id"] == 7

    def test_json_round_trip(self, tmp_path):
        rec = TraceRecorder()
        rec.instant("x", "cat", 0, 1)
        path = tmp_path / "t.json"
        rec.write(str(path))
        obj = json.loads(path.read_text())
        assert obj["traceEvents"] == rec.events
        assert obj["otherData"]["dropped_events"] == 0


def traced_run(cycles=1500, **options):
    cfg = scaled_config()
    launches = make_launches([get_profile("st"), get_profile("sv")],
                             [2, 2], cfg, seed=3)
    gpu = GPU(cfg, launches, SchemeConfig(),
              obs=ObsOptions(trace=True, **options))
    return gpu.run(cycles)


class TestTracedSimulation:
    def test_trace_file_is_loadable_chrome_json(self, tmp_path):
        result = traced_run()
        path = tmp_path / "run.json"
        result.obs.write_trace(str(path))
        obj = json.loads(path.read_text())
        events = obj["traceEvents"]
        assert events, "a traced run must record events"
        assert obj["displayTimeUnit"] == "ms"
        for event in events:
            assert "ph" in event and "name" in event and "pid" in event

    def test_records_issue_slices_and_mem_lifetimes(self):
        result = traced_run()
        phases = {e["ph"] for e in result.obs.trace_events}
        # metadata, issue slices, async mem lifetimes, stage instants
        assert {"M", "X", "b", "n", "e"} <= phases
        begins = sum(e["ph"] == "b" for e in result.obs.trace_events)
        ends = sum(e["ph"] == "e" for e in result.obs.trace_events)
        assert begins > 0
        assert ends <= begins

    def test_coarser_sampling_records_fewer_events(self):
        fine = traced_run(trace_issue_sample=1, trace_mem_sample=1)
        coarse = traced_run(trace_issue_sample=64, trace_mem_sample=64)
        assert len(coarse.obs.trace_events) < len(fine.obs.trace_events)

    def test_event_cap_degrades_gracefully(self):
        result = traced_run(trace_max_events=50,
                            trace_issue_sample=1, trace_mem_sample=1)
        assert len(result.obs.trace_events) == 50
        assert result.obs.trace_dropped > 0

    def test_untraced_report_refuses_write(self, tmp_path):
        cfg = scaled_config()
        launches = make_launches([get_profile("bp")], [2], cfg, seed=3)
        gpu = GPU(cfg, launches, SchemeConfig(), obs=True)
        result = gpu.run(500)
        with pytest.raises(ValueError, match="no trace"):
            result.obs.write_trace(str(tmp_path / "x.json"))
