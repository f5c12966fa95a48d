"""Observability layer for the simulator and the experiment harness.

The package turns the paper's "look inside the memory pipeline"
methodology (§2.3–§2.4, Figures 3/6/8) into first-class, queryable
instrumentation:

* :mod:`repro.obs.stalls` — the stall-attribution taxonomy: every
  cycle a warp scheduler fails to issue is classified (scoreboard,
  LSU reservation failure by resource, BMI arbitration loss, MIL cap,
  SMK quota gate, no-ready-warp, ...) into per-kernel/per-SM counters;
* :mod:`repro.obs.trace` — a Chrome trace-event recorder (Perfetto /
  ``chrome://tracing``) of warp issue slices, memory request lifetimes
  and DMIL/QBMI quota-change instants, behind sampling controls;
* :mod:`repro.obs.telemetry` — live heartbeat/progress telemetry for
  parallel experiment campaigns;
* :mod:`repro.obs.timeline` — the phase sampler: interval time-series
  (IPC, stall mix, occupancies, DMIL caps, QBMI quotas, DRAM
  bandwidth) plus the mechanism-adaptation event log;
* :mod:`repro.obs.ledger` — durable versioned JSON run artifacts
  (config fingerprint, git sha, metrics, phase records);
* :mod:`repro.obs.dash` / :mod:`repro.obs.compare` — the standalone
  HTML dashboard renderer and the ``repro compare`` regression gate;
* :mod:`repro.obs.collector` — :class:`Observability`, the per-run
  façade the engine wires through the SMs, schedulers, LSUs and the
  memory backend, and :class:`ObsReport`, the one record of an
  observed run (stall tables, phase records, trace);
* :mod:`repro.obs.registry` — the process-wide counters of the
  simulator's infrastructure (``trace_cache.*``).

Everything is zero-cost when disabled: instrumentation hooks in the
simulator's hot paths are sentinel-checked (``if self._obs is not
None``) and the fast cycle loop stays bit-identical with observability
off.  With observability *on* the run is still the production machine
(``reference`` alone picks the oracle): cycles it does not execute one
by one are attributed in batches and settled before anything reads
them, and the report equals the observed oracle's field for field
(docs/PERF.md, "Attribution debts") — the simulated results are
bit-identical either way.
"""

from repro.obs.collector import Observability, ObsOptions, ObsReport
from repro.obs.compare import Comparison, compare_paths, format_comparison
from repro.obs.dash import render_dashboard, write_dashboard
from repro.obs.ledger import (
    ARTIFACT_VERSION,
    artifact_from_outcome,
    load_artifacts,
    write_artifacts,
)
from repro.obs.registry import process_registry
from repro.obs.stalls import (
    ISSUED,
    LSU_STALL_REASONS,
    SCHED_STALL_REASONS,
    STALL_BMI_LOSS,
    STALL_EXEC_PORT,
    STALL_LSU_FULL,
    STALL_MIL_CAPPED,
    STALL_NO_WARP,
    STALL_OTHER,
    STALL_SCOREBOARD,
    STALL_SMK_GATE,
    StallTable,
    format_stall_report,
)
from repro.obs.telemetry import CampaignTelemetry, JobHeartbeat
from repro.obs.timeline import (
    ADAPT_MECHANISMS,
    ADAPT_MIL,
    ADAPT_QBMI,
    AdaptEvent,
    DEFAULT_PHASE_INTERVAL,
    PhaseSampler,
    adapt_events_from_record,
    merge_phase_records,
)
from repro.obs.trace import TraceRecorder

__all__ = [
    "ADAPT_MECHANISMS",
    "ADAPT_MIL",
    "ADAPT_QBMI",
    "ARTIFACT_VERSION",
    "AdaptEvent",
    "CampaignTelemetry",
    "Comparison",
    "DEFAULT_PHASE_INTERVAL",
    "ISSUED",
    "JobHeartbeat",
    "LSU_STALL_REASONS",
    "Observability",
    "ObsOptions",
    "ObsReport",
    "PhaseSampler",
    "SCHED_STALL_REASONS",
    "STALL_BMI_LOSS",
    "STALL_EXEC_PORT",
    "STALL_LSU_FULL",
    "STALL_MIL_CAPPED",
    "STALL_NO_WARP",
    "STALL_OTHER",
    "STALL_SCOREBOARD",
    "STALL_SMK_GATE",
    "StallTable",
    "TraceRecorder",
    "adapt_events_from_record",
    "artifact_from_outcome",
    "compare_paths",
    "format_comparison",
    "format_stall_report",
    "load_artifacts",
    "merge_phase_records",
    "process_registry",
    "render_dashboard",
    "write_artifacts",
    "write_dashboard",
]
