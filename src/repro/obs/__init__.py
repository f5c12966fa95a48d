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

# The one name a package binds: ``benchmarks/e2e/worker.py`` reads the
# counters as ``from repro.obs import process_registry``, so importing
# this package loads ``registry`` (a leaf that imports no repro code).
from repro.obs.registry import process_registry  # noqa: F401
