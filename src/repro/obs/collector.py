"""The per-run observability façade the engine wires into components.

One :class:`Observability` instance lives on a :class:`~repro.sim.engine.GPU`
built with ``obs=...``.  The engine hands it to the SMs, the LSUs, the
memory subsystem and (via :meth:`Observability.attach`) the scheme
mechanisms (DMIL's MILGs, QBMI); each hook site sentinel-checks its
``_obs`` handle so the cost with observability off is one attribute
test — the fast cycle loop stays bit-identical and inside the perf
thresholds.  ``obs`` does not pick the machine: attached to the
production machine (the default) the hooks below are fed in batches
wherever it skips cycles — ``lsu_rsfail`` takes a count, owed issue
slots are paid into :attr:`Observability.stalls` when a stretch ends —
and :meth:`Observability.report` has the engine settle first, so the
report equals the per-cycle oracle's.

At collection time :meth:`Observability.report` copies the stall
tables, the phase record and the trace into one :class:`ObsReport` — a
plain-data, picklable record that survives the parallel-campaign
worker boundary and merges across workers.  The simulator's own
statistics (cache, LSU, interconnect, L2, DRAM) travel on the
:class:`~repro.sim.stats.RunResult` beside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.stalls import StallTable
from repro.obs.timeline import (
    ADAPT_MIL,
    ADAPT_QBMI,
    PhaseSampler,
    merge_phase_records,
)
from repro.obs.trace import DEFAULT_MAX_EVENTS, TraceRecorder, write_trace_events


@dataclass(frozen=True)
class ObsOptions:
    """What to record for one observed run."""

    #: record a Chrome trace (warp issue slices, memory request
    #: lifetimes, quota-change instants).
    trace: bool = False
    #: record every Nth warp-issue slice.
    trace_issue_sample: int = 16
    #: trace every Nth L1D request's lifetime.
    trace_mem_sample: int = 4
    #: hard cap on buffered trace events.
    trace_max_events: int = DEFAULT_MAX_EVENTS
    #: record interval time-series + the adaptation event log
    #: (:mod:`repro.obs.timeline`) every this many cycles; ``None``
    #: runs no phase sampler.
    phase_interval: Optional[int] = None


class Observability:
    """Live instrumentation state for one simulated run."""

    def __init__(self, options: Optional[ObsOptions] = None):
        self.options = options or ObsOptions()
        self.stalls = StallTable()
        #: current simulation cycle, maintained by the engine's sampled
        #: loops; timestamps the adaptation event log.
        self.cycle = 0
        self.sampler: Optional[PhaseSampler] = None
        if self.options.phase_interval is not None:
            self.sampler = PhaseSampler(self.options.phase_interval)
        self.trace: Optional[TraceRecorder] = None
        if self.options.trace:
            self.trace = TraceRecorder(
                max_events=self.options.trace_max_events,
                issue_sample=self.options.trace_issue_sample,
                mem_sample=self.options.trace_mem_sample)

    # ------------------------------------------------------------------
    # wiring
    def attach(self, gpu) -> None:
        """Hook the mechanisms the engine cannot reach at construction
        time: DMIL's MILGs and QBMI's quota machinery (duck-typed so
        this module never imports the scheme classes)."""
        for sm in gpu.sms:
            bundle = sm.bundle
            limiter = bundle.limiter
            # Global DMIL: instrument the shared core once (monitor SM).
            core = getattr(limiter, "shared", limiter)
            milgs = getattr(core, "milgs", None)
            if milgs is not None:
                for kernel, milg in enumerate(milgs):
                    if milg._obs is None:
                        milg._obs = self
                        milg._obs_key = (sm.sm_id, kernel)
            policy = bundle.mem_policy
            if hasattr(policy, "_obs") and policy._obs is None:
                policy._obs = self
                policy._obs_key = sm.sm_id
            if self.trace is not None:
                self.trace.name_process(sm.sm_id, f"SM {sm.sm_id}")
                for sched in sm.schedulers:
                    self.trace.name_thread(sm.sm_id, sched.sched_id,
                                           f"sched {sched.sched_id}")

    # ------------------------------------------------------------------
    # hot-path hooks (every caller sentinel-checks `_obs is not None`)
    def lsu_rsfail(self, sm_id: int, kernel: int, reason: str,
                   count: int = 1) -> None:
        """``count`` stalled LSU cycles attributed to the failing
        resource (the production LSU reports a stretch of memoised
        replays in one call, see ``LoadStoreUnit._flush_stall_debt``)."""
        self.stalls.bump_lsu(sm_id, kernel, reason, count)

    def issue_event(self, sm_id: int, sched_id: int, kernel: int, op: str,
                    cycle: int) -> None:
        """A warp instruction issued (trace slice, sampled)."""
        trace = self.trace
        if trace is not None and trace.want_issue():
            trace.complete(op, "issue", sm_id, sched_id, cycle, 1,
                           args={"kernel": kernel})

    def mem_request_created(self, request, cycle: int) -> None:
        """The LSU materialised a new L1D request; maybe start tracing
        its lifetime."""
        trace = self.trace
        if trace is None:
            return
        event_id = trace.next_mem_id()
        if event_id is None:
            return
        request.trace_id = event_id
        kind = "store" if request.is_write else "load"
        trace.async_begin(f"mem:{kind}", "mem", request.sm_id, event_id,
                          cycle, args={"kernel": request.kernel,
                                       "line": request.line})

    def mem_request_l1(self, request, result: str, cycle: int) -> None:
        """A traced request's L1D outcome (hit / miss / bypass)."""
        trace = self.trace
        if trace is None or request.trace_id is None:
            return
        trace.async_instant(f"l1d:{result}", "mem", request.sm_id,
                            request.trace_id, cycle)
        if result == "hit":
            trace.async_end("mem:load", "mem", request.sm_id,
                            request.trace_id, cycle)
            request.trace_id = None

    def mem_request_stage(self, request, stage: str, cycle: int) -> None:
        """A traced request reached a backend stage (to-L2, L2 hit/miss,
        DRAM enqueue, ...)."""
        trace = self.trace
        if trace is None or request.trace_id is None:
            return
        trace.async_instant(stage, "mem", request.sm_id, request.trace_id,
                            cycle)

    def mem_request_done(self, request, cycle: int) -> None:
        """A traced request's data came back (or its write drained)."""
        trace = self.trace
        if trace is None or request.trace_id is None:
            return
        kind = "store" if request.is_write else "load"
        trace.async_end(f"mem:{kind}", "mem", request.sm_id,
                        request.trace_id, cycle)
        request.trace_id = None

    def mil_update(self, key: Tuple[int, int], old_limit: Optional[int],
                   limit: Optional[int], window_rsfails: int,
                   windows: int) -> None:
        """A MILG recomputed its in-flight limit (DMIL quota change).

        ``old_limit``/``window_rsfails`` are captured *before* the MILG
        resets its window so the adaptation log can show the
        ``old -> new`` transition and what drove it."""
        sm_id, kernel = key
        sampler = self.sampler
        if sampler is not None:
            sampler.log_adapt(ADAPT_MIL, self.cycle, sm_id, kernel,
                              old_limit, limit, rsfails=window_rsfails)
        trace = self.trace
        if trace is not None:
            shown = -1 if limit is None else limit
            trace.instant("dmil:limit", "quota", sm_id, windows,
                          args={"kernel": kernel, "limit": shown})
            trace.counter(f"dmil limit k{kernel}", sm_id, windows,
                          {"limit": float(shown)})

    def qbmi_replenish(self, sm_id: int, old_quotas: Sequence[int],
                       quotas: Sequence[int],
                       estimates: Sequence[int]) -> None:
        """QBMI re-armed its per-kernel quota set.  ``old_quotas`` is
        the (possibly exhausted) set before the replenish, ``estimates``
        the windowed Req/Minst values the fresh quotas derive from."""
        sampler = self.sampler
        if sampler is not None:
            for kernel, new in enumerate(quotas):
                sampler.log_adapt(ADAPT_QBMI, self.cycle, sm_id, kernel,
                                  old_quotas[kernel], new,
                                  req_per_minst=estimates[kernel])
        trace = self.trace
        if trace is not None:
            trace.instant("qbmi:replenish", "quota", sm_id, 0,
                          args={"quotas": list(quotas)})

    # ------------------------------------------------------------------
    # collection
    def report(self, gpu) -> "ObsReport":
        """Snapshot everything into a plain-data report.  Callable
        mid-run or at the end; the machine first settles what it owes
        (``GPU.settle``), so batched attribution and deferred LSU
        replays are all in."""
        gpu.settle()
        cfg = gpu.config
        sampler = self.sampler
        phases: List[Dict[str, object]] = []
        if sampler is not None:
            phases.append(sampler.snapshot(gpu))

        return ObsReport(
            cycles=gpu.cycles_run,
            num_sms=cfg.num_sms,
            schedulers_per_sm=cfg.schedulers_per_sm,
            kernel_names=[launch.profile.name for launch in gpu.launches],
            sched_stalls=dict(self.stalls.sched),
            lsu_stalls=dict(self.stalls.lsu),
            trace_events=(list(self.trace.events)
                          if self.trace is not None else None),
            trace_dropped=(self.trace.dropped
                           if self.trace is not None else 0),
            phases=phases,
        )


@dataclass
class ObsReport:
    """Plain-data snapshot of one (or several merged) observed runs.

    Every field pickles, so reports ride inside
    :class:`~repro.sim.stats.RunResult` across the parallel-campaign
    worker boundary and merge in the parent with :meth:`merged`.
    """

    cycles: int
    num_sms: int
    schedulers_per_sm: int
    kernel_names: List[str]
    #: (sm, sched, kernel, reason) -> count
    sched_stalls: Dict[Tuple[int, int, int, str], int] = field(
        default_factory=dict)
    #: (sm, kernel, reason) -> stalled LSU cycles
    lsu_stalls: Dict[Tuple[int, int, str], int] = field(default_factory=dict)
    trace_events: Optional[List[Dict[str, object]]] = None
    trace_dropped: int = 0
    #: phase records (one per observed run with the sampler on) —
    #: JSON-safe dicts, schema in :mod:`repro.obs.timeline`.
    phases: List[Dict[str, object]] = field(default_factory=list)

    # ------------------------------------------------------------------
    def stall_table(self) -> StallTable:
        table = StallTable()
        table.sched.update(self.sched_stalls)
        table.lsu.update(self.lsu_stalls)
        return table

    def issue_slots(self) -> int:
        return self.cycles * self.num_sms * self.schedulers_per_sm

    def kernel_label(self, slot: int) -> str:
        if 0 <= slot < len(self.kernel_names):
            return f"{self.kernel_names[slot]}#{slot}"
        return f"k{slot}"

    def lsu_stall_share(self) -> float:
        """Stalled-LSU-cycle share of SM-cycles — matches
        ``RunResult.lsu_stall_pct()`` exactly (one taxonomy entry is
        recorded per stalled LSU cycle)."""
        denom = self.cycles * self.num_sms
        return sum(self.lsu_stalls.values()) / denom if denom else 0.0

    def sched_stall_shares(self,
                           kernel: Optional[int] = None) -> Dict[str, float]:
        """Scheduler outcome shares of the total issue slots."""
        slots = self.issue_slots()
        if not slots:
            return {}
        table = self.stall_table()
        return {reason: count / slots
                for reason, count in table.sched_by_reason(kernel).items()}

    def write_trace(self, path: str) -> None:
        if self.trace_events is None:
            raise ValueError("this report carries no trace "
                             "(run with ObsOptions(trace=True))")
        write_trace_events(path, self.trace_events, self.trace_dropped)

    # ------------------------------------------------------------------
    @staticmethod
    def merged(reports: Sequence["ObsReport"]) -> "ObsReport":
        """Combine reports from parallel campaign cells/workers:
        stall counts, cycle totals and dropped trace events add, phase
        records concatenate, kernel names keep the first report's
        labels."""
        if not reports:
            raise ValueError("need at least one report")
        first = reports[0]
        out = ObsReport(
            cycles=0,
            num_sms=first.num_sms,
            schedulers_per_sm=first.schedulers_per_sm,
            kernel_names=list(first.kernel_names),
        )
        for report in reports:
            out.cycles += report.cycles
            for key, v in report.sched_stalls.items():
                out.sched_stalls[key] = out.sched_stalls.get(key, 0) + v
            for key, v in report.lsu_stalls.items():
                out.lsu_stalls[key] = out.lsu_stalls.get(key, 0) + v
            out.trace_dropped += report.trace_dropped
        out.phases = merge_phase_records([report.phases
                                          for report in reports])
        return out


#: accepted spellings for "turn observability on" at API boundaries.
ObsLike = Union[None, bool, ObsOptions]


def resolve_obs(obs: ObsLike) -> Optional[Observability]:
    """Normalise the ``obs=`` argument accepted by the engine/runner:
    ``None``/``False`` → off, ``True`` → default options, an
    :class:`ObsOptions` → a fresh collector with those options."""
    if obs is None or obs is False:
        return None
    if obs is True:
        return Observability()
    if isinstance(obs, ObsOptions):
        return Observability(obs)
    raise TypeError(f"cannot interpret obs={obs!r}")
