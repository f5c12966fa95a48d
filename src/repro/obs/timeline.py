"""Phase telemetry: interval time-series sampling + the mechanism-
adaptation event log.

The paper's two mechanisms are *adaptive* — DMIL's MILG recomputes each
kernel's in-flight cap every 1024 memory requests and QBMI re-derives
quotas from each kernel's windowed ``Req/Minst`` on the same cadence —
so end-of-run aggregates hide exactly the convergence/oscillation
dynamics that justify the designs.  :class:`PhaseSampler` records, every
``interval`` cycles (default 256), flat-array series per SM and per
co-running kernel:

* per-kernel IPC and issue-slot stall mix (*deltas* of the PR-2
  taxonomy, so the per-interval counts sum exactly to the aggregate
  :class:`~repro.obs.stalls.StallTable`);
* per-kernel warp instructions issued and L1D requests accepted
  (integer deltas of :class:`~repro.sim.stats.KernelStats`, summing
  exactly to the run's totals — the paper's Figure 8 and Figure 6
  series);
* per-kernel LSU stall reasons and windowed L1D miss rate;
* per-kernel in-flight memory instructions vs. the live DMIL cap, the
  QBMI quota and the windowed ``Req/Minst`` estimate (monitor-SM view);
* per-SM IPC, MSHR occupancy and miss-queue occupancy;
* DRAM bandwidth utilisation (serviced requests per channel-cycle).

Alongside the series, :meth:`PhaseSampler.log_adapt` accumulates one
:class:`AdaptEvent` per mechanism update — every MILG recompute and
every QBMI quota replenish — as ``(cycle, kernel, old -> new value,
window rsfail count, Req/Minst)``.

The sampler is *pull-based*: it consumes the hook-fed stall tables and
the simulator's pull statistics at interval boundaries, never feeding
anything back into the simulation, so sampler-on runs are bit-identical
to sampler-off runs (asserted in ``tests/test_timeline.py``).  Records
built by :meth:`PhaseSampler.snapshot` are plain JSON-safe dicts that
pickle across ``run_jobs`` workers and merge by list concatenation on
:class:`~repro.obs.collector.ObsReport` (trivially associative).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.stalls import (
    ISSUED,
    KERNEL_NONE,
    LSU_STALL_REASONS,
    SCHED_STALL_REASONS,
)

#: bump when the phase-record schema changes (see ``docs/TELEMETRY.md``).
PHASE_RECORD_VERSION = 1

#: mechanism labels for the adaptation event log (the ``log_adapt``
#: taxonomy — machine-checked by REPRO-S002).
ADAPT_MIL = "mil"
ADAPT_QBMI = "qbmi"
ADAPT_MECHANISMS: Tuple[str, ...] = (ADAPT_MIL, ADAPT_QBMI)

#: every scheduler issue-slot outcome the stall-mix series cover.
PHASE_SCHED_OUTCOMES: Tuple[str, ...] = (ISSUED,) + SCHED_STALL_REASONS


@dataclass(frozen=True)
class AdaptEvent:
    """One mechanism adaptation: a MILG limit recompute or one kernel's
    share of a QBMI quota replenish.

    ``old``/``new`` are the in-flight limit (``None`` = unlimited)
    for :data:`ADAPT_MIL`, or the remaining quota for
    :data:`ADAPT_QBMI`.  ``rsfails`` is the window's reservation-failure
    count (MIL only); ``req_per_minst`` the windowed estimate feeding
    the quota formula (QBMI only)."""

    cycle: int
    sm_id: int
    kernel: int
    mechanism: str
    old: Optional[int]
    new: Optional[int]
    rsfails: int = 0
    req_per_minst: Optional[int] = None

    def to_list(self) -> List[object]:
        """JSON-safe flat form (the order is part of the record schema)."""
        return [self.cycle, self.sm_id, self.kernel, self.mechanism,
                self.old, self.new, self.rsfails, self.req_per_minst]

    @classmethod
    def from_list(cls, row: Sequence[object]) -> "AdaptEvent":
        cycle, sm_id, kernel, mechanism, old, new, rsfails, rpm = row
        return cls(cycle, sm_id, kernel, mechanism, old, new, rsfails, rpm)


def adapt_events_from_record(record: Dict[str, object]) -> List[AdaptEvent]:
    """Rehydrate a phase record's event rows into :class:`AdaptEvent`."""
    return [AdaptEvent.from_list(row)
            for row in record.get("adapt_events", [])]


class PhaseSampler:
    """Windowed phase sampler for one observed run.

    Driven by the engine: on either machine ``GPU.run`` cuts its cycle
    loop at each interval boundary, settles what the machine owes for
    the cycles before it (``GPU.settle``) and calls ``on_cycle`` for
    the boundary's last cycle — once per interval, never per cycle.
    All reads are pull-based, so the sampler can never perturb
    simulation state.  ``snapshot`` is non-destructive — a partial
    tail interval is measured into the returned record without
    committing baselines, so mid-run reports stay exact and a later
    final report re-measures the (longer) tail correctly.
    """

    def __init__(self, interval: int):
        if interval < 1:
            raise ValueError("phase interval must be positive")
        self.interval = interval
        #: dotted series name -> one value per completed interval.
        self.series: Dict[str, List[float]] = {}
        self.adapt_events: List[AdaptEvent] = []
        #: completed (committed) interval samples.
        self.samples = 0
        #: cycles covered by committed samples.
        self._covered = 0
        # Delta baselines, committed at each interval boundary.
        self._prev_insts: Dict[int, int] = {}
        self._prev_reqs: Dict[int, int] = {}
        self._prev_kr: Dict[Tuple[int, str], int] = {}
        self._prev_sm_issued: Dict[int, int] = {}
        self._prev_lsu: Dict[Tuple[int, str], int] = {}
        self._prev_l1: Dict[int, Tuple[int, int]] = {}
        self._prev_dram = 0

    # ------------------------------------------------------------------
    # event log (fed by the Observability hook methods)
    def log_adapt(self, mechanism: str, cycle: int, sm_id: int, kernel: int,
                  old: Optional[int], new: Optional[int], rsfails: int = 0,
                  req_per_minst: Optional[int] = None) -> None:
        """Record one mechanism adaptation (MILG recompute / QBMI
        replenish share) at the current simulation cycle."""
        self.adapt_events.append(AdaptEvent(
            cycle, sm_id, kernel, mechanism, old, new, rsfails,
            req_per_minst))

    # ------------------------------------------------------------------
    # sampling
    def on_cycle(self, cycle: int, gpu) -> None:
        """Interval hook from the engine: ``cycle`` is the last cycle of
        an interval, every debt before it settled.  Commits the
        interval's sample (a cycle that ends no interval commits
        nothing)."""
        upto = cycle + 1
        if upto % self.interval == 0:
            self._append(self._measure(upto, gpu, commit=True))

    def _append(self, row: Dict[str, float]) -> None:
        series = self.series
        for name, value in row.items():
            bucket = series.get(name)
            if bucket is None:
                series[name] = [value]
            else:
                bucket.append(value)

    def _measure(self, upto: int, gpu, commit: bool) -> Dict[str, float]:
        """One sample row covering cycles ``[_covered, upto)``.

        Stall-mix entries are deltas of the live
        :class:`~repro.obs.stalls.StallTable`, so summing a series over
        all rows (including the snapshot tail) reproduces the aggregate
        taxonomy exactly — the invariant the phase tests assert.
        """
        window = upto - self._covered
        row: Dict[str, float] = {
            "cycle": float(upto),
            "window": float(window),
        }
        stats = gpu.kernel_stats
        slots = sorted(stats)
        obs = gpu.obs

        # Scheduler issue-slot outcomes: per-(kernel, reason) and
        # per-SM issued totals from one pass over the live table.
        cur_kr: Dict[Tuple[int, str], int] = {}
        cur_sm: Dict[int, int] = {}
        for (sm_id, _sched, kernel, reason), v in obs.stalls.sched.items():
            key = (kernel, reason)
            cur_kr[key] = cur_kr.get(key, 0) + v
            if reason == ISSUED:
                cur_sm[sm_id] = cur_sm.get(sm_id, 0) + v
        prev_kr = self._prev_kr
        for reason in PHASE_SCHED_OUTCOMES:
            total = 0
            for kernel in slots:
                key = (kernel, reason)
                delta = cur_kr.get(key, 0) - prev_kr.get(key, 0)
                row[f"k{kernel}.issue.{reason}"] = float(delta)
                total += delta
            key = (KERNEL_NONE, reason)
            total += cur_kr.get(key, 0) - prev_kr.get(key, 0)
            row[f"issue.{reason}"] = float(total)

        # LSU stall reasons (per-cycle counts, windowed deltas).
        cur_lsu: Dict[Tuple[int, str], int] = {}
        for (_sm, kernel, reason), v in obs.stalls.lsu.items():
            key = (kernel, reason)
            cur_lsu[key] = cur_lsu.get(key, 0) + v
        prev_lsu = self._prev_lsu
        for reason in LSU_STALL_REASONS:
            for kernel in slots:
                key = (kernel, reason)
                row[f"k{kernel}.lsu.{reason}"] = float(
                    cur_lsu.get(key, 0) - prev_lsu.get(key, 0))

        # Per-kernel warp instructions issued and L1D requests accepted
        # in the window (exact KernelStats deltas: the Fig. 8 and Fig. 6
        # series), IPC over the window (machine-wide, like
        # RunResult.ipc) and windowed L1D miss rate.
        prev_insts = self._prev_insts
        prev_reqs = self._prev_reqs
        for kernel in slots:
            delta = stats[kernel].warp_insts - prev_insts.get(kernel, 0)
            row[f"k{kernel}.warp_insts"] = delta
            row[f"k{kernel}.mem_requests"] = (
                stats[kernel].mem_requests - prev_reqs.get(kernel, 0))
            row[f"k{kernel}.ipc"] = delta / window if window else 0.0
        cur_l1: Dict[int, List[int]] = {kernel: [0, 0] for kernel in slots}
        for l1 in gpu.memory.l1s:
            l1_stats = l1.stats
            for kernel in slots:
                pair = cur_l1[kernel]
                pair[0] += l1_stats.accesses.get(kernel, 0)
                pair[1] += l1_stats.misses.get(kernel, 0)
        prev_l1 = self._prev_l1
        for kernel in slots:
            prev_acc, prev_miss = prev_l1.get(kernel, (0, 0))
            delta_acc = cur_l1[kernel][0] - prev_acc
            delta_miss = cur_l1[kernel][1] - prev_miss
            row[f"k{kernel}.l1d_miss_rate"] = (
                delta_miss / delta_acc if delta_acc else 0.0)

        # Per-SM occupancy gauges + per-SM IPC (issued slots/cycle).
        prev_sm = self._prev_sm_issued
        for sm in gpu.sms:
            sid = sm.sm_id
            delta = cur_sm.get(sid, 0) - prev_sm.get(sid, 0)
            row[f"sm{sid}.ipc"] = delta / window if window else 0.0
            row[f"sm{sid}.mshr"] = float(len(sm.l1.mshrs))
            row[f"sm{sid}.missq"] = float(len(sm.l1.miss_queue))

        # In-flight memory instructions vs. the live caps/quotas.
        # Limits and quotas are the monitor SM's (SM 0) view — exact
        # for global DMIL and per-SM QBMI on SM 0, representative for
        # local DMIL (documented in docs/TELEMETRY.md).
        inflight = {kernel: 0 for kernel in slots}
        for sm in gpu.sms:
            for kernel, kstate in sm.kstate.items():
                inflight[kernel] += kstate.inflight_minsts
        monitor = gpu.sms[0]
        limits = monitor.bundle.limiter.limits()
        policy = monitor.bundle.mem_policy
        quotas = getattr(policy, "quotas", None)
        estimators = getattr(policy, "estimators", None)
        for kernel in slots:
            row[f"k{kernel}.inflight"] = float(inflight[kernel])
            limit = limits[kernel] if kernel < len(limits) else None
            row[f"k{kernel}.mil_limit"] = (
                -1.0 if limit is None else float(limit))
            if quotas is not None:
                row[f"k{kernel}.quota"] = float(quotas[kernel])
            if estimators is not None:
                row[f"k{kernel}.req_per_minst"] = float(
                    estimators[kernel].value)

        # DRAM bandwidth utilisation: serviced requests per
        # channel-cycle over the window.
        serviced = gpu.memory.dram.total_serviced()
        channels = len(gpu.memory.dram.channels)
        delta = serviced - self._prev_dram
        row["dram.bw_util"] = (
            delta / (window * channels) if window else 0.0)

        if commit:
            self._prev_kr = cur_kr
            self._prev_sm_issued = cur_sm
            self._prev_lsu = cur_lsu
            self._prev_insts = {kernel: stats[kernel].warp_insts
                                for kernel in slots}
            self._prev_reqs = {kernel: stats[kernel].mem_requests
                               for kernel in slots}
            self._prev_l1 = {kernel: (cur_l1[kernel][0], cur_l1[kernel][1])
                             for kernel in slots}
            self._prev_dram = serviced
            self._covered = upto
            self.samples += 1
        return row

    # ------------------------------------------------------------------
    # collection
    def snapshot(self, gpu) -> Dict[str, object]:
        """One self-describing, JSON-safe phase record for the run.

        If the run length is not a multiple of the interval, the
        partial tail is measured into the record without committing it,
        so repeated snapshots (mid-run reports, final collection) each
        cover every simulated cycle exactly once.
        """
        series = {name: list(values) for name, values in self.series.items()}
        cycles = gpu.cycles_run
        if cycles > self._covered:
            tail = self._measure(cycles, gpu, commit=False)
            for name, value in tail.items():
                bucket = series.get(name)
                if bucket is None:
                    series[name] = [value]
                else:
                    bucket.append(value)
        return {
            "version": PHASE_RECORD_VERSION,
            "interval": self.interval,
            "cycles": cycles,
            "num_sms": gpu.config.num_sms,
            "kernel_names": [launch.profile.name
                             for launch in gpu.launches],
            "series": series,
            "adapt_events": [event.to_list()
                             for event in self.adapt_events],
        }


def merge_phase_records(groups: Sequence[List[Dict[str, object]]]
                        ) -> List[Dict[str, object]]:
    """Cross-worker merge for phase records: concatenation.

    Each record describes one observed run's timeline; merging campaign
    cells keeps every timeline intact (the dashboard renders one panel
    per record).  Concatenation is associative, so the parent may merge
    worker results in any grouping and get the same ledger.
    """
    merged: List[Dict[str, object]] = []
    for group in groups:
        merged.extend(group)
    return merged
