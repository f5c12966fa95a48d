"""Live telemetry for parallel experiment campaigns.

``run_jobs`` accepts any ``progress`` callable taking one
:class:`JobHeartbeat` per finished job; :class:`CampaignTelemetry` is
the standard consumer — it tracks throughput (jobs/s and simulated
cycles/s), estimates time remaining from the per-job cycle budgets,
and (optionally) prints one heartbeat line per completed job:

.. code-block:: text

    [ 12/48  25.0%] mix rbmi+dmil mc+mc          2.31s   1.4Mcyc/s  eta 83s
    [ 13/48  27.1%] iso mc (cache)               0.00s              eta 78s

Cache hits are flagged and excluded from the throughput estimate so a
warm rerun doesn't report absurd cycle rates.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import IO, List, Optional


@dataclass(frozen=True)
class JobHeartbeat:
    """One campaign job event, as seen by the dispatching parent.

    Most beats are completions (``event="done"``); the dispatcher
    (:mod:`repro.harness.resilience`) additionally emits
    ``"retry"`` (an attempt failed, the cell will run again — not a
    completion), ``"quarantined"`` (retry budget exhausted, the cell's
    slot holds a placeholder) and ``"resumed"`` (replayed from the
    checkpoint journal without executing).
    """

    index: int          #: 1-based completion index
    total: int          #: total jobs in the campaign
    label: str          #: human label, e.g. ``"mix rbmi+dmil mc+mc"``
    duration_s: float   #: wall-clock seconds inside the worker (0 if cached)
    sim_cycles: int     #: simulated cycles the job covers (its budget)
    cache_hit: bool = False
    attempt: int = 1    #: 1-based attempt number (2+ after a retry)
    event: str = "done"           #: done | retry | quarantined | resumed
    fault: Optional[str] = None   #: what failed, e.g. ``"timeout"``

    @property
    def cycles_per_s(self) -> float:
        if self.cache_hit or self.duration_s <= 0:
            return 0.0
        return self.sim_cycles / self.duration_s

    @property
    def completed(self) -> bool:
        """Whether this beat fills the cell's result slot (retry beats
        report churn, not progress)."""
        return self.event != "retry"


class CampaignTelemetry:
    """Progress consumer for ``run_jobs``/``run_campaign_resilient``.

    Pass the instance itself as the ``progress`` callback.  Thread-safe
    enough for the harness's usage: heartbeats arrive from the single
    dispatching thread (the dispatcher's poll loop), never from workers.
    """

    def __init__(self, stream: Optional[IO[str]] = None, quiet: bool = False):
        self.stream = stream if stream is not None else sys.stderr
        self.quiet = quiet
        self.heartbeats: List[JobHeartbeat] = []
        self._started = time.monotonic()
        self._sim_cycles_done = 0
        self._busy_seconds = 0.0
        self._cache_hits = 0
        self._completed = 0
        self._retries = 0
        self._quarantined = 0
        self._resumed = 0

    # ------------------------------------------------------------------
    def __call__(self, beat: JobHeartbeat) -> None:
        self.heartbeats.append(beat)
        if not beat.completed:
            # A failed attempt: churn, not progress.  Its wall-clock is
            # excluded from the pace estimate — retried work shows up
            # again in the successful attempt's beat.
            self._retries += 1
        else:
            self._completed += 1
            if beat.event == "quarantined":
                self._quarantined += 1
            elif beat.event == "resumed":
                self._resumed += 1
            if beat.cache_hit:
                self._cache_hits += 1
            else:
                self._sim_cycles_done += beat.sim_cycles
                self._busy_seconds += beat.duration_s
        if not self.quiet:
            self.stream.write(self.format_beat(beat) + "\n")
            self.stream.flush()

    # ------------------------------------------------------------------
    # derived figures
    @property
    def jobs_done(self) -> int:
        return self._completed

    @property
    def cache_hits(self) -> int:
        return self._cache_hits

    @property
    def retries(self) -> int:
        return self._retries

    @property
    def quarantined(self) -> int:
        return self._quarantined

    @property
    def resumed(self) -> int:
        return self._resumed

    def elapsed_s(self) -> float:
        return time.monotonic() - self._started

    def cycles_per_s(self) -> float:
        """Aggregate simulated-cycle throughput over uncached jobs
        (sum of worker-side busy time, so parallel workers show the
        per-worker rate, not an inflated wall-clock rate)."""
        if self._busy_seconds <= 0:
            return 0.0
        return self._sim_cycles_done / self._busy_seconds

    def eta_s(self) -> Optional[float]:
        """Wall-clock estimate for the remaining jobs, from the mean
        wall-clock pace of *uncached* jobs so far.  Cache hits complete
        instantly, so counting them in the pace (or dividing wall-clock
        by a done-count dominated by hits, with elapsed ≈ 0) would
        grossly understate the remaining time on a warm rerun.  ``None``
        before the first heartbeat or until an uncached job has
        finished."""
        done = self.jobs_done
        if not done or not self.heartbeats:
            return None
        total = self.heartbeats[-1].total
        remaining = max(0, total - done)
        if not remaining:
            return 0.0
        uncached = done - self._cache_hits
        if not uncached:
            # Only instant cache hits so far: no usable pace signal.
            return None
        elapsed = self.elapsed_s()
        if elapsed <= 0:
            return None
        return remaining * (elapsed / uncached)

    # ------------------------------------------------------------------
    # rendering
    def format_beat(self, beat: JobHeartbeat) -> str:
        pct = 100.0 * beat.index / beat.total if beat.total else 0.0
        head = f"[{beat.index:3d}/{beat.total:<3d} {pct:5.1f}%]"
        label = beat.label if len(beat.label) <= 28 else beat.label[:25] + "..."
        if beat.event == "retry":
            return (f"{head} {label:<36} !retry: attempt "
                    f"{beat.attempt} failed ({beat.fault})")
        if beat.event == "quarantined":
            return (f"{head} {label:<36} !quarantined after "
                    f"{beat.attempt} attempts ({beat.fault})")
        if beat.cache_hit:
            marker = " (journal)" if beat.event == "resumed" else " (cache)"
            mid = f"{label + marker:<36} {beat.duration_s:6.2f}s"
            rate = " " * 11
        else:
            mid = f"{label:<36} {beat.duration_s:6.2f}s"
            rate_v = self.cycles_per_s()
            if not rate_v:
                rate = " " * 11
            elif rate_v >= 1e6:
                rate = f" {rate_v / 1e6:5.1f}Mc/s"
            else:
                rate = f" {rate_v / 1e3:5.0f}kc/s"
        eta = self.eta_s()
        tail = f"  eta {eta:4.0f}s" if eta is not None else ""
        return f"{head} {mid}{rate}{tail}"

    def summary(self) -> str:
        """One closing line for the campaign."""
        done = self.jobs_done
        elapsed = self.elapsed_s()
        rate = self.cycles_per_s()
        bits = [f"{done} jobs in {elapsed:.1f}s"]
        if self._cache_hits:
            bits.append(f"{self._cache_hits} cached")
        if self._resumed:
            bits.append(f"{self._resumed} resumed")
        if self._retries:
            bits.append(f"{self._retries} retries")
        if self._quarantined:
            bits.append(f"{self._quarantined} quarantined")
        if rate >= 1e6:
            bits.append(f"{rate / 1e6:.1f}M sim-cycles/s per worker")
        elif rate:
            bits.append(f"{rate / 1e3:.0f}k sim-cycles/s per worker")
        return "campaign: " + ", ".join(bits)

