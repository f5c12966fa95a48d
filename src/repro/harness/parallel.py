"""The campaign job model: what one unit of simulation work is, how it
is executed, and what the parent knows about it before dispatch.

Experiment campaigns in this repo are embarrassingly parallel — every
isolated run, every scalability-curve point and every mix×scheme cell
is an independent simulation.  This module describes each unit of work
as a small picklable job dataclass:

* ``IsoJob``   — one kernel alone at one TB count (normalisation runs);
* ``CurveJob`` — one kernel's full scalability curve (Warped-Slicer
  profiling, paper §2.5 / Fig. 3a);
* ``MixJob``   — one concurrent mix under one scheme (a campaign cell).

Jobs reference kernels by their short profile names so they pickle in
a few bytes; each worker process rebuilds a private
:class:`~repro.harness.runner.ExperimentRunner` from the parent's
config/settings, pre-seeded with the isolated records and curves the
parent already holds so it never re-derives shared inputs
(:func:`seeded_runner`).  The shared on-disk cache (``.repro_cache``)
is written atomically (temp file + ``os.replace`` — see ``runner.py``)
so concurrent workers cannot corrupt records.

There is one dispatcher, :func:`repro.harness.resilience.run_jobs_resilient`
(dedup, journal replay, parent-cache probe, cost ordering, worker
processes or the in-process loop, retry/quarantine accounting).
:func:`run_jobs` here is its plain-policy spelling (and
``ExperimentRunner.run_campaign`` the campaign one): no timeout, no
retries, no quarantine, no journal — the first failing cell raises
:class:`~repro.harness.resilience.JobError`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cke.warped_slicer import ScalabilityCurve
from repro.harness.runner import ExperimentRunner, IsoRecord, RunnerSettings
from repro.obs.telemetry import JobHeartbeat
from repro.workloads.mixes import WorkloadMix
from repro.workloads.profiles import get_profile

#: environment override for the default worker count.
WORKERS_ENV = "REPRO_BENCH_WORKERS"


def requested_workers(workers: Optional[int] = None) -> int:
    """The parallelism a batch asks for: an explicit ``workers`` (never
    below 1), else ``$REPRO_BENCH_WORKERS``, else the CPU count.  A set
    ``$REPRO_BENCH_WORKERS`` that is not a positive integer raises
    ``ValueError`` rather than silently running on every CPU."""
    if workers is not None:
        return max(1, workers)
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value < 1:
            raise ValueError(
                f"{WORKERS_ENV} must be a positive integer, got {env!r}")
        return value
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# job descriptions (frozen → hashable → dedupable; tiny → cheap pickles)
@dataclass(frozen=True)
class IsoJob:
    """One isolated run of ``kernel`` at ``tbs`` TBs per SM."""

    kernel: str
    tbs: Optional[int] = None
    cycles: Optional[int] = None


@dataclass(frozen=True)
class CurveJob:
    """One kernel's full scalability curve (all TB counts)."""

    kernel: str


@dataclass(frozen=True)
class MixJob:
    """One concurrent mix under one scheme.

    ``obs=True`` runs the cell with the observability layer attached:
    the outcome's ``result.obs`` carries a picklable
    :class:`~repro.obs.collector.ObsReport` (stall taxonomy + counter
    snapshot) back across the worker boundary, mergeable in the parent
    with ``ObsReport.merged``.

    ``phase_interval`` additionally turns on the phase sampler
    (:mod:`repro.obs.timeline`) at that cycle interval — the report
    then also carries the run's phase records and adaptation event
    log (implies ``obs``)."""

    kernels: Tuple[str, ...]
    scheme: str = "ws"
    cycles: Optional[int] = None
    obs: bool = False
    phase_interval: Optional[int] = None


Job = Union[IsoJob, CurveJob, MixJob]


# ----------------------------------------------------------------------
# job execution (worker processes and the in-process loop share it)
def execute_job(runner: ExperimentRunner, job: Job):
    """Run one job on ``runner`` (shared by workers and serial mode)."""
    if isinstance(job, IsoJob):
        return runner.isolated(get_profile(job.kernel), job.tbs, job.cycles)
    if isinstance(job, CurveJob):
        return runner.curve(get_profile(job.kernel))
    if isinstance(job, MixJob):
        mix = WorkloadMix(tuple(get_profile(k) for k in job.kernels))
        obs: object = job.obs or None
        if job.phase_interval:
            from repro.obs.collector import ObsOptions
            obs = ObsOptions(phase=True, phase_interval=job.phase_interval)
        return runner.run_mix(mix, job.scheme, cycles=job.cycles, obs=obs)
    raise TypeError(f"unknown job type {type(job).__name__}")


# ----------------------------------------------------------------------
# parent-side cache installation
def _install_iso(runner: ExperimentRunner, record: IsoRecord,
                 cycles: Optional[int]) -> None:
    # ``isolated()`` resolves a default (None) TB count before its
    # cache lookup, so keying by the record's resolved count serves
    # both explicit and default-TB requests.
    cycles = cycles or runner.settings.iso_cycles
    runner._iso_cache[runner._iso_key(record.name, record.tbs, cycles)] \
        = record


def _install_curve(runner: ExperimentRunner, curve: ScalabilityCurve) -> None:
    key = (runner._cfg_key, curve.kernel, runner.settings.curve_cycles,
           runner.settings.seed, _cache_version())
    runner._curve_cache[key] = curve


def _cache_version() -> int:
    from repro.harness.runner import CACHE_VERSION
    return CACHE_VERSION


def _absorb(runner: ExperimentRunner, job: Job, result) -> None:
    """Install a worker's result into the parent runner's caches."""
    if isinstance(job, IsoJob):
        _install_iso(runner, result, job.cycles)
    elif isinstance(job, CurveJob):
        _install_curve(runner, result)


def _seed_payload(runner: ExperimentRunner):
    """Everything the parent's in-memory caches hold, as initargs.

    ``_iso_key`` is ``(version, cfg, name, tbs, cycles, seed)`` — the
    cycle budget rides along so the worker re-keys records exactly."""
    iso_seed = [(key[4], record)
                for key, record in runner._iso_cache.items()]
    curve_seed = list(runner._curve_cache.values())
    return iso_seed, curve_seed


def seeded_runner(config, settings: RunnerSettings, cache_dir: Optional[str],
                  iso_seed: Sequence[Tuple[Optional[int], IsoRecord]],
                  curve_seed: Sequence[ScalabilityCurve]) -> ExperimentRunner:
    """A worker process's private runner, pre-seeded with everything
    the parent already knows so shared inputs are never recomputed.

    Constructing the runner also points the kernel-trace disk cache at
    ``cache_dir/traces-v<CACHE_VERSION>`` (see ``ExperimentRunner``),
    so workers share compiled trace chunks with the parent and a
    version bump invalidates both caches together."""
    runner = ExperimentRunner(config, settings, cache_dir=cache_dir)
    for cycles, record in iso_seed:
        _install_iso(runner, record, cycles)
    for curve in curve_seed:
        _install_curve(runner, curve)
    return runner


# ----------------------------------------------------------------------
# what the parent knows about a job before dispatch
_CACHE_MISS = object()

#: per-finished-job progress callback (campaign telemetry).
ProgressFn = Callable[[JobHeartbeat], None]


def _probe_cache(runner: ExperimentRunner, job: Job):
    """The parent-side cached result for ``job``, or ``_CACHE_MISS``:
    a job the parent's in-memory caches already answer is never
    dispatched."""
    if isinstance(job, IsoJob):
        tbs = job.tbs
        if tbs is None:
            tbs = get_profile(job.kernel).max_tbs_per_sm(runner.config)
        cycles = job.cycles or runner.settings.iso_cycles
        key = runner._iso_key(job.kernel, tbs, cycles)
        return runner._iso_cache.get(key, _CACHE_MISS)
    if isinstance(job, CurveJob):
        key = (runner._cfg_key, job.kernel, runner.settings.curve_cycles,
               runner.settings.seed, _cache_version())
        return runner._curve_cache.get(key, _CACHE_MISS)
    return _CACHE_MISS


def _job_label(job: Job) -> str:
    if isinstance(job, IsoJob):
        return f"iso {job.kernel}" + (f" tbs={job.tbs}" if job.tbs else "")
    if isinstance(job, CurveJob):
        return f"curve {job.kernel}"
    if isinstance(job, MixJob):
        return f"mix {job.scheme} {'+'.join(job.kernels)}"
    return repr(job)


def _job_cycles(runner: ExperimentRunner, job: Job) -> int:
    """Simulated-cycle budget of one job (for cycles/sec telemetry)."""
    settings = runner.settings
    if isinstance(job, IsoJob):
        return job.cycles or settings.iso_cycles
    if isinstance(job, CurveJob):
        points = get_profile(job.kernel).max_tbs_per_sm(runner.config)
        return points * settings.curve_cycles
    if isinstance(job, MixJob):
        return job.cycles or settings.concurrent_cycles
    return 0


# ----------------------------------------------------------------------
# ledger-informed job ordering
def job_cost_key(job: Job) -> Optional[Tuple[str, str]]:
    """The ledger ``(workload, scheme)`` key a job's cost hint lives
    under, or None for job types the ledger does not record."""
    if isinstance(job, MixJob):
        return "+".join(job.kernels), job.scheme
    return None


def ledger_cost_hints(artifacts_path: str) -> Dict[Tuple[str, str], float]:
    """Per-cell expected-cost hints from a prior campaign's run
    artifacts: ``(workload, scheme) -> cost``.

    Cost is the artifact's simulated-cycle budget scaled by its
    measured activity (``1 + total_ipc``) — a deterministic wall-clock
    proxy that needs no timing fields: a cell simulating more cycles,
    or doing more work per cycle, takes a worker longer.  Missing or
    unreadable artifacts simply yield no hint.
    """
    from repro.obs import ledger
    hints: Dict[Tuple[str, str], float] = {}
    for key, artifact in ledger.load_artifacts(artifacts_path).items():
        cycles = artifact.get("cycles") or 0
        metrics = artifact.get("metrics") or {}
        ipc = metrics.get("total_ipc") or 0.0
        hints[key] = float(cycles) * (1.0 + float(ipc))
    return hints


def _order_by_cost(pending: List[Job],
                   cost_hints: Dict[Tuple[str, str], float]) -> List[Job]:
    """Longest-expected-first (LPT) dispatch order.  A long cell
    dispatched last leaves the pool tail-bound on one worker; front-
    loading the expensive cells packs the workers tighter.  The sort is
    stable with unknown-cost jobs at 0, so unhinted batches keep their
    input order exactly — and results are returned in input order
    regardless (ordering only moves dispatch)."""
    indexed = list(enumerate(pending))
    indexed.sort(key=lambda pair: (
        -cost_hints.get(job_cost_key(pair[1]) or ("", ""), 0.0), pair[0]))
    return [job for _i, job in indexed]


# ----------------------------------------------------------------------
# the plain-policy spellings of the one dispatcher
def run_jobs(runner: ExperimentRunner, jobs: Sequence[Job],
             workers: Optional[int] = None,
             progress: Optional[ProgressFn] = None,
             cost_hints: Optional[Dict[Tuple[str, str], float]] = None
             ) -> List:
    """Execute ``jobs`` under the plain policy and return their results
    in input order — see
    :func:`repro.harness.resilience.run_jobs_resilient` for dedup,
    cache probing, ``progress`` heartbeats and ``cost_hints`` ordering.
    A failing job raises :class:`~repro.harness.resilience.JobError`."""
    from repro.harness.resilience import PLAIN, run_jobs_resilient
    return run_jobs_resilient(runner, jobs, policy=PLAIN, workers=workers,
                              progress=progress, cost_hints=cost_hints)[0]


def campaign_jobs(mixes: Sequence[WorkloadMix], schemes: Sequence[str],
                  cycles: Optional[int] = None, obs: bool = False,
                  phase_interval: Optional[int] = None) -> List[MixJob]:
    """The mix-major grid of cells for a mixes×schemes campaign."""
    return [MixJob(tuple(p.name for p in mix.profiles), scheme, cycles, obs,
                   phase_interval)
            for mix in mixes for scheme in schemes]


def shared_input_jobs(mixes: Sequence[WorkloadMix],
                      schemes: Sequence[str]) -> List[Job]:
    """Shared inputs of a campaign: every kernel's isolated run (for
    normalisation) and — when any scheme partitions via Warped-Slicer —
    every kernel's scalability curve."""
    kernels = list(dict.fromkeys(
        p.name for mix in mixes for p in mix.profiles))
    jobs: List[Job] = [IsoJob(k) for k in kernels]
    if any(s.lower().startswith(("ws", "dws")) for s in schemes):
        jobs += [CurveJob(k) for k in kernels]
    return jobs
