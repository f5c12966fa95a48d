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
(dedup, journal replay, parent-cache probe, worker processes or the
in-process loop, retry/quarantine accounting).
:func:`run_jobs` here is its plain-policy spelling (and
``run_campaign_resilient(runner, ..., policy=PLAIN)[0]`` the campaign
one): no timeout, no retries, no quarantine, no journal — the first
failing cell raises :class:`~repro.harness.resilience.JobError`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

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
    :class:`~repro.obs.collector.ObsReport` (the stall taxonomy) back
    across the worker boundary, mergeable in the parent with
    ``ObsReport.merged``.

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
            obs = ObsOptions(phase_interval=job.phase_interval)
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
    runner._curve_cache[runner._curve_key(curve.kernel)] = curve


def _absorb(runner: ExperimentRunner, job: Job, result) -> None:
    """Install a worker's result into the parent runner's caches."""
    if isinstance(job, IsoJob):
        _install_iso(runner, result, job.cycles)
    elif isinstance(job, CurveJob):
        _install_curve(runner, result)


def _seed_payload(runner: ExperimentRunner):
    """Everything the parent's in-memory caches hold, as initargs:
    ``(key, value)`` pairs under the parent's keys, which a worker's
    runner (same config, settings and ``CACHE_VERSION``) builds
    identically."""
    return list(runner._iso_cache.items()), list(runner._curve_cache.items())


def seeded_runner(config, settings: RunnerSettings, cache_dir: Optional[str],
                  iso_seed: Sequence[Tuple[Tuple, IsoRecord]],
                  curve_seed: Sequence[Tuple[Tuple, ScalabilityCurve]]
                  ) -> ExperimentRunner:
    """A worker process's private runner, pre-seeded with everything
    the parent already knows so shared inputs are never recomputed.

    Constructing the runner also points the kernel-trace disk cache at
    ``cache_dir/traces-v<CACHE_VERSION>`` (see ``ExperimentRunner``),
    so workers share compiled trace chunks with the parent and a
    version bump invalidates both caches together."""
    runner = ExperimentRunner(config, settings, cache_dir=cache_dir)
    runner._iso_cache.update(iso_seed)
    runner._curve_cache.update(curve_seed)
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
        return runner._curve_cache.get(runner._curve_key(job.kernel),
                                       _CACHE_MISS)
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
# the plain-policy spellings of the one dispatcher
def run_jobs(runner: ExperimentRunner, jobs: Sequence[Job],
             workers: Optional[int] = None,
             progress: Optional[ProgressFn] = None) -> List:
    """Execute ``jobs`` under the plain policy and return their results
    in input order — see
    :func:`repro.harness.resilience.run_jobs_resilient` for dedup,
    cache probing and ``progress`` heartbeats.  A failing job raises
    :class:`~repro.harness.resilience.JobError`."""
    from repro.harness.resilience import PLAIN, run_jobs_resilient
    return run_jobs_resilient(runner, jobs, policy=PLAIN, workers=workers,
                              progress=progress)[0]


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
