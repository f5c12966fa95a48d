"""The campaign job model: what one unit of simulation work is, how it
is executed, and what the parent knows about it before dispatch.

Experiment campaigns in this repo are embarrassingly parallel — every
isolated run (a normalisation run, or one point of a Warped-Slicer
scalability curve, paper §2.5 / Fig. 3a) and every mix×scheme cell is
an independent simulation.  This module describes each unit of work as
a small picklable job dataclass:

* ``IsoJob`` — one kernel alone at one TB count and cycle budget;
* ``MixJob`` — one concurrent mix under one scheme (a campaign cell).

Jobs reference kernels by their short profile names so they pickle in
a few bytes.  The parent asks its
:class:`~repro.harness.runner.ExperimentRunner` what it already knows
about a job (:meth:`~repro.harness.runner.ExperimentRunner.recall`:
memory, then the ``iso-*.json`` records of its cache dir) and installs
what workers return (``install``); each worker process starts from a
copy of that runner, so it never re-derives what the parent held.  The
shared on-disk cache (``.repro_cache``) is written atomically (temp
file + ``os.replace`` — see ``runner.py``) so concurrent workers cannot
corrupt records.

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

from repro.core.arbiter import parse_scheme
from repro.harness.runner import ExperimentRunner
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
    """One isolated run of ``kernel`` at ``tbs`` TBs per SM (default:
    as many as fit) for ``cycles`` (default: the iso budget)."""

    kernel: str
    tbs: Optional[int] = None
    cycles: Optional[int] = None


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


Job = Union[IsoJob, MixJob]


# ----------------------------------------------------------------------
# job execution (worker processes and the in-process loop share it)
def execute_job(runner: ExperimentRunner, job: Job):
    """Run one job on ``runner`` (shared by workers and serial mode)."""
    if isinstance(job, IsoJob):
        return runner.isolated(get_profile(job.kernel), job.tbs, job.cycles)
    if isinstance(job, MixJob):
        mix = WorkloadMix(tuple(get_profile(k) for k in job.kernels))
        obs: object = job.obs or None
        if job.phase_interval:
            from repro.obs.collector import ObsOptions
            obs = ObsOptions(phase_interval=job.phase_interval)
        return runner.run_mix(mix, job.scheme, cycles=job.cycles, obs=obs)
    raise TypeError(f"unknown job type {type(job).__name__}")


# ----------------------------------------------------------------------
# what the parent knows about a job before dispatch
#: per-finished-job progress callback (campaign telemetry).
ProgressFn = Callable[[JobHeartbeat], None]


def _probe_cache(runner: ExperimentRunner, job: Job):
    """The runner's recalled result for ``job``, or None: an isolated
    run the parent holds in memory or finds in its cache dir is never
    dispatched."""
    if isinstance(job, IsoJob):
        return runner.recall(get_profile(job.kernel), job.tbs, job.cycles)
    return None


def _absorb(runner: ExperimentRunner, job: Job, result) -> None:
    """Install a worker's result into the parent runner."""
    if isinstance(job, IsoJob):
        runner.install(result, job.cycles)


def _job_label(job: Job) -> str:
    if isinstance(job, IsoJob):
        return (f"iso {job.kernel}" + (f" tbs={job.tbs}" if job.tbs else "")
                + (f" cycles={job.cycles}" if job.cycles else ""))
    if isinstance(job, MixJob):
        return f"mix {job.scheme} {'+'.join(job.kernels)}"
    return repr(job)


def _job_cycles(runner: ExperimentRunner, job: Job) -> int:
    """Simulated-cycle budget of one job (for cycles/sec telemetry)."""
    settings = runner.settings
    if isinstance(job, IsoJob):
        return job.cycles or settings.iso_cycles
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


def shared_input_jobs(runner: ExperimentRunner,
                      mixes: Sequence[WorkloadMix],
                      schemes: Sequence[str]) -> List[IsoJob]:
    """Shared inputs of a campaign: every kernel's isolated run (for
    normalisation) and — when any scheme partitions by the static
    Warped-Slicer sweet spot — every point of every kernel's
    scalability curve.  Dynamic Warped-Slicer (``dws``) profiles
    online and reads no curve."""
    profiles = {p.name: p for mix in mixes for p in mix.profiles}
    jobs = [IsoJob(k) for k in profiles]
    if any(parse_scheme(s)[0] == "ws" for s in schemes):
        cycles = runner.settings.curve_cycles
        jobs += [IsoJob(k, tbs, cycles) for k, p in profiles.items()
                 for tbs in range(1, p.max_tbs_per_sm(runner.config) + 1)]
    return jobs
