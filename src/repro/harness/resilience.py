"""The campaign dispatcher: one worker pool, one in-process loop, and
the robustness layer around both — timeouts, retries, quarantine, a
checkpoint journal and deterministic fault injection.

Every batch of jobs (:mod:`repro.harness.parallel` defines the job
model) goes through :func:`run_jobs_resilient`; how much robustness it
gets is a *value*, not a code path, in the shape shared-environment
schedulers treat as table stakes: worker failure, stragglers and
partial results are expected events, not campaign aborts.

* :class:`ResiliencePolicy` — per-job wall-clock timeout, retry count
  with exponential backoff, and quarantine-instead-of-abort once the
  retry budget is exhausted.  :data:`PLAIN` is the degenerate value
  (none of the three): the first failing cell raises.
* :func:`run_jobs_resilient` — dedup, journal replay, parent-cache
  probe, then a self-managed worker pool (one task pipe per worker, a
  shared result queue) that detects dead workers, kills and respawns
  hung ones and retries failed cells with backoff — or the in-process
  loop with the same accounting — and returns a
  :class:`ResilienceReport` of the degradation alongside the results.
  Results stay bit-identical to a fault-free run: a retry re-executes
  the same deterministic simulation.
* :class:`CampaignJournal` — an append-only, atomic, versioned
  checkpoint journal under the harness cache dir.  A campaign journals
  its grid cells only: each completed cell's pickled result rides in
  the journal with a SHA-256 fingerprint, while isolated runs are
  already durable as the cache dir's ``iso-*.json`` records.
  ``repro campaign --resume`` replays verified entries and re-runs
  only unfinished / quarantined / corrupted cells, yielding a merged
  report bit-identical to an uninterrupted campaign.
* :class:`FaultPlan` — a seeded, deterministic fault-injection
  schedule (worker kills, injected hangs, poisoned cells, unpicklable
  results, cache/journal corruption), activated via
  ``$REPRO_FAULT_PLAN`` (each worker process loads it at start-up).
  Each fault fires a bounded number of times, coordinated across
  processes by exclusive marker-file claims, so the chaos tests can
  script "kill the worker on this cell, once" and know the retry will
  succeed.
* :class:`JobError` — the one failure type of a cell: picklable, it
  carries the job label, the original exception type and the full
  formatted traceback across the process boundary.

See docs/RESILIENCE.md for the journal schema and FaultPlan format.
"""

from __future__ import annotations

import base64
import fnmatch
import glob as globmod
import json
import os
import pickle
import queue as queuemod
import signal
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro._digest import md5, sha256
from repro.harness import parallel as _par
from repro.harness.runner import CACHE_VERSION, ExperimentRunner
from repro.obs.telemetry import JobHeartbeat

#: environment variable naming the active fault-plan JSON file.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: bump when the journal line schema changes; loaders skip other
#: versions (same stale-tolerance contract as the artifact ledger).
JOURNAL_VERSION = 1

#: fault kinds a plan may schedule.
FAULT_KINDS = ("kill", "hang", "raise", "unpicklable", "corrupt")


# ----------------------------------------------------------------------
# picklable worker failures
class JobError(Exception):
    """A job failure that survives the process boundary intact.

    Exceptions raised inside worker processes are pickled back to the
    parent; the original traceback object does not pickle, so
    ``JobError`` captures the *formatted* worker-side stack as a string
    at raise time — ``str(err)`` in the parent shows the full remote
    traceback.
    """

    def __init__(self, label: str, original_type: str, formatted: str):
        super().__init__(label, original_type, formatted)
        self.label = label
        self.original_type = original_type
        self.formatted = formatted

    @classmethod
    def from_exception(cls, label: str, exc: BaseException) -> "JobError":
        formatted = "".join(traceback.format_exception(
            type(exc), exc, exc.__traceback__))
        return cls(label, type(exc).__name__, formatted)

    def __str__(self) -> str:
        return (f"job {self.label!r} failed with {self.original_type}; "
                f"worker traceback:\n{self.formatted}")

    def __reduce__(self):
        return (JobError, (self.label, self.original_type, self.formatted))


class FaultInjected(RuntimeError):
    """Raised by a ``raise``-kind fault (a deliberately poisoned cell)."""


class _Unpicklable:
    """Result wrapper whose pickling always fails (fault injection)."""

    def __init__(self, inner):
        self.inner = inner

    def __reduce__(self):
        raise TypeError("deliberately unpicklable result (fault injection)")


# ----------------------------------------------------------------------
# deterministic fault injection
@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``match`` is an :mod:`fnmatch` glob over the job label (e.g.
    ``"mix ws st+sv"`` or ``"mix ws-dmil *"``); ``times`` bounds how
    often the fault fires campaign-wide (claims are coordinated across
    worker processes through marker files); ``seconds`` is the hang
    duration for ``hang`` faults; ``path`` is the file glob a
    ``corrupt`` fault garbles (first sorted match).
    """

    id: str
    kind: str
    match: str = "*"
    times: int = 1
    seconds: float = 3600.0
    path: Optional[str] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(expected one of {FAULT_KINDS})")


class FaultPlan:
    """A deterministic schedule of injected faults.

    The plan is a JSON file named by ``$REPRO_FAULT_PLAN``; worker
    processes load it at start-up and consult it around every job.
    Firing is *claimed* before it happens: fault ``f`` with
    ``times=N`` owns marker slots ``f.fired.0 .. f.fired.N-1`` in the
    plan's state directory, and a worker fires only after exclusively
    creating one (``open(..., "x")`` — atomic on POSIX).  A killed
    worker leaves its claim behind, so the retried cell runs clean:
    the schedule is deterministic no matter which worker draws the job.
    """

    VERSION = 1

    def __init__(self, faults: Sequence[FaultSpec], state_dir: str,
                 seed: int = 0):
        self.faults = list(faults)
        self.state_dir = state_dir
        self.seed = seed
        ids = [f.id for f in self.faults]
        if len(set(ids)) != len(ids):
            raise ValueError("fault ids must be unique")

    # ------------------------------------------------------------------
    # (de)serialisation
    def to_file(self, path: str) -> str:
        payload = {
            "version": self.VERSION,
            "seed": self.seed,
            "state_dir": self.state_dir,
            "faults": [{k: v for k, v in {
                "id": f.id, "kind": f.kind, "match": f.match,
                "times": f.times, "seconds": f.seconds, "path": f.path,
            }.items() if v is not None} for f in self.faults],
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        return path

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("version") != cls.VERSION:
            raise ValueError(f"unsupported fault-plan version "
                             f"{payload.get('version')!r}")
        state_dir = payload.get("state_dir") or (path + ".state")
        faults = [FaultSpec(
            id=str(entry["id"]), kind=str(entry["kind"]),
            match=str(entry.get("match", "*")),
            times=int(entry.get("times", 1)),
            seconds=float(entry.get("seconds", 3600.0)),
            path=entry.get("path"),
        ) for entry in payload.get("faults", [])]
        return cls(faults, state_dir, seed=int(payload.get("seed", 0)))

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan named by ``$REPRO_FAULT_PLAN``, or None.  Unreadable
        plans are an explicit error — a chaos run silently running
        fault-free would pass tests it should fail."""
        path = os.environ.get(FAULT_PLAN_ENV)
        if not path:
            return None
        return cls.from_file(path)

    # ------------------------------------------------------------------
    # the claim protocol
    def _claim(self, spec: FaultSpec) -> bool:
        """Exclusively claim one remaining firing of ``spec``; False
        when its ``times`` budget is exhausted."""
        os.makedirs(self.state_dir, exist_ok=True)
        for n in range(spec.times):
            marker = os.path.join(self.state_dir, f"{spec.id}.fired.{n}")
            try:
                with open(marker, "x") as fh:
                    fh.write(f"pid={os.getpid()}\n")
                return True
            except FileExistsError:
                continue
        return False

    def fired(self, fault_id: str) -> int:
        """How many times fault ``fault_id`` has fired so far."""
        pattern = os.path.join(self.state_dir, f"{fault_id}.fired.*")
        return len(globmod.glob(pattern))

    def _matching(self, label: str, kinds: Tuple[str, ...]
                  ) -> List[FaultSpec]:
        return [f for f in self.faults
                if f.kind in kinds and fnmatch.fnmatchcase(label, f.match)]

    # ------------------------------------------------------------------
    # firing
    def fire_pre(self, label: str, in_worker: bool = True) -> None:
        """Faults that strike before/while the job runs.  ``kill`` and
        ``hang`` only make sense in a sacrificial worker process — the
        in-process loop skips them (killing the parent would
        take the campaign down with it, which is exactly what the
        resilience layer exists to prevent)."""
        for spec in self._matching(label, ("kill", "hang", "raise")):
            if spec.kind in ("kill", "hang") and not in_worker:
                continue
            if not self._claim(spec):
                continue
            if spec.kind == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif spec.kind == "hang":
                time.sleep(spec.seconds)
            else:
                raise FaultInjected(
                    f"fault {spec.id!r} poisoned cell {label!r}")

    def mutate_result(self, label: str, result):
        """``unpicklable`` faults wrap the finished result in a shell
        whose pickling fails, modelling a worker that computed fine but
        cannot ship its answer home."""
        for spec in self._matching(label, ("unpicklable",)):
            if self._claim(spec):
                return _Unpicklable(result)
        return result

    def fire_post(self, label: str) -> None:
        """``corrupt`` faults garble one on-disk file (cache record,
        journal, artifact) after the job completes, exercising every
        reader's corrupt-tolerance path."""
        for spec in self._matching(label, ("corrupt",)):
            if not spec.path or not self._claim(spec):
                continue
            matches = sorted(globmod.glob(spec.path))
            if matches:
                with open(matches[0], "w") as fh:
                    fh.write("{corrupt")


# ----------------------------------------------------------------------
# the checkpoint journal
def job_key(job) -> str:
    """Stable identity of one job.  Frozen dataclasses of str/int/bool
    fields repr deterministically, and the repr carries every field
    that shapes the outcome (kernels, scheme, cycles, and what is
    observed)."""
    return f"{type(job).__name__}:{job!r}"


def journal_key(runner: ExperimentRunner) -> str:
    """Campaign-identity fingerprint naming the journal file: config +
    settings + cache version.  Job keys already carry the per-cell
    identity, so one journal per (config, settings) is safe to share
    across campaigns — foreign cells simply never match."""
    blob = f"{CACHE_VERSION}:{runner._cfg_key}:{runner.settings!r}"
    return md5(blob.encode()).hexdigest()[:16]


def default_journal_path(runner: ExperimentRunner) -> Optional[str]:
    """``<cache_dir>/journal/campaign-<key>.jsonl`` or None when the
    runner has no cache dir to durably write under."""
    if not runner.cache_dir:
        return None
    return os.path.join(runner.cache_dir, "journal",
                        f"campaign-{journal_key(runner)}.jsonl")


class CampaignJournal:
    """Append-only checkpoint journal of completed campaign cells.

    One JSON object per line.  A ``done`` entry carries the cell's
    pickled result (base64) plus its SHA-256 fingerprint; a
    ``quarantine`` entry records a cell abandoned after the retry
    budget.  Appends are a single buffered write + flush + fsync, so a
    crash can tear at most the final line — and the loader treats any
    unparsable line, wrong-version entry or fingerprint mismatch as
    "cell not checkpointed", never as an error.  Resume therefore
    re-runs exactly the cells it cannot prove finished.
    """

    def __init__(self, path: str):
        self.path = path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)

    def reset(self) -> None:
        """Start a fresh campaign: drop any previous journal."""
        try:
            os.unlink(self.path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    def _append(self, entry: Dict[str, object]) -> None:
        line = json.dumps(entry, sort_keys=True)
        try:
            with open(self.path, "a") as fh:
                fh.write(line + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        except OSError:
            # The journal is a recovery aid, never a correctness
            # dependency of the in-flight campaign.
            pass

    def record_done(self, job, result) -> None:
        blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        self._append({
            "v": JOURNAL_VERSION,
            "kind": "done",
            "key": job_key(job),
            "label": _par._job_label(job),
            "sha": sha256(blob).hexdigest(),
            "blob": base64.b64encode(blob).decode("ascii"),
        })

    def record_quarantine(self, job, faults: Sequence[str]) -> None:
        self._append({
            "v": JOURNAL_VERSION,
            "kind": "quarantine",
            "key": job_key(job),
            "label": _par._job_label(job),
            "faults": list(faults),
        })

    # ------------------------------------------------------------------
    def load(self) -> Tuple[Dict[str, object], Dict[str, List[str]]]:
        """Verified checkpoints: ``(done, quarantined)`` keyed by job
        key.  Entries replay in order — a later ``done`` supersedes an
        earlier ``quarantine`` of the same cell (the resumed run
        finished it)."""
        done: Dict[str, object] = {}
        quarantined: Dict[str, List[str]] = {}
        try:
            with open(self.path) as fh:
                lines = fh.readlines()
        except OSError:
            return done, quarantined
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # torn/corrupt line: not checkpointed
            if not isinstance(entry, dict) \
                    or entry.get("v") != JOURNAL_VERSION:
                continue
            key = entry.get("key")
            if not isinstance(key, str):
                continue
            kind = entry.get("kind")
            if kind == "done":
                try:
                    blob = base64.b64decode(entry["blob"],
                                            validate=True)
                except (KeyError, ValueError, TypeError):
                    continue
                if sha256(blob).hexdigest() != entry.get("sha"):
                    continue  # corrupted checkpoint: re-run the cell
                try:
                    done[key] = pickle.loads(blob)
                except Exception:
                    continue
                quarantined.pop(key, None)
            elif kind == "quarantine":
                faults = entry.get("faults")
                quarantined[key] = (list(faults)
                                    if isinstance(faults, list) else [])
                done.pop(key, None)
        return done, quarantined


# ----------------------------------------------------------------------
# policy and per-cell accounting
@dataclass(frozen=True)
class ResiliencePolicy:
    """Retry/timeout/quarantine behaviour of one batch.

    ``timeout_s`` is the per-attempt wall-clock budget (None disables
    preemption); a cell gets ``retries`` extra attempts after its
    first, sleeping ``backoff_s * backoff_factor**(attempt-1)`` between
    them; once the budget is gone the cell is quarantined (campaign
    continues) unless ``quarantine`` is False (the first exhausted cell
    raises :class:`JobError` and aborts the batch).
    """

    timeout_s: Optional[float] = None
    retries: int = 2
    backoff_s: float = 0.25
    backoff_factor: float = 2.0
    quarantine: bool = True

    def backoff_after(self, attempt: int) -> float:
        """Seconds to wait before re-dispatching after failed attempt
        number ``attempt`` (1-based)."""
        return self.backoff_s * (self.backoff_factor ** (attempt - 1))

    @property
    def max_attempts(self) -> int:
        return max(1, self.retries + 1)

    @property
    def isolates(self) -> bool:
        """Whether a hung or failing cell must be survivable — any of
        timeout, retries, quarantine.  Such a policy gets sacrificial
        worker processes and a checkpoint journal; one that does not
        (:data:`PLAIN`) uses workers for throughput only."""
        return (self.timeout_s is not None or self.retries > 0
                or self.quarantine)


#: the plain policy: no timeout, no retries, no quarantine (and so no
#: journal) — the first failing cell raises :class:`JobError`.
PLAIN = ResiliencePolicy(timeout_s=None, retries=0, quarantine=False)


@dataclass(frozen=True)
class Quarantined:
    """Placeholder result of a cell abandoned after the retry budget."""

    label: str
    faults: Tuple[str, ...] = ()


@dataclass
class CellReport:
    """Degradation accounting for one unique job."""

    label: str
    attempts: int = 0
    faults: List[str] = field(default_factory=list)
    resumed: bool = False
    quarantined: bool = False


class ResilienceReport:
    """What the resilient executor had to absorb for one batch.

    A plain class with per-instance state: the report is built
    parent-side and handed back to the caller, never shared through
    the class object.
    """

    def __init__(self, cells: Optional[Dict[str, CellReport]] = None):
        self.cells: Dict[str, CellReport] = dict(cells) if cells else {}

    def cell(self, job) -> CellReport:
        key = job_key(job)
        if key not in self.cells:
            self.cells[key] = CellReport(label=_par._job_label(job))
        return self.cells[key]

    @property
    def retries(self) -> int:
        return sum(max(0, c.attempts - 1) for c in self.cells.values())

    @property
    def quarantined(self) -> List[str]:
        return [c.label for c in self.cells.values() if c.quarantined]

    @property
    def resumed(self) -> int:
        return sum(1 for c in self.cells.values() if c.resumed)

    def merged(self, other: "ResilienceReport") -> "ResilienceReport":
        out = ResilienceReport(dict(self.cells))
        out.cells.update(other.cells)
        return out

    def summary(self) -> str:
        bits = [f"{len(self.cells)} cells"]
        if self.resumed:
            bits.append(f"{self.resumed} resumed from journal")
        if self.retries:
            bits.append(f"{self.retries} retries")
        quarantined = self.quarantined
        if quarantined:
            bits.append(f"{len(quarantined)} quarantined "
                        f"({', '.join(quarantined)})")
        return "resilience: " + ", ".join(bits)


# ----------------------------------------------------------------------
# one attempt of one cell (worker processes and the in-process loop)
def _attempt(runner: ExperimentRunner, plan: Optional[FaultPlan], job,
             in_worker: bool) -> Tuple[str, float, object]:
    """Execute ``job`` once with the fault plan applied:
    ``("ok", seconds, result)``, ``("hit", seconds, result)`` when the
    executing runner recalled the result without simulating (an
    isolated run another job's simulation already made), or
    ``("err", seconds, JobError)``.

    In-process nothing crosses a process boundary, so an ``unpicklable``
    fault's shell is turned into the failure a worker's pickling would
    have hit; ``kill`` / ``hang`` are skipped there by ``fire_pre``."""
    label = _par._job_label(job)
    start = time.perf_counter()
    try:
        if plan is not None:
            plan.fire_pre(label, in_worker=in_worker)
        status = "ok" if _par._probe_cache(runner, job) is None else "hit"
        result = _par.execute_job(runner, job)
        if plan is not None:
            result = plan.mutate_result(label, result)
            plan.fire_post(label)
        if not in_worker and isinstance(result, _Unpicklable):
            raise JobError(label, "TypeError",
                           f"result of {label!r} could not be pickled "
                           f"across the process boundary")
        return status, time.perf_counter() - start, result
    except Exception as exc:
        err = (exc if isinstance(exc, JobError)
               else JobError.from_exception(label, exc))
        return "err", time.perf_counter() - start, err


def _worker_main(worker_id: int, conn, result_q,
                 runner: ExperimentRunner) -> None:
    """Worker loop: receive ``(seq, job)`` on the private pipe, execute
    it on ``runner`` (the parent's, as the parent held it at start-up),
    ship ``(worker_id, blob)`` on the shared result queue.

    ``$REPRO_FAULT_PLAN`` is loaded once here and consulted around
    every job.  The payload is pre-pickled *in the worker*: an
    unpicklable result is detected here and converted into a
    :class:`JobError`, instead of dying inside the queue's feeder
    thread where the parent would only see silence (and misread it as
    a hang)."""
    plan = FaultPlan.from_env()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        seq, job = msg
        status, duration, payload = _attempt(runner, plan, job,
                                             in_worker=True)
        try:
            blob = pickle.dumps((status, seq, duration, payload),
                                protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            label = _par._job_label(job)
            err = JobError(label, type(exc).__name__,
                           f"result of {label!r} could not be pickled "
                           f"across the process boundary: {exc}")
            blob = pickle.dumps(("err", seq, duration, err),
                                protocol=pickle.HIGHEST_PROTOCOL)
        result_q.put((worker_id, blob))


# ----------------------------------------------------------------------
# per-cell accounting (the single copy both execution modes drive)
class _Batch:
    """Attempt, success, retry, quarantine, journal and heartbeat
    accounting for the cells of one batch that actually execute."""

    def __init__(self, runner: ExperimentRunner, jobs: List,
                 policy: ResiliencePolicy, report: ResilienceReport,
                 journal: Optional[CampaignJournal], progress,
                 done: int, total: int):
        self.runner = runner
        self.jobs = jobs
        self.policy = policy
        self.report = report
        self.journal = journal
        self.progress = progress
        self.settled_before = done
        self.total = total
        self.results: Dict[object, object] = {}

    @property
    def done(self) -> int:
        """Cells of the whole batch settled so far (heartbeat index)."""
        return self.settled_before + len(self.results)

    @property
    def outstanding(self) -> int:
        return len(self.jobs) - len(self.results)

    def _beat(self, job, duration: float, attempt: int, **extra) -> None:
        if self.progress is not None:
            self.progress(JobHeartbeat(
                index=self.done, total=self.total,
                label=_par._job_label(job), duration_s=duration,
                attempt=attempt, **extra))

    def succeeded(self, job, result, duration: float, attempt: int,
                  simulated: bool = True) -> None:
        """Settle ``job``; ``simulated`` False books a result the
        executing runner recalled as a cache hit of 0 cycles."""
        if job in self.results:
            return  # pragma: no cover - duplicate completion guard
        self.results[job] = result
        if self.journal is not None:
            self.journal.record_done(job, result)
        self._beat(job, duration, attempt, cache_hit=not simulated,
                   sim_cycles=(_par._job_cycles(self.runner, job)
                               if simulated else 0))

    def failed(self, job, attempt: int, fault: str, duration: float,
               error: Optional[JobError] = None) -> Optional[float]:
        """Account one failed attempt.  Returns the backoff to sleep
        out before the next attempt, or None when the retry budget is
        gone and the cell was quarantined; a policy without quarantine
        raises the cell's :class:`JobError` instead."""
        cell = self.report.cell(job)
        cell.faults.append(fault)
        if attempt < self.policy.max_attempts:
            self._beat(job, duration, attempt, sim_cycles=0,
                       event="retry", fault=fault)
            return self.policy.backoff_after(attempt)
        label = _par._job_label(job)
        if not self.policy.quarantine:
            raise error if error is not None else JobError(
                label, fault, f"cell {label!r} failed with {fault!r} "
                              f"after {attempt} attempts")
        cell.quarantined = True
        self.results[job] = Quarantined(label, tuple(cell.faults))
        if self.journal is not None:
            self.journal.record_quarantine(job, cell.faults)
        self._beat(job, duration, attempt, sim_cycles=0,
                   event="quarantined", fault=fault)
        return None


def _run_in_process(batch: _Batch, plan: Optional[FaultPlan]) -> None:
    """The in-process job loop: retries, quarantine and ``raise`` /
    ``unpicklable`` / ``corrupt`` faults still apply; preemptive
    timeouts and ``kill`` / ``hang`` faults need a sacrificial worker
    process and are skipped (documented in docs/RESILIENCE.md)."""
    for job in batch.jobs:
        attempt = 1
        while True:
            batch.report.cell(job).attempts += 1
            status, duration, payload = _attempt(batch.runner, plan, job,
                                                 in_worker=False)
            if status != "err":
                batch.succeeded(job, payload, duration, attempt,
                                simulated=status == "ok")
                break
            backoff = batch.failed(job, attempt,
                                   f"error:{payload.original_type}",
                                   duration, error=payload)
            if backoff is None:
                break
            time.sleep(backoff)
            attempt += 1


# ----------------------------------------------------------------------
# the worker pool
class _Worker:
    """One sacrificial worker process plus its private task pipe."""

    def __init__(self, ctx, worker_id: int, runner: ExperimentRunner,
                 result_q):
        self.id = worker_id
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        self.conn = send_conn
        self.proc = ctx.Process(
            target=_worker_main,
            args=(worker_id, recv_conn, result_q, runner), daemon=True)
        self.proc.start()
        recv_conn.close()
        #: (seq, attempt, deadline | None) while busy.
        self.busy: Optional[Tuple[int, int, Optional[float]]] = None

    def dispatch(self, seq: int, job, attempt: int,
                 deadline: Optional[float]) -> bool:
        try:
            self.conn.send((seq, job))
        except (OSError, ValueError):
            return False
        self.busy = (seq, attempt, deadline)
        return True

    def alive(self) -> bool:
        return self.proc.is_alive()

    def kill(self) -> None:
        try:
            self.proc.kill()
        except (OSError, AttributeError):  # pragma: no cover - defensive
            try:
                self.proc.terminate()
            except OSError:
                pass
        self.proc.join(timeout=5.0)

    def shutdown(self) -> None:
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass
        self.proc.join(timeout=2.0)
        if self.proc.is_alive():
            self.kill()
        try:
            self.conn.close()
        except OSError:
            pass


class _WorkerPool:
    """Parent-side state machine running one batch over self-managed
    worker processes (one task pipe per worker, a shared result queue):
    dead workers are respawned, hung ones killed at their deadline,
    failed attempts re-queued after their backoff."""

    #: result-queue poll granularity; also bounds how late a timeout
    #: can be noticed.  Jobs here take >= tens of milliseconds, so a
    #: 50 ms tick costs nothing measurable.
    POLL_S = 0.05

    def __init__(self, batch: _Batch, nworkers: int):
        self.batch = batch
        self.policy = batch.policy
        #: FIFO of (seq, attempt) ready to dispatch now.
        self.runnable: List[Tuple[int, int]] = [
            (seq, 1) for seq in range(len(batch.jobs))]
        #: (eligible_monotonic, seq, attempt) sleeping out a backoff.
        self.backoff: List[Tuple[float, int, int]] = []
        # Imported here: in-process and fully journaled campaigns
        # never start a pool.
        import multiprocessing
        self.ctx = multiprocessing.get_context()
        self.result_q = self.ctx.Queue()
        self.workers: List[_Worker] = []
        self._next_wid = 0
        try:
            for _ in range(nworkers):
                self.workers.append(self._spawn())
        except BaseException:
            self.close()
            raise

    def _spawn(self) -> _Worker:
        worker = _Worker(self.ctx, self._next_wid, self.batch.runner,
                         self.result_q)
        self._next_wid += 1
        return worker

    def close(self) -> None:
        for worker in self.workers:
            worker.shutdown()
        self.result_q.close()

    # ------------------------------------------------------------------
    def run(self) -> None:
        try:
            while self.batch.outstanding:
                self._promote_backoff()
                self._dispatch_ready()
                self._drain_results()
                self._reap_dead_and_timed_out()
        finally:
            self.close()

    # ------------------------------------------------------------------
    def _promote_backoff(self) -> None:
        if not self.backoff:
            return
        now = time.monotonic()
        ready = [entry for entry in self.backoff if entry[0] <= now]
        if ready:
            self.backoff = [e for e in self.backoff if e[0] > now]
            # Deterministic order: by seq, so retried cells re-enter
            # the queue in input order.
            for _when, seq, attempt in sorted(ready, key=lambda e: e[1]):
                self.runnable.append((seq, attempt))

    def _dispatch_ready(self) -> None:
        for worker in self.workers:
            if not self.runnable:
                return
            if worker.busy is not None:
                continue
            if not worker.alive():
                self._respawn(worker)
                continue
            seq, attempt = self.runnable.pop(0)
            job = self.batch.jobs[seq]
            deadline = (time.monotonic() + self.policy.timeout_s
                        if self.policy.timeout_s else None)
            cell = self.batch.report.cell(job)
            cell.attempts += 1
            if not worker.dispatch(seq, job, attempt, deadline):
                # Broken pipe: treat as a crash of this attempt.
                cell.attempts -= 1
                self.runnable.insert(0, (seq, attempt))
                self._respawn(worker)

    def _respawn(self, worker: _Worker) -> None:
        worker.shutdown()
        self.workers[self.workers.index(worker)] = self._spawn()

    # ------------------------------------------------------------------
    def _wait_timeout(self) -> float:
        timeout = self.POLL_S
        now = time.monotonic()
        for worker in self.workers:
            if worker.busy and worker.busy[2] is not None:
                timeout = min(timeout, max(0.0, worker.busy[2] - now))
        for when, _seq, _attempt in self.backoff:
            timeout = min(timeout, max(0.0, when - now))
        return max(0.001, timeout)

    def _drain_results(self) -> None:
        try:
            wid, blob = self.result_q.get(timeout=self._wait_timeout())
        except queuemod.Empty:
            return
        while True:
            self._handle_result(wid, blob)
            try:
                wid, blob = self.result_q.get_nowait()
            except queuemod.Empty:
                return

    def _failed(self, seq: int, attempt: int, fault: str, duration: float,
                error: Optional[JobError] = None) -> None:
        backoff = self.batch.failed(self.batch.jobs[seq], attempt, fault,
                                    duration, error=error)
        if backoff is not None:
            self.backoff.append((time.monotonic() + backoff, seq,
                                 attempt + 1))

    def _handle_result(self, wid: int, blob: bytes) -> None:
        worker = next((w for w in self.workers if w.id == wid), None)
        if worker is None or worker.busy is None:
            return  # stale message from a worker already reaped
        seq, attempt, _deadline = worker.busy
        worker.busy = None
        try:
            status, got_seq, duration, payload = pickle.loads(blob)
        except Exception:
            self._failed(seq, attempt, "garbled-result", 0.0)
            return
        if got_seq != seq:  # pragma: no cover - protocol safety net
            self._failed(seq, attempt, "desequenced-result", 0.0)
        elif status != "err":
            self.batch.succeeded(self.batch.jobs[seq], payload, duration,
                                 attempt, simulated=status == "ok")
        else:
            self._failed(seq, attempt, f"error:{payload.original_type}",
                         duration, error=payload)

    def _reap_dead_and_timed_out(self) -> None:
        now = time.monotonic()
        for worker in self.workers:
            if worker.busy is None:
                if not worker.alive():
                    self._respawn(worker)
                continue
            seq, attempt, deadline = worker.busy
            if not worker.alive():
                worker.busy = None
                self._respawn(worker)
                self._failed(seq, attempt, "worker-crash", 0.0)
            elif deadline is not None and now > deadline:
                worker.busy = None
                worker.kill()
                self._respawn(worker)
                self._failed(seq, attempt, "timeout",
                             self.policy.timeout_s or 0.0)


# ----------------------------------------------------------------------
# batch + campaign entry points
def _worker_count(workers: Optional[int], pending: int,
                  policy: ResiliencePolicy, faults: bool) -> int:
    """How many worker processes a batch of ``pending`` cells gets;
    0 means the in-process loop.  The one rule:

    * the request is ``workers``, else ``$REPRO_BENCH_WORKERS``, else
      the CPU count;
    * a plain batch (``policy.isolates`` false, no fault plan) wants
      workers for throughput only, so its request is capped at the CPU
      count and at ``pending`` — it never oversubscribes;
    * otherwise workers are sacrificial processes to kill, preempt or
      lose, so an explicit ``workers=N`` is honoured even on a one-CPU
      host (they timeshare, results are identical) and a single pending
      cell still gets one;
    * a request of 1 runs in-process; a larger one spawns
      ``min(request, pending)`` processes.
    """
    request = _par.requested_workers(workers)
    if not (policy.isolates or faults):
        request = min(request, os.cpu_count() or 1, pending)
    return min(request, pending) if request > 1 else 0


def _checkpointed(checkpoints: Dict[str, object], job):
    """``job``'s journaled outcome, or None.  An unobserved mix cell
    also takes the outcome of the same cell run with ``obs=True``:
    observing adds a report and changes no simulated number.  Never the
    other way round: an observed cell needs its report."""
    known = checkpoints.get(job_key(job))
    if (known is None and isinstance(job, _par.MixJob) and not job.obs
            and not job.phase_interval):
        known = checkpoints.get(job_key(replace(job, obs=True)))
    return known


def run_jobs_resilient(runner: ExperimentRunner, jobs: Sequence,
                       policy: Optional[ResiliencePolicy] = None,
                       workers: Optional[int] = None,
                       progress=None,
                       journal: Optional[CampaignJournal] = None,
                       resume: bool = False,
                       fault_plan: Optional[str] = None,
                       report: Optional[ResilienceReport] = None
                       ) -> Tuple[List, ResilienceReport]:
    """The dispatcher: execute ``jobs`` under ``policy`` (default
    ``ResiliencePolicy()``) and return ``(results, report)`` with
    results in input order.

    Identical jobs execute once.  With a ``journal``, ``resume=True``
    replays its verified checkpoints (an unobserved mix cell also
    those of its observed twin; ``resume=False`` resets it) and
    every cell that completes or is quarantined is checkpointed.  Jobs
    the parent runner recalls (memory, then its cache dir) are never
    dispatched.  What remains is dispatched in input order to worker
    processes, each started from a copy of ``runner``, or run
    in-process (:func:`_worker_count`).  A failed attempt is retried
    with exponential backoff; a cell out of budget is quarantined (a
    :class:`Quarantined` placeholder in its slot) or, without
    quarantine, raised as :class:`JobError`.  ``IsoJob`` results are
    installed into ``runner``.

    ``progress`` receives one :class:`JobHeartbeat` per settled unique
    job (plus ``retry`` beats) from the dispatching thread; results are
    unaffected by its presence.  ``fault_plan`` exports
    ``$REPRO_FAULT_PLAN`` for the duration of the batch (chaos tests
    drive this).
    """
    policy = policy or ResiliencePolicy()
    report = report if report is not None else ResilienceReport()
    unique: List = list(dict.fromkeys(jobs))
    if not unique:
        return [], report
    total = len(unique)
    checkpoints: Dict[str, object] = {}
    if journal is not None:
        if resume:
            checkpoints, _quarantined = journal.load()
        else:
            journal.reset()
    results: Dict[object, object] = {}
    pending: List = []
    for job in unique:
        known = _checkpointed(checkpoints, job)
        resumed = known is not None
        if not resumed:
            known = _par._probe_cache(runner, job)
            if known is None:
                pending.append(job)
                continue
        results[job] = known
        cell = report.cell(job)
        cell.resumed = cell.resumed or resumed
        if progress is not None:
            progress(JobHeartbeat(
                index=len(results), total=total, label=_par._job_label(job),
                duration_s=0.0, sim_cycles=_par._job_cycles(runner, job),
                cache_hit=True, event="resumed" if resumed else "done"))
    prior_plan = os.environ.get(FAULT_PLAN_ENV)
    if fault_plan is not None:
        os.environ[FAULT_PLAN_ENV] = fault_plan
    try:
        if pending:
            plan = FaultPlan.from_env()
            batch = _Batch(runner, pending, policy, report, journal,
                           progress, len(results), total)
            nworkers = _worker_count(workers, len(pending), policy,
                                     plan is not None)
            pool = None
            if nworkers:
                try:
                    pool = _WorkerPool(batch, nworkers)
                except (OSError, ValueError, ImportError):
                    # No usable multiprocessing here: same results
                    # in-process, fewer guarantees.
                    pass
            if pool is not None:
                pool.run()
            else:
                _run_in_process(batch, plan)
            results.update(batch.results)
    finally:
        if fault_plan is not None:
            if prior_plan is None:
                os.environ.pop(FAULT_PLAN_ENV, None)
            else:
                os.environ[FAULT_PLAN_ENV] = prior_plan
    for job in unique:
        result = results[job]
        if not isinstance(result, Quarantined):
            _par._absorb(runner, job, result)
    return [results[job] for job in jobs], report


def _renumbered(progress, offset: int, total: int):
    """``progress`` fed one batch's beats as beats ``offset + 1 ..`` of
    a campaign of ``total`` jobs (None stays None)."""
    if progress is None:
        return None

    def beat(heartbeat: JobHeartbeat) -> None:
        progress(replace(heartbeat, index=offset + heartbeat.index,
                         total=total))
    return beat


def run_campaign_resilient(runner: ExperimentRunner,
                           mixes: Sequence, schemes: Sequence[str],
                           policy: Optional[ResiliencePolicy] = None,
                           workers: Optional[int] = None,
                           cycles: Optional[int] = None,
                           obs: bool = False,
                           progress=None,
                           phase_interval: Optional[int] = None,
                           artifacts_dir: Optional[str] = None,
                           resume: bool = False,
                           fault_plan: Optional[str] = None):
    """Run the full mixes×schemes grid in two batches of
    :func:`run_jobs_resilient`: the shared isolated runs (normalisation
    runs and scalability-curve points) once, then the grid cells with
    every worker started from the runner that holds them.  Returns
    ``(outcomes, report)`` in mix-major grid order, bit-identical to
    the serial loop; quarantined cells appear as :class:`Quarantined`
    placeholders.

    ``obs=True`` runs every cell observed (stall-attribution report on
    each outcome's ``result.obs``); ``phase_interval`` also turns on
    the phase sampler in every cell.  ``progress`` (e.g. a
    :class:`~repro.obs.telemetry.CampaignTelemetry`) receives one
    :class:`~repro.obs.telemetry.JobHeartbeat` per finished job.

    A policy that isolates failures (or ``resume=True``) checkpoints
    the grid cells to a journal under the runner's cache dir; the
    plain policy, or a runner without a cache dir, keeps none.  The
    isolated runs are not journaled: they are durable as the cache
    dir's ``iso-*.json`` records, which the probe reads back.
    ``resume=True`` replays the journal and re-runs only unfinished /
    quarantined cells.

    ``artifacts_dir`` makes the parent emit one run-artifact JSON per
    completed cell (plus the ``ledger.json`` index) after all workers
    return — the ledger write happens in exactly one process.  Cells
    that were retried or resumed carry per-cell provenance, and a
    journalled campaign adds the index's ``campaign`` block
    (``retries`` / ``quarantined`` / ``resumed`` / ``journal``); a
    fault-free campaign without a journal writes neither.
    """
    policy = policy or ResiliencePolicy()
    journal_path = (default_journal_path(runner)
                    if policy.isolates or resume else None)
    if resume and journal_path is None:
        raise ValueError(
            "--resume needs a checkpoint journal: give the runner a "
            "cache dir")
    journal = CampaignJournal(journal_path) if journal_path else None
    inputs = _par.shared_input_jobs(runner, mixes, schemes)
    cells = _par.campaign_jobs(mixes, schemes, cycles, obs=obs,
                               phase_interval=phase_interval)
    # Each batch numbers its beats from 1 against its own size; the
    # campaign's beats count both batches against their sum.
    n_inputs = len(set(inputs))
    total = n_inputs + len(set(cells))
    _inputs, report = run_jobs_resilient(
        runner, inputs, policy=policy, workers=workers,
        progress=_renumbered(progress, 0, total), fault_plan=fault_plan)
    outcomes, report = run_jobs_resilient(
        runner, cells, policy=policy, workers=workers,
        progress=_renumbered(progress, n_inputs, total), journal=journal,
        resume=resume, fault_plan=fault_plan, report=report)
    if artifacts_dir:
        from repro.obs import ledger
        sha = ledger.current_git_sha()
        artifacts = []
        # run_jobs_resilient returns results in cell order, so the
        # grid job and its outcome pair positionally.
        for job, outcome in zip(cells, outcomes):
            if isinstance(outcome, Quarantined):
                continue
            cell = report.cells[job_key(job)]
            provenance = None
            if cell.resumed or cell.attempts > 1 or cell.faults:
                provenance = {
                    "attempts": cell.attempts,
                    "resumed": cell.resumed,
                    "faults": list(cell.faults),
                }
            artifacts.append(ledger.artifact_from_outcome(
                outcome, runner.config, runner.settings, git_sha=sha,
                provenance=provenance))
        ledger.write_artifacts(artifacts_dir, artifacts, campaign={
            "retries": report.retries,
            "quarantined": report.quarantined,
            "resumed": report.resumed,
            "journal": os.path.basename(journal_path),
        } if journal_path else None)
    return outcomes, report
