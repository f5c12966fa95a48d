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
  probe, then a self-managed worker pool (one duplex pipe per worker)
  that detects dead workers, kills hung ones and retries failed cells
  with backoff — or the in-process loop with the same accounting — and
  returns a :class:`ResilienceReport` of the degradation alongside the
  results.
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
* :class:`FaultPlan` — a deterministic fault-injection schedule
  (worker kills, injected hangs, poisoned cells, unpicklable results,
  cache/journal corruption) that only the dispatching parent holds and
  spends: it draws each attempt's faults when it first dispatches that
  attempt and sends them with the job, and fires ``corrupt`` itself
  when an attempt succeeds.  Each fault fires at most ``times`` times
  per plan value, so the chaos tests can script "kill the worker on
  this cell, once" and know the retry will succeed.
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
import signal
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro._digest import md5, sha256
from repro.harness import parallel as _par
from repro.harness.runner import CACHE_VERSION, ExperimentRunner
from repro.obs.telemetry import JobHeartbeat

#: bump when the journal line schema changes; loaders skip other
#: versions (same stale-tolerance contract as the artifact ledger).
JOURNAL_VERSION = 1

#: fault kinds a plan may schedule.
FAULT_KINDS = ("kill", "hang", "raise", "unpicklable", "corrupt")

#: the kinds a worker's attempt draws at dispatch; the in-process loop
#: draws neither ``kill`` nor ``hang``, which would strike the parent.
WORKER_FAULTS = ("kill", "hang", "raise", "unpicklable")
IN_PROCESS_FAULTS = ("raise", "unpicklable")

#: growth of the retry backoff per failed attempt.
BACKOFF_FACTOR = 2.0


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
    often the fault fires per plan value; ``seconds`` is the hang
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
        if self.kind == "corrupt" and not self.path:
            raise ValueError(f"corrupt fault {self.id!r} needs a path")


class FaultPlan:
    """A deterministic schedule of injected faults, spent by the
    dispatching parent.

    ``fired`` counts each fault's firings; a fault with ``times=N``
    fires N times at most, however many batches, retries and respawned
    workers the plan value serves.  The parent draws an attempt's
    faults (:meth:`draw`) once, when it first dispatches the attempt,
    and sends them with the job; a worker killed mid-cell took its
    drawn faults with it, so the retried cell runs clean.
    """

    VERSION = 1

    def __init__(self, faults: Sequence[FaultSpec]):
        self.faults = list(faults)
        self.fired: Dict[str, int] = {f.id: 0 for f in self.faults}
        if len(self.fired) != len(self.faults):
            raise ValueError("fault ids must be unique")

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        """Load a plan file; an unreadable one raises ``OSError``, an
        unparsable, wrong-version or malformed one ``ValueError``.
        Keys other than ``version`` and ``faults`` are ignored."""
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError("a fault plan is a JSON object")
        if payload.get("version") != cls.VERSION:
            raise ValueError(f"unsupported fault-plan version "
                             f"{payload.get('version')!r}")
        entries = payload.get("faults", [])
        if not isinstance(entries, list):
            raise ValueError("'faults' must be a list")
        faults = []
        for entry in entries:
            try:
                faults.append(FaultSpec(
                    id=str(entry["id"]), kind=str(entry["kind"]),
                    match=str(entry.get("match", "*")),
                    times=int(entry.get("times", 1)),
                    seconds=float(entry.get("seconds", 3600.0)),
                    path=entry.get("path")))
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise ValueError(f"malformed fault {entry!r}: {exc!r}") \
                    from None
        return cls(faults)

    # ------------------------------------------------------------------
    def draw(self, label: str, kinds: Tuple[str, ...]
             ) -> Tuple[FaultSpec, ...]:
        """Spend the faults of ``kinds`` one attempt of ``label`` fires:
        those with firings left, in plan order, up to the first
        ``kill`` or ``raise`` — the attempt ends there, so no
        ``unpicklable`` fault drawn before it would fire."""
        drawn: List[FaultSpec] = []
        for spec in self.faults:
            if (spec.kind not in kinds
                    or self.fired[spec.id] >= spec.times
                    or not fnmatch.fnmatchcase(label, spec.match)):
                continue
            if spec.kind in ("kill", "raise"):
                drawn = [f for f in drawn if f.kind != "unpicklable"]
                drawn.append(spec)
                break
            drawn.append(spec)
        for spec in drawn:
            self.fired[spec.id] += 1
        return tuple(drawn)

    def corrupt(self, label: str) -> None:
        """Fire the ``corrupt`` faults of a succeeded attempt of
        ``label``: each garbles one on-disk file (cache record,
        journal, artifact), exercising every reader's corrupt-tolerance
        path."""
        for spec in self.draw(label, ("corrupt",)):
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
    first, sleeping ``backoff_s * BACKOFF_FACTOR**(attempt-1)`` between
    them; once the budget is gone the cell is quarantined (campaign
    continues) unless ``quarantine`` is False (the first exhausted cell
    raises :class:`JobError` and aborts the batch).
    """

    timeout_s: Optional[float] = None
    retries: int = 2
    backoff_s: float = 0.25
    quarantine: bool = True

    def backoff_after(self, attempt: int) -> float:
        """Seconds to wait before re-dispatching after failed attempt
        number ``attempt`` (1-based)."""
        return self.backoff_s * (BACKOFF_FACTOR ** (attempt - 1))

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

    def __init__(self):
        self.cells: Dict[str, CellReport] = {}

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
def _attempt(runner: ExperimentRunner, job,
             faults: Sequence[FaultSpec] = ()) -> Tuple[str, float, object]:
    """Execute ``job`` once, firing the ``faults`` the parent drew for
    this attempt: ``("ok", seconds, result)``, ``("hit", seconds,
    result)`` when the executing runner recalled the result without
    simulating (an isolated run another job's simulation already made),
    or ``("err", seconds, JobError)``.  An ``unpicklable`` fault
    returns the result in a shell whose pickling fails."""
    label = _par._job_label(job)
    start = time.perf_counter()
    try:
        for spec in faults:
            if spec.kind == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif spec.kind == "hang":
                time.sleep(spec.seconds)
            elif spec.kind == "raise":
                raise FaultInjected(
                    f"fault {spec.id!r} poisoned cell {label!r}")
        status = "ok" if _par._probe_cache(runner, job) is None else "hit"
        result = _par.execute_job(runner, job)
        if any(spec.kind == "unpicklable" for spec in faults):
            result = _Unpicklable(result)
        return status, time.perf_counter() - start, result
    except Exception as exc:
        err = (exc if isinstance(exc, JobError)
               else JobError.from_exception(label, exc))
        return "err", time.perf_counter() - start, err


def _unshippable(label: str, exc: BaseException) -> JobError:
    return JobError(label, type(exc).__name__,
                    f"result of {label!r} could not be pickled across "
                    f"the process boundary: {exc}")


def _worker_main(conn, runner: ExperimentRunner, parent_ends) -> None:
    """Worker loop: receive ``(job, faults)`` on ``conn``, execute it on
    ``runner`` (the parent's, as the parent held it at start-up), send
    the pickled ``(status, duration, payload)`` back on ``conn``.

    ``parent_ends`` are the parent's ends of this worker's pipe and of
    its siblings'; a forked worker inherits them and closes them first,
    so that a dead parent reads as EOF here.  The payload is pickled
    before anything is sent: an unpicklable result becomes a
    :class:`JobError` reply instead of a half-written message the
    parent would misread as a crash."""
    for end in parent_ends:
        end.close()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        job, faults = message
        status, duration, payload = _attempt(runner, job, faults)
        try:
            blob = pickle.dumps((status, duration, payload),
                                protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            blob = pickle.dumps(
                ("err", duration, _unshippable(_par._job_label(job), exc)),
                protocol=pickle.HIGHEST_PROTOCOL)
        try:
            conn.send_bytes(blob)
        except OSError:
            break  # the parent is gone


# ----------------------------------------------------------------------
# per-cell accounting (the single copy both execution modes drive)
class _Batch:
    """Settling, attempt, retry, quarantine, fault, journal and
    heartbeat accounting for the unique jobs of one batch."""

    def __init__(self, runner: ExperimentRunner, jobs: List,
                 policy: ResiliencePolicy, report: ResilienceReport,
                 journal: Optional[CampaignJournal], progress,
                 plan: Optional[FaultPlan]):
        self.runner = runner
        self.jobs = jobs
        self.policy = policy
        self.report = report
        self.journal = journal
        self.progress = progress
        self.plan = plan
        self.results: Dict[object, object] = {}

    @property
    def outstanding(self) -> int:
        return len(self.jobs) - len(self.results)

    def pending(self) -> List:
        """The jobs not settled yet, in input order."""
        return [job for job in self.jobs if job not in self.results]

    def draw(self, job, kinds: Tuple[str, ...]) -> Tuple[FaultSpec, ...]:
        """The faults one attempt of ``job`` fires (none without a plan)."""
        if self.plan is None:
            return ()
        return self.plan.draw(_par._job_label(job), kinds)

    def _beat(self, job, duration: float, attempt: int, **extra) -> None:
        if self.progress is not None:
            self.progress(JobHeartbeat(
                index=len(self.results), total=len(self.jobs),
                label=_par._job_label(job), duration_s=duration,
                attempt=attempt, **extra))

    def recalled(self, job, result, resumed: bool) -> None:
        """Settle ``job`` before dispatch, from the journal (``resumed``)
        or the parent runner: a cache hit of 0 cycles."""
        self.results[job] = result
        cell = self.report.cell(job)
        cell.resumed = cell.resumed or resumed
        self._beat(job, 0.0, 1, sim_cycles=0, cache_hit=True,
                   event="resumed" if resumed else "done")

    def succeeded(self, job, result, duration: float, attempt: int,
                  simulated: bool = True) -> None:
        """Settle ``job`` from a successful attempt: fire its planned
        ``corrupt`` faults, then journal it.  ``simulated`` False books
        a result the executing runner recalled as a cache hit of 0
        cycles."""
        if job in self.results:
            return  # pragma: no cover - duplicate completion guard
        self.results[job] = result
        if self.plan is not None:
            self.plan.corrupt(_par._job_label(job))
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


def _run_in_process(batch: _Batch) -> None:
    """The in-process job loop: retries, quarantine and ``raise`` /
    ``unpicklable`` / ``corrupt`` faults still apply; preemptive
    timeouts and ``kill`` / ``hang`` faults need a sacrificial worker
    process, so none is drawn (documented in docs/RESILIENCE.md)."""
    for job in batch.pending():
        attempt = 1
        while True:
            batch.report.cell(job).attempts += 1
            status, duration, payload = _attempt(
                batch.runner, job, batch.draw(job, IN_PROCESS_FAULTS))
            if isinstance(payload, _Unpicklable):
                # Nothing crosses a process boundary here: fail the way
                # a worker's pickling would have.
                status, payload = "err", _unshippable(
                    _par._job_label(job),
                    TypeError("deliberately unpicklable result "
                              "(fault injection)"))
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
    """One sacrificial worker process and its duplex pipe: jobs go
    down, pickled replies come back up."""

    def __init__(self, ctx, runner: ExperimentRunner,
                 siblings: Sequence["_Worker"]):
        self.conn, child = ctx.Pipe()
        parent_ends = [self.conn] + [w.conn for w in siblings
                                     if not w.conn.closed]
        self.proc = ctx.Process(target=_worker_main,
                                args=(child, runner, parent_ends),
                                daemon=True)
        self.proc.start()
        child.close()
        #: (seq, attempt, deadline | None) while busy.
        self.busy: Optional[Tuple[int, int, Optional[float]]] = None

    def kill(self) -> None:
        self.proc.kill()
        self.proc.join(timeout=5.0)

    def shutdown(self) -> None:
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass
        self.proc.join(timeout=2.0)
        if self.proc.is_alive():
            self.kill()
        self.conn.close()


class _WorkerPool:
    """Parent-side state machine running a batch's pending jobs over
    self-managed worker processes.  The parent blocks on every busy
    worker's pipe and process sentinel at once, until the nearest
    deadline or backoff end; a dead worker is replaced when it is next
    dispatched to, and a failed attempt is re-queued after its
    backoff."""

    def __init__(self, batch: _Batch, nworkers: int):
        self.batch = batch
        self.policy = batch.policy
        self.jobs = batch.pending()
        #: FIFO of (seq, attempt, faults) ready to dispatch now; an
        #: attempt's faults are None until its first dispatch draws
        #: them.
        self.runnable: List[Tuple[int, int, Optional[tuple]]] = [
            (seq, 1, None) for seq in range(len(self.jobs))]
        #: (eligible_monotonic, seq, attempt) sleeping out a backoff.
        self.backoff: List[Tuple[float, int, int]] = []
        # Imported here: in-process and fully journaled campaigns
        # never start a pool.
        import multiprocessing
        self.ctx = multiprocessing.get_context()
        self.workers: List[_Worker] = []
        try:
            for _ in range(nworkers):
                self.workers.append(self._spawn())
        except BaseException:
            self.close()
            raise

    def _spawn(self) -> _Worker:
        return _Worker(self.ctx, self.batch.runner, self.workers)

    def close(self) -> None:
        for worker in self.workers:
            worker.shutdown()

    # ------------------------------------------------------------------
    def run(self) -> None:
        try:
            while self.batch.outstanding:
                self._promote_backoff()
                self._dispatch_ready()
                self._wait_and_settle()
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
                self.runnable.append((seq, attempt, None))

    def _dispatch_ready(self) -> None:
        for i, worker in enumerate(self.workers):
            if not self.runnable:
                return
            if worker.busy is not None:
                continue
            if not worker.proc.is_alive():
                worker.shutdown()
                worker = self.workers[i] = self._spawn()
            seq, attempt, faults = self.runnable[0]
            job = self.jobs[seq]
            if faults is None:
                faults = self.batch.draw(job, WORKER_FAULTS)
                self.runnable[0] = (seq, attempt, faults)
            try:
                worker.conn.send((job, faults))
            except (OSError, ValueError):
                # It died after the liveness check: the next dispatch
                # replaces it and sends the attempt with the same faults.
                worker.kill()
                continue
            self.runnable.pop(0)
            self.batch.report.cell(job).attempts += 1
            worker.busy = (seq, attempt,
                           time.monotonic() + self.policy.timeout_s
                           if self.policy.timeout_s else None)

    # ------------------------------------------------------------------
    def _wait_and_settle(self) -> None:
        from multiprocessing.connection import wait
        busy = [w for w in self.workers if w.busy is not None]
        ends = [w.busy[2] for w in busy if w.busy[2] is not None]
        ends += [when for when, _seq, _attempt in self.backoff]
        timeout = (max(0.0, min(ends) - time.monotonic())
                   if ends else None)
        if busy:
            wait([obj for w in busy for obj in (w.conn, w.proc.sentinel)],
                 timeout)
        elif timeout is not None:
            time.sleep(timeout)
        for worker in busy:
            self._settle(worker)

    def _settle(self, worker: _Worker) -> None:
        """Settle one busy worker: its reply first, then its death,
        then its deadline.  Death and the clock are read *before* the
        pipe, so a reply sent by a worker that then exited, or that
        arrived just as its deadline passed, is still the cell's
        result."""
        seq, attempt, deadline = worker.busy
        dead = not worker.proc.is_alive()
        now = time.monotonic()
        if worker.conn.poll():
            try:
                blob = worker.conn.recv_bytes()
            except (EOFError, OSError):
                worker.kill()
                dead = True
            else:
                worker.busy = None
                self._handle_result(seq, attempt, blob)
                return
        if dead:
            worker.busy = None
            self._failed(seq, attempt, "worker-crash", 0.0)
        elif deadline is not None and now >= deadline:
            worker.busy = None
            worker.kill()
            self._failed(seq, attempt, "timeout", self.policy.timeout_s)

    def _failed(self, seq: int, attempt: int, fault: str, duration: float,
                error: Optional[JobError] = None) -> None:
        backoff = self.batch.failed(self.jobs[seq], attempt, fault,
                                    duration, error=error)
        if backoff is not None:
            self.backoff.append((time.monotonic() + backoff, seq,
                                 attempt + 1))

    def _handle_result(self, seq: int, attempt: int, blob: bytes) -> None:
        try:
            status, duration, payload = pickle.loads(blob)
        except Exception:
            self._failed(seq, attempt, "garbled-result", 0.0)
            return
        if status != "err":
            self.batch.succeeded(self.jobs[seq], payload, duration,
                                 attempt, simulated=status == "ok")
        else:
            self._failed(seq, attempt, f"error:{payload.original_type}",
                         duration, error=payload)


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
                       fault_plan: Optional[FaultPlan] = None,
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
    unaffected by its presence.  ``fault_plan`` is spent as the batch
    runs: each attempt's faults are drawn from it at dispatch.
    """
    policy = policy or ResiliencePolicy()
    report = report if report is not None else ResilienceReport()
    unique: List = list(dict.fromkeys(jobs))
    if not unique:
        return [], report
    checkpoints: Dict[str, object] = {}
    if journal is not None:
        if resume:
            checkpoints, _quarantined = journal.load()
        else:
            journal.reset()
    batch = _Batch(runner, unique, policy, report, journal, progress,
                   fault_plan)
    for job in unique:
        known = _checkpointed(checkpoints, job)
        resumed = known is not None
        if not resumed:
            known = _par._probe_cache(runner, job)
        if known is not None:
            batch.recalled(job, known, resumed)
    if batch.outstanding:
        nworkers = _worker_count(workers, batch.outstanding, policy,
                                 fault_plan is not None)
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
            _run_in_process(batch)
    results = batch.results
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
                           fault_plan: Optional[FaultPlan] = None):
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
    quarantined cells.  One ``fault_plan`` value serves both batches,
    so a fault's ``times`` counts across the whole campaign.

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
