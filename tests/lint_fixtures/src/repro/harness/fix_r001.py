"""REPRO-R001 fixture: module-level state written worker-side, read
parent-side.

``_run_one`` is handed to ``pool.submit`` so it executes in a spawned
worker process — its append lands in the *worker's* copy of
``_RESULTS`` and ``collect_results`` (parent-side) reads import-time
state.  The good worker ships data through its return value instead.
``_pool_worker`` is the other spelling of a worker entry: the
``target=`` of a ``Process(...)``, which is how the campaign
dispatcher starts its workers.
"""

_RESULTS = []
_WORKER_SCRATCH = {}


def _run_one(job):
    outcome = job * 2
    _RESULTS.append(outcome)  # LINT-BAD: REPRO-R001
    _WORKER_SCRATCH[job] = outcome  # LINT-OK: only read worker-side
    return _scratch_hits(job)


def _scratch_hits(job):
    # worker-side read of worker-side state: coherent, no race.
    return _WORKER_SCRATCH.get(job)


def run_campaign(pool, jobs):
    return [pool.submit(_run_one, job) for job in jobs]


def run_campaign_good(pool, jobs):
    futures = [pool.submit(_good_worker, job) for job in jobs]
    return [f.result() for f in futures]


def _good_worker(job):
    return job * 2  # LINT-OK: data rides the picklable return value


def collect_results():
    # parent-side read: sees the import-time empty list, never the
    # workers' appends.
    return list(_RESULTS)


# A module-level slot ledger in the request-pool idiom: the pooled
# memory path keeps per-run pools *inside* the GPU object, but a
# tempting "optimization" is a module-global ledger shared across
# campaign jobs — worker-side writes to it are invisible parent-side.
_SLOT_LEDGER = []


def _pool_worker(job):
    _SLOT_LEDGER.append(job)  # LINT-BAD: REPRO-R001
    return job * 2


def run_pool_campaign(ctx, jobs):
    procs = [ctx.Process(target=_pool_worker, args=(job,), daemon=True)
             for job in jobs]
    for proc in procs:
        proc.start()
    return procs


def pool_slots_seen():
    # parent-side read of the worker-written ledger: import-time empty.
    return list(_SLOT_LEDGER)
