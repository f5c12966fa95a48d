"""The production machine's slot-pooled memory path must be
bit-identical to the oracle's object path.

The production machine swaps every memory-pipeline component for its
struct-of-arrays twin — slot-pooled requests, the array tag store,
entry-pooled MSHRs, the event-encoded subsystem clock and the
memoising LSU tick — while the oracle (``reference=True``) keeps the
``MemRequest`` object path; ``obs`` rides on either.  Nothing
downstream may be able to tell.  tests/test_fastpath.py sweeps the
scheme space at one seed; this file repeats its nine base cells at a
second seed, pins stall-sleep engagement per scheme, and covers the
(reference, obs) matrix and randomized mixes.
"""

import random

import pytest

from repro.config import scaled_config
from repro.harness.perfbench import result_signature
from repro.mem.subsystem import MemorySubsystem, PooledMemorySubsystem
from repro.workloads.profiles import PROFILES_BY_NAME
from tests.test_fastpath import (BASE_CASES, CONFIG, CYCLES,
                                 assert_reports_equal, build_gpu)


def run_once(kernels, tbs, scheme_kwargs, cfg_kwargs, *, reference,
             obs=False, seed=5, cycles=CYCLES):
    config = scaled_config(**cfg_kwargs) if cfg_kwargs else CONFIG
    gpu = build_gpu(kernels, tbs, scheme_kwargs, config, seed=seed,
                    reference=reference, obs=obs)
    assert type(gpu.memory) is (MemorySubsystem if reference
                                else PooledMemorySubsystem)
    return gpu.run(cycles)


@pytest.mark.parametrize(
    "kernels,tbs,scheme_kwargs,cfg_kwargs",
    [case[1:] for case in BASE_CASES],
    ids=[case[0] for case in BASE_CASES])
def test_pooled_matches_object_path(kernels, tbs, scheme_kwargs,
                                    cfg_kwargs):
    obj = run_once(kernels, tbs, scheme_kwargs, cfg_kwargs, reference=True)
    pool = run_once(kernels, tbs, scheme_kwargs, cfg_kwargs, reference=False)
    assert result_signature(pool) == result_signature(obj)
    for slot in range(len(kernels)):
        assert pool.ipc(slot) == obj.ipc(slot)


@pytest.mark.parametrize("policy", ("gto", "lrr"))
@pytest.mark.parametrize(
    "scheme_kwargs",
    ({}, {"mil": "dmil"}, {"mil": "gdmil"},
     {"mil": "dmil", "bmi": "qbmi", "qbmi_init_req_per_minst": (4, 4)}),
    ids=("baseline", "dmil-local", "dmil-global", "dmil+qbmi"))
def test_stall_sleep_is_pooled_only_and_invisible(scheme_kwargs, policy):
    """Memory-stall sleep engages on the production machine only (the
    object L1 has no ``on_release`` wake), so pooled-vs-object identity
    on an M+M mix is also stall-sleeping-vs-ticking identity."""
    cfg_kwargs = {"scheduler_policy": policy}
    obj = run_once(("ks", "ax"), (4, 4), scheme_kwargs, cfg_kwargs,
                   reference=True)
    pool = run_once(("ks", "ax"), (4, 4), scheme_kwargs, cfg_kwargs,
                    reference=False)
    assert result_signature(pool) == result_signature(obj)
    assert pool.sleep["mem_stall"] > 0
    assert obj.sleep["mem_stall"] == 0


def test_pooled_matches_reference_loop():
    """Production == oracle on a memory-bound mix outside CASES."""
    ref = run_once(("cd", "sv"), (4, 4), {}, {}, reference=True)
    pool = run_once(("cd", "sv"), (4, 4), {}, {}, reference=False)
    assert result_signature(pool) == result_signature(ref)


def test_obs_matrix_identical():
    """All four cells of the (reference, obs) matrix agree on the
    simulation — ``run_once`` checks each cell runs the machine its
    ``reference`` value names, observed or not — and the two observed
    cells on the report: the pooled path's ``PoolSlotView`` hook sites
    and batched attribution say what the object path says."""
    cells = {}
    for reference in (False, True):
        for obs in (False, True):
            cells[(reference, obs)] = run_once(
                ("st", "sv"), (3, 3), {"mil": "dmil"}, {},
                reference=reference, obs=obs)
    assert len({result_signature(result)
                for result in cells.values()}) == 1, cells.keys()
    assert_reports_equal(cells[(False, True)].obs, cells[(True, True)].obs)


def test_obs_default_prefers_object_path():
    """The id is historical: ``obs=True`` no longer prefers anything.
    It observes the production machine — fast loop, pooled memory path,
    asleep through the stalls it attributes — unless ``reference``
    says otherwise."""
    gpu = build_gpu(("st", "sv"), (2, 2), seed=1, obs=True)
    assert gpu.reference is False
    assert type(gpu.memory) is PooledMemorySubsystem
    result = gpu.run(CYCLES)
    assert result.sleep["mem_stall"] > 0
    assert result.sleep["obs_batched_slots"] > 0
    oracle = build_gpu(("st", "sv"), (2, 2), seed=1, obs=True,
                       reference=True)
    assert type(oracle.memory) is MemorySubsystem


def test_randomized_mixes_fuzz():
    """Random mixes x schemes x seeds: the identity must hold off the
    curated path too.  Kept small enough for tier-1 (~8 pairs)."""
    rng = random.Random(2026)
    names = sorted(PROFILES_BY_NAME)
    scheme_space = [
        {},
        {"bmi": "rbmi"},
        {"mil": "dmil"},
        {"bmi": "qbmi", "qbmi_init_req_per_minst": (4, 4)},
        {"ucp": True, "ucp_interval": 400},
    ]
    for trial in range(8):
        kernels = tuple(rng.sample(names, rng.choice((1, 2))))
        tbs = tuple(rng.choice((1, 2, 3)) for _ in kernels)
        scheme_kwargs = dict(rng.choice(scheme_space))
        if "qbmi_init_req_per_minst" in scheme_kwargs:
            scheme_kwargs["qbmi_init_req_per_minst"] = tuple(
                4 for _ in kernels)
        seed = rng.randrange(1000)
        obj = run_once(kernels, tbs, scheme_kwargs, {}, reference=True,
                       seed=seed, cycles=900)
        pool = run_once(kernels, tbs, scheme_kwargs, {}, reference=False,
                        seed=seed, cycles=900)
        assert result_signature(pool) == result_signature(obj), (
            trial, kernels, tbs, scheme_kwargs, seed)
