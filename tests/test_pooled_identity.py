"""The production machine's sleeps and observed reports must be
invisible next to the oracle's.

The production machine (``SleepingSM``) skips the cycles it proves
nothing happens in; the oracle (``reference=True``:
``StreamingMultiprocessor``) ticks every one.  Both run over the one
``MemRequest`` memory path; only the SM class differs.  tests/test_fastpath.py sweeps the scheme
space; this file pins memory-stall sleep engagement per scheme at a
second seed, and covers the (reference, obs) matrix and what
``obs=True`` alone observes.
"""

import pytest

from repro.config import scaled_config
from repro.harness.perfbench import result_signature
from repro.mem.subsystem import MemorySubsystem
from repro.sim.sm import SleepingSM, StreamingMultiprocessor
from tests.test_fastpath import (CONFIG, CYCLES, assert_components_equal,
                                 assert_reports_equal, build_gpu)


def run_gpu(kernels, tbs, scheme_kwargs, cfg_kwargs, *, reference,
            obs=False, seed=5):
    config = scaled_config(**cfg_kwargs) if cfg_kwargs else CONFIG
    gpu = build_gpu(kernels, tbs, scheme_kwargs, config, seed=seed,
                    reference=reference, obs=obs)
    assert type(gpu.memory) is MemorySubsystem
    assert {type(sm) for sm in gpu.sms} == {
        StreamingMultiprocessor if reference else SleepingSM}
    return gpu, gpu.run(CYCLES)


def run_once(*args, **kwargs):
    return run_gpu(*args, **kwargs)[1]


@pytest.mark.parametrize("policy", ("gto", "lrr"))
@pytest.mark.parametrize(
    "scheme_kwargs",
    ({}, {"mil": "dmil"}, {"mil": "gdmil"},
     {"mil": "dmil", "bmi": "qbmi", "qbmi_init_req_per_minst": (4, 4)}),
    ids=("baseline", "dmil-local", "dmil-global", "dmil+qbmi"))
def test_stall_sleep_is_pooled_only_and_invisible(scheme_kwargs, policy):
    """Memory-stall sleep engages on the production machine only (the
    oracle SM has no sleep at all), so production-vs-oracle identity on
    an M+M mix is also stall-sleeping-vs-ticking identity."""
    cfg_kwargs = {"scheduler_policy": policy}
    obj = run_once(("ks", "ax"), (4, 4), scheme_kwargs, cfg_kwargs,
                   reference=True)
    prod = run_once(("ks", "ax"), (4, 4), scheme_kwargs, cfg_kwargs,
                    reference=False)
    assert result_signature(prod) == result_signature(obj)
    assert prod.sleep["mem_stall"] > 0
    assert obj.sleep["mem_stall"] == 0


def test_obs_matrix_identical():
    """All four cells of the (reference, obs) matrix agree on the
    simulation — ``run_once`` checks each cell runs the machine its
    ``reference`` value names, observed or not — and the two observed
    cells on the report: the production machine's batched attribution
    says what the oracle's per-cycle attribution says."""
    gpus, cells = {}, {}
    for reference in (False, True):
        for obs in (False, True):
            gpus[(reference, obs)], cells[(reference, obs)] = run_gpu(
                ("st", "sv"), (3, 3), {"mil": "dmil"}, {},
                reference=reference, obs=obs)
    assert len({result_signature(result)
                for result in cells.values()}) == 1, cells.keys()
    assert_reports_equal(cells[(False, True)].obs, cells[(True, True)].obs)
    for gpu in gpus.values():
        assert_components_equal(gpu, gpus[(True, True)])


def test_obs_default_prefers_object_path():
    """The id is historical: ``obs=True`` no longer prefers anything,
    and both machines run the object path.  It observes the production
    machine — sleeping SMs, asleep through the stalls it attributes —
    unless ``reference`` says otherwise."""
    gpu = build_gpu(("st", "sv"), (2, 2), seed=1, obs=True)
    assert gpu.reference is False
    assert type(gpu.memory) is MemorySubsystem
    assert {type(sm) for sm in gpu.sms} == {SleepingSM}
    result = gpu.run(CYCLES)
    assert result.sleep["mem_stall"] > 0
    assert result.sleep["obs_batched_slots"] > 0
    oracle = build_gpu(("st", "sv"), (2, 2), seed=1, obs=True,
                       reference=True)
    assert type(oracle.memory) is MemorySubsystem
    assert {type(sm) for sm in oracle.sms} == {StreamingMultiprocessor}
