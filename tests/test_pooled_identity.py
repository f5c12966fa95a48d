"""The slot-pooled memory path must be bit-identical to the object path.

``GPU(pooled=True)`` swaps every memory-pipeline component for its
struct-of-arrays twin — slot-pooled requests, the array tag store,
entry-pooled MSHRs, ring-buffer DRAM queues, and the event-encoded
subsystem clock — while ``pooled=False`` keeps the original
``MemRequest`` object path.  Nothing downstream may be able to tell:
these tests sweep the scheme space, the observability matrix, and
randomized mixes, requiring every collected statistic to match exactly.
"""

import random

import pytest

from repro.config import scaled_config
from repro.core.arbiter import SchemeConfig
from repro.harness.perfbench import result_signature
from repro.obs import Observability
from repro.sim.engine import GPU, make_launches
from repro.workloads.profiles import PROFILES_BY_NAME, get_profile

CONFIG = scaled_config()
CYCLES = 1500

# The fastpath scheme sweep, reused verbatim: every arbiter/BMI/MIL/
# UCP/bypass combination the fast-loop proof covers, the pooled proof
# covers too.
CASES = [
    ("gto-base", ("3m", "bp"), (4, 4), {}, {}),
    ("gto-single", ("3m",), (2,), {}, {}),
    ("lrr-base", ("3m", "bp"), (4, 4), {}, {"scheduler_policy": "lrr"}),
    ("rbmi-dmil", ("st", "sv"), (4, 4), {"bmi": "rbmi", "mil": "dmil"}, {}),
    ("qbmi", ("st", "sv"), (2, 2),
     {"bmi": "qbmi", "qbmi_init_req_per_minst": (4, 4)}, {}),
    ("smil", ("hs", "cd"), (1, 2),
     {"mil": "smil", "smil_limits": (2, 2)}, {}),
    ("ucp", ("3m", "bp"), (2, 2), {"ucp": True, "ucp_interval": 500}, {}),
    ("smk-quota", ("3m", "bp"), (2, 2), {"smk_quotas": (3, 1)}, {}),
    ("bypass", ("st", "sv"), (2, 2), {"l1d_bypass": (True, False)}, {}),
]


def run_once(kernels, tbs, scheme_kwargs, cfg_kwargs, *, pooled,
             reference=False, obs=False, seed=3, cycles=CYCLES):
    config = scaled_config(**cfg_kwargs) if cfg_kwargs else CONFIG
    profiles = [get_profile(k) for k in kernels]
    launches = make_launches(profiles, list(tbs), config, seed=seed)
    gpu = GPU(config, launches, SchemeConfig(**scheme_kwargs),
              reference=reference, pooled=pooled,
              obs=Observability() if obs else None)
    assert gpu.pooled is pooled
    return gpu.run(cycles)


@pytest.mark.parametrize(
    "kernels,tbs,scheme_kwargs,cfg_kwargs",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES])
def test_pooled_matches_object_path(kernels, tbs, scheme_kwargs,
                                    cfg_kwargs):
    obj = run_once(kernels, tbs, scheme_kwargs, cfg_kwargs, pooled=False)
    pool = run_once(kernels, tbs, scheme_kwargs, cfg_kwargs, pooled=True)
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
    """Memory-stall sleep engages on the pooled path only (the object
    L1 has no ``on_release`` wake), so pooled-vs-object identity on an
    M+M mix is also stall-sleeping-vs-ticking identity."""
    cfg_kwargs = {"scheduler_policy": policy}
    obj = run_once(("ks", "ax"), (4, 4), scheme_kwargs, cfg_kwargs,
                   pooled=False)
    pool = run_once(("ks", "ax"), (4, 4), scheme_kwargs, cfg_kwargs,
                    pooled=True)
    assert result_signature(pool) == result_signature(obj)
    assert pool.sleep["mem_stall"] > 0
    assert obj.sleep["mem_stall"] == 0


def test_pooled_matches_reference_loop():
    """Transitivity check pinned down explicitly: pooled fast loop ==
    object fast loop == reference loop, on a memory-bound mix."""
    ref = run_once(("cd", "sv"), (4, 4), {}, {}, pooled=False,
                   reference=True)
    obj = run_once(("cd", "sv"), (4, 4), {}, {}, pooled=False)
    pool = run_once(("cd", "sv"), (4, 4), {}, {}, pooled=True)
    assert result_signature(obj) == result_signature(ref)
    assert result_signature(pool) == result_signature(ref)


def test_obs_matrix_identical():
    """Observability hooks read pool slots through the same sentinel
    interface: obs totals and run stats match across all four cells of
    the (pooled, reference) matrix."""
    cells = {}
    for pooled in (False, True):
        for reference in (False, True):
            gpu_kwargs = dict(pooled=pooled, reference=reference, obs=True)
            result = run_once(("st", "sv"), (3, 3), {"mil": "dmil"}, {},
                              **gpu_kwargs)
            cells[(pooled, reference)] = result_signature(result)
    assert len(set(cells.values())) == 1, cells.keys()


def test_obs_default_prefers_object_path():
    """``obs=True`` forces the reference loop, and an unset ``pooled``
    then resolves to the object path — obs runs never silently change
    substrate underneath the operator."""
    launches = make_launches([get_profile("st")], [2], CONFIG, seed=1)
    gpu = GPU(CONFIG, launches, SchemeConfig(), obs=Observability())
    assert gpu.reference is True
    assert gpu.pooled is False


def test_pooled_env_var_controls_default(monkeypatch):
    launches = make_launches([get_profile("3m")], [1], CONFIG, seed=0)
    monkeypatch.setenv("REPRO_POOLED_MEM", "0")
    assert GPU(CONFIG, launches, SchemeConfig()).pooled is False
    launches = make_launches([get_profile("3m")], [1], CONFIG, seed=0)
    monkeypatch.setenv("REPRO_POOLED_MEM", "1")
    assert GPU(CONFIG, launches, SchemeConfig()).pooled is True
    monkeypatch.delenv("REPRO_POOLED_MEM")
    # Unset: pooled follows the fast loop (on unless reference).
    launches = make_launches([get_profile("3m")], [1], CONFIG, seed=0)
    assert GPU(CONFIG, launches, SchemeConfig()).pooled is True
    launches = make_launches([get_profile("3m")], [1], CONFIG, seed=0)
    assert GPU(CONFIG, launches, SchemeConfig(),
               reference=True).pooled is False


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
        obj = run_once(kernels, tbs, scheme_kwargs, {}, pooled=False,
                       seed=seed, cycles=900)
        pool = run_once(kernels, tbs, scheme_kwargs, {}, pooled=True,
                        seed=seed, cycles=900)
        assert result_signature(pool) == result_signature(obj), (
            trial, kernels, tbs, scheme_kwargs, seed)
