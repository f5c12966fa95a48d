"""Property-based fuzzing of the trace compiler against its
live-stream oracle and of the production machine against the oracle
end to end: observed runs (batched stall attribution against the
oracle's per-cycle one), MIL-capped runs and hit-heavy runs.  A shrunk
counterexample is a minimal reproduction, not a 4000-step haystack.

Rides under the ``fuzz`` marker (excluded from tier-1 via the default
``-m "not fuzz"`` addopts; CI's chaos-smoke job and ``pytest -m fuzz``
run it explicitly).  ``derandomize=True`` keeps the suite
deterministic in CI — no flaky example databases, no fresh seeds.
"""

import dataclasses

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.config import scaled_config  # noqa: E402
from repro.core.arbiter import SchemeConfig  # noqa: E402
from repro.harness.perfbench import result_signature  # noqa: E402
from repro.obs import ObsOptions  # noqa: E402
from repro.sim.engine import GPU, make_launches  # noqa: E402
from repro.sim.stats import SLEEP_CAUSES  # noqa: E402
from repro.workloads import trace as ktrace  # noqa: E402
from repro.workloads.address import (  # noqa: E402
    MixPattern,
    ReusePattern,
    StreamPattern,
)
from repro.workloads.kernel import KernelProfile  # noqa: E402
from repro.workloads.profiles import PROFILES_BY_NAME, get_profile  # noqa: E402
from tests.test_fastpath import assert_reports_equal  # noqa: E402

pytestmark = pytest.mark.fuzz

FUZZ = settings(derandomize=True, max_examples=50, deadline=None)


# ----------------------------------------------------------------------
# Trace compiler vs live InstructionStream (the draw-order contract)
fractions = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
recycle = st.one_of(st.none(), st.integers(1, 5))
patterns = st.one_of(
    st.builds(lambda region, slots: ("stream", region, slots),
              st.integers(1, 40), recycle),
    st.builds(lambda ws: ("reuse", ws), st.integers(1, 40)),
    st.builds(lambda ws, frac, region, slots: ("mix", ws, frac, region, slots),
              st.integers(1, 40), fractions, st.integers(1, 40), recycle),
)
PATTERN_CLASSES = {"stream": StreamPattern, "reuse": ReusePattern,
                   "mix": MixPattern}


@settings(FUZZ, max_examples=300)
@given(cinst=st.integers(0, 6), reqs=st.integers(1, 45),
       sfu_frac=fractions, write_frac=fractions, iters=st.integers(0, 12),
       pattern=patterns, warp_index=st.integers(0, 400),
       seed=st.integers(0, 1 << 20))
def test_compiled_trace_equals_live_stream(cinst, reqs, sfu_frac, write_frac,
                                           iters, pattern, warp_index, seed):
    kind, *args = pattern
    profile = KernelProfile(
        name="fz", full_name="fuzz", suite="fuzz", kind="C",
        cinst_per_minst=cinst, reqs_per_minst=reqs, sfu_frac=sfu_frac,
        write_frac=write_frac, iters_per_warp=iters,
        pattern_factory=lambda: PATTERN_CLASSES[kind](*args))
    trace = ktrace.KernelTrace(profile, seed,
                               ktrace.profile_fingerprint(profile))
    chunk_index, offset = divmod(warp_index, ktrace.CHUNK_WARPS)
    ops_per_warp, lines_per_warp = trace._compile_chunk(chunk_index)
    assert ((ops_per_warp[offset], lines_per_warp[offset])
            == ktrace.live_warp_arrays(profile, warp_index, seed))


# ----------------------------------------------------------------------
# Observed production machine vs observed oracle (docs/PERF.md,
# "Attribution debts"): random mixes x schemes x seeds x intervals.
OBS_SCHEMES = (
    {}, {"bmi": "rbmi"}, {"mil": "dmil"}, {"mil": "gdmil"},
    {"bmi": "qbmi"}, {"mil": "dmil", "bmi": "qbmi"},
    {"mil": "smil", "smil_limits": (2, 2)}, {"ucp": True,
                                             "ucp_interval": 400},
    {"smk_quotas": (3, 1)}, {"l1d_bypass": (True, False)},
)
PER_KERNEL_KEYS = ("smil_limits", "smk_quotas", "l1d_bypass")


@settings(FUZZ, max_examples=40)
@given(kernels=st.lists(st.sampled_from(sorted(PROFILES_BY_NAME)),
                        min_size=1, max_size=2, unique=True),
       tbs=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       scheme=st.sampled_from(OBS_SCHEMES),
       policy=st.sampled_from(("gto", "lrr")),
       seed=st.integers(0, 999),
       interval=st.sampled_from((None, 64, 100, 256)),
       split=st.one_of(st.none(), st.integers(1, 899)))
def test_observed_production_equals_observed_oracle(kernels, tbs, scheme,
                                                    policy, seed, interval,
                                                    split):
    scheme = dict(scheme)
    for key in PER_KERNEL_KEYS:
        if key in scheme:
            scheme[key] = scheme[key][:len(kernels)]
    if "qbmi" in scheme.values():
        scheme["qbmi_init_req_per_minst"] = (4,) * len(kernels)
    config = scaled_config(scheduler_policy=policy)
    cycles = 900

    def run(reference, pieces):
        launches = make_launches([get_profile(k) for k in kernels],
                                 list(tbs[:len(kernels)]), config, seed=seed)
        obs = (ObsOptions(phase=True, phase_interval=interval)
               if interval else True)
        gpu = GPU(config, launches, SchemeConfig(**scheme),
                  reference=reference, obs=obs)
        for piece in pieces:
            result = gpu.run(piece)
        return result

    oracle = run(True, (cycles,))
    observed = run(False, (split, cycles - split) if split else (cycles,))
    assert result_signature(observed) == result_signature(oracle)
    report = observed.obs
    assert_reports_equal(report, oracle.obs)
    assert sum(report.sched_stalls.values()) == report.issue_slots()
    assert sum(report.lsu_stalls.values()) == observed.lsu_stall_cycles


# ----------------------------------------------------------------------
# MIL-capped issue stalls (docs/PERF.md, "Issue-stall memo"): limiter
# kind x mixes x seeds, with sampling windows short enough for DMIL's
# limits to move within the run — the open-kernel mask changes through
# every door (in-flight decrements, local and global recomputes, LSU
# fullness), observed and unobserved, whole and split.
MIL_KINDS = ("smil", "dmil", "gdmil", "dmil+qbmi")


@settings(FUZZ, max_examples=40)
@given(kernels=st.lists(st.sampled_from(sorted(PROFILES_BY_NAME)),
                        min_size=1, max_size=2, unique=True),
       tbs=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       kind=st.sampled_from(MIL_KINDS),
       limits=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       window=st.sampled_from((16, 32, 64)),
       policy=st.sampled_from(("gto", "lrr")),
       seed=st.integers(0, 999),
       observed=st.booleans(),
       split=st.one_of(st.none(), st.integers(1, 899)))
def test_mil_capped_production_equals_oracle(kernels, tbs, kind, limits,
                                             window, policy, seed, observed,
                                             split):
    if kind == "smil":
        scheme = {"mil": "smil", "smil_limits": limits[:len(kernels)]}
    else:
        scheme = {"mil": kind.split("+")[0], "sample_window": window}
        if kind.endswith("qbmi"):
            scheme.update(bmi="qbmi",
                          qbmi_init_req_per_minst=(4,) * len(kernels))
    config = scaled_config(scheduler_policy=policy)
    cycles = 900

    def run(reference, pieces):
        launches = make_launches([get_profile(k) for k in kernels],
                                 list(tbs[:len(kernels)]), config, seed=seed)
        gpu = GPU(config, launches, SchemeConfig(**scheme),
                  reference=reference,
                  obs=ObsOptions(phase=True, phase_interval=100)
                  if observed else None)
        for piece in pieces:
            result = gpu.run(piece)
        return result

    oracle = run(True, (cycles,))
    production = run(False, (split, cycles - split) if split else (cycles,))
    assert result_signature(production) == result_signature(oracle)
    assert not any(oracle.sleep[cause] for cause in SLEEP_CAUSES)
    if observed:
        report = production.obs
        assert_reports_equal(report, oracle.obs)
        assert sum(report.sched_stalls.values()) == report.issue_slots()
        assert sum(report.lsu_stalls.values()) == production.lsu_stall_cycles


# ----------------------------------------------------------------------
# Issue-through (docs/PERF.md section 8): dc-shaped kernels whose
# footprint sits around the L1's 96 lines, so runs of hits and cold
# lines interleave — all-hit loads finish at issue, mixed ones queue —
# alone or beside a co-runner, under the schemes whose hooks the fused
# path must feed in the queue path's order.
HIT_SCHEMES = (
    {}, {"mil": "dmil", "sample_window": 32}, {"mil": "gdmil"},
    {"bmi": "qbmi"}, {"ucp": True, "ucp_interval": 300},
    {"smk_quotas": (3, 1)}, {"l1d_bypass": (False, True)},
)
hit_patterns = st.one_of(
    st.builds(lambda ws: ("reuse", ws), st.integers(2, 160)),
    st.builds(lambda ws, frac, slots: ("mix", ws, frac, 32, slots),
              st.integers(2, 64), st.floats(0.5, 0.98), recycle),
)


@settings(FUZZ, max_examples=60)
@given(reqs=st.integers(1, 5), mlp=st.integers(1, 3),
       write_frac=st.floats(0.0, 0.3), sfu_frac=st.floats(0.0, 0.3),
       pattern=hit_patterns,
       co_runner=st.one_of(st.none(),
                           st.sampled_from(sorted(PROFILES_BY_NAME))),
       tbs=st.tuples(st.integers(1, 8), st.integers(1, 2)),
       scheme=st.sampled_from(HIT_SCHEMES),
       policy=st.sampled_from(("gto", "lrr")),
       seed=st.integers(0, 999),
       split=st.one_of(st.none(), st.integers(1, 899)))
def test_hit_heavy_production_equals_oracle(reqs, mlp, write_frac, sfu_frac,
                                            pattern, co_runner, tbs, scheme,
                                            policy, seed, split):
    kind, *args = pattern
    profiles = [dataclasses.replace(
        get_profile("dc"), name="dc-fuzz", reqs_per_minst=reqs, mlp=mlp,
        write_frac=write_frac, sfu_frac=sfu_frac,
        pattern_factory=lambda: PATTERN_CLASSES[kind](*args))]
    if co_runner is not None:
        profiles.append(get_profile(co_runner))
    scheme = dict(scheme)
    for key in PER_KERNEL_KEYS:
        if key in scheme:
            scheme[key] = scheme[key][:len(profiles)]
    if "qbmi" in scheme.values():
        scheme["qbmi_init_req_per_minst"] = (4,) * len(profiles)
    config = scaled_config(scheduler_policy=policy)
    cycles = 900

    def run(reference, pieces):
        launches = make_launches(profiles, list(tbs[:len(profiles)]),
                                 config, seed=seed)
        gpu = GPU(config, launches, SchemeConfig(**scheme),
                  reference=reference)
        for piece in pieces:
            result = gpu.run(piece)
        return gpu, result

    ref_gpu, oracle = run(True, (cycles,))
    gpu, production = run(False,
                          (split, cycles - split) if split else (cycles,))
    assert result_signature(production) == result_signature(oracle)
    for l1, ref_l1 in zip(gpu.memory.l1s, ref_gpu.memory.l1s):
        assert vars(l1.stats) == vars(ref_l1.stats)
    assert (production.sleep["insts_through"]
            <= sum(production.l1d_hits.values()))
    assert oracle.sleep["insts_through"] == 0
