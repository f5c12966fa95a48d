"""The production machine must be bit-identical to the oracle.

``GPU(reference=True)`` is the oracle: ``StreamingMultiprocessor``s —
per-cycle callback closures, no scheduler sleep hints — over the object
memory path, every memory phase ticked every cycle over ``MemRequest``
objects, a plain L1D replay per stalled cycle.  The default ``GPU`` is
the production machine: ``SleepingSM``s (sleep, memo, autopilot,
issue-through, memoised stall replays) over the same memory path.
These tests drive both over the scheme space (GTO/LRR,
BMI, MIL variants, SMK gating, UCP, L1D bypass), at two seeds and over
randomized mixes, and require every collected statistic to match
exactly — and, with observability attached to both, every field of the
observed report (stall taxonomy, counters, phase series, adaptation
events): ``obs`` is orthogonal to the machine switch, and the
production machine's batched attribution is held to the oracle's
per-cycle one.
"""

import dataclasses
import inspect
import random

import pytest

from repro.config import MAXWELL_CONFIG, scaled_config
from repro.core.arbiter import SchemeConfig
from repro.harness.perfbench import result_signature
from repro.mem.subsystem import MemorySubsystem
from repro.obs import ObsOptions, process_registry
from repro.obs.stalls import ISSUED, LSU_STALL_REASONS, SCHED_STALL_REASONS
from repro.obs.timeline import ADAPT_MECHANISMS, adapt_events_from_record
from repro.sim.engine import GPU, make_launches
from repro.sim.sm import (SLEEP_MIL, SLEEP_STALL, SleepingSM,
                          StreamingMultiprocessor)
from repro.sim.stats import SELF_OBS_REGISTRY, SLEEP_CAUSES
from repro.workloads.profiles import PROFILES_BY_NAME, get_profile

CONFIG = scaled_config()
CYCLES = 1500

BASE_CASES = [
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

# Memory-stall sleep (docs/PERF.md section 3) engages wherever the LSU
# head replays a memoised reservation failure: sweep the schemes whose
# hooks it batches or leaves alone, on an M+M and a C+M mix.
STALL_SCHEMES = [
    ("baseline", {}),
    ("smil", {"mil": "smil", "smil_limits": (2, 2)}),
    ("dmil-local", {"mil": "dmil"}),
    ("dmil-global", {"mil": "gdmil"}),
    ("qbmi", {"bmi": "qbmi", "qbmi_init_req_per_minst": (4, 4)}),
    ("dmil+qbmi", {"mil": "dmil", "bmi": "qbmi",
                   "qbmi_init_req_per_minst": (4, 4)}),
]

# Issue-through (docs/PERF.md section 8) engages where loads hit: the
# compute-type kernels alone, and dc beside a memory-intensive
# co-runner under the schemes whose hooks the fused path has to feed in
# the queue path's order.
HIT_CASES = [
    ("hit-dc", ("dc",), (4,), {}, {}),
    ("hit-bs", ("bs",), (4,), {}, {}),  # streams: never hits at all
    ("hit-st", ("st",), (4,), {}, {}),
    ("hit-dc-dmil+qbmi", ("dc",), (4,),
     {"mil": "dmil", "sample_window": 32, "bmi": "qbmi",
      "qbmi_init_req_per_minst": (4,)}, {}),
    ("hit-dc+ks-even", ("dc", "ks"), (8, 1), {}, {}),
    ("hit-dc+ks-dmil", ("dc", "ks"), (8, 1),
     {"mil": "dmil", "sample_window": 32}, {}),
    ("hit-dc+ks-qbmi", ("dc", "ks"), (8, 1),
     {"bmi": "qbmi", "qbmi_init_req_per_minst": (4, 4)}, {}),
    ("hit-dc+ks-ucp", ("dc", "ks"), (8, 1),
     {"ucp": True, "ucp_interval": 500}, {}),
    ("hit-dc+ks-lrr", ("dc", "ks"), (8, 1), {},
     {"scheduler_policy": "lrr"}),
]
CASES = BASE_CASES + HIT_CASES + [
    (f"stall-{name}-{mix}-{policy}", kernels, (4, 4), scheme_kwargs,
     {"scheduler_policy": policy})
    for name, scheme_kwargs in STALL_SCHEMES
    for mix, kernels in (("M+M", ("ks", "ax")), ("C+M", ("bp", "cd")))
    for policy in ("gto", "lrr")
]
#: (seed, case) cells of the production-vs-oracle sweep: every case at
#: seed 3, and the base cells plus one memory-bound mix outside CASES
#: again at a second seed.
SEEDED_CASES = [(3, case) for case in CASES] + [
    (5, case)
    for case in BASE_CASES + [("cd+sv", ("cd", "sv"), (4, 4), {}, {})]]

# MIL-capped sleep (docs/PERF.md section 3, "Issue-stall memo"): an SM
# whose ready warps all hold memory instructions of capped kernels
# sleeps until an in-flight count or a limit moves.  The default
# 1024-request window never closes in CYCLES on the scaled machine, so
# the DMIL cells sample every 32 requests: limits, and with them the
# open-kernel mask, move throughout the run.
MIL_SCHEMES = [
    ("smil", {"mil": "smil", "smil_limits": (2, 2)}),
    ("dmil-local", {"mil": "dmil", "sample_window": 32}),
    ("dmil-global", {"mil": "gdmil", "sample_window": 32}),
    ("dmil+qbmi", {"mil": "dmil", "sample_window": 32, "bmi": "qbmi",
                   "qbmi_init_req_per_minst": (4, 4)}),
]
MIL_CASES = [
    (f"mil-{name}-{mix}-{policy}", kernels, (4, 4), scheme_kwargs,
     {"scheduler_policy": policy})
    for name, scheme_kwargs in MIL_SCHEMES
    for mix, kernels in (("M+M", ("ks", "ax")), ("C+M", ("bp", "cd")))
    for policy in ("gto", "lrr")
]


def build_gpu(kernels, tbs, scheme_kwargs=None, config=CONFIG, seed=7,
              **gpu_kwargs):
    # Launches hold mutable stream state: build fresh ones per GPU.
    launches = make_launches([get_profile(k) for k in kernels], list(tbs),
                             config, seed=seed)
    return GPU(config, launches, SchemeConfig(**(scheme_kwargs or {})),
               **gpu_kwargs)


def run_once(kernels, tbs, scheme_kwargs, cfg_kwargs, reference, obs=None,
             seed=3):
    config = scaled_config(**cfg_kwargs) if cfg_kwargs else CONFIG
    gpu = build_gpu(kernels, tbs, scheme_kwargs, config, seed=seed,
                    reference=reference, obs=obs)
    assert gpu.reference is reference
    return gpu.run(CYCLES)


def slept(result):
    return sum(result.sleep[cause] for cause in SLEEP_CAUSES)


def assert_reports_equal(report, oracle):
    """Field for field — what "observing the production machine is
    exact" means."""
    assert report.sched_stalls == oracle.sched_stalls
    assert report.lsu_stalls == oracle.lsu_stalls
    assert report.counters == oracle.counters
    assert report.phases == oracle.phases
    assert report.trace_events == oracle.trace_events
    assert report.cycles == oracle.cycles


def assert_taxonomy_closed(report):
    """What the simulator *attributed*, not what a linter could read
    off literals: every reason and mechanism that reached the report —
    through whatever constant, import or computed value — is a
    declared member, so an off-taxonomy ``bump_sched`` / ``bump_lsu``
    / ``log_adapt`` call site fails here on any run that reaches it."""
    assert {key[-1] for key in report.sched_stalls} \
        <= {ISSUED, *SCHED_STALL_REASONS}
    assert {key[-1] for key in report.lsu_stalls} <= set(LSU_STALL_REASONS)
    assert {event.mechanism for record in report.phases
            for event in adapt_events_from_record(record)} \
        <= set(ADAPT_MECHANISMS)


@pytest.mark.parametrize(
    "seed,case", SEEDED_CASES,
    ids=[case[0] if seed == 3 else f"{case[0]}-seed{seed}"
         for seed, case in SEEDED_CASES])
def test_fast_loop_matches_reference(seed, case):
    name, kernels, tbs, scheme_kwargs, cfg_kwargs = case
    ref = run_once(kernels, tbs, scheme_kwargs, cfg_kwargs, reference=True,
                   seed=seed)
    fast = run_once(kernels, tbs, scheme_kwargs, cfg_kwargs, reference=False,
                    seed=seed)
    assert result_signature(fast) == result_signature(ref)
    # IPC is the paper's headline metric — compare it explicitly too.
    for slot in range(len(kernels)):
        assert fast.ipc(slot) == ref.ipc(slot)
    assert ref.sleep_ratio() == 0
    if name.startswith("stall-") and "-M+M-" in name:
        # Memory-stall sleep engages on every M+M stall cell, so this
        # identity is also stall-sleeping-vs-ticking identity.
        assert fast.sleep["mem_stall"] > 0


@pytest.mark.parametrize(
    "kernels,tbs,scheme_kwargs,cfg_kwargs",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES])
def test_observed_production_report_equals_observed_oracle(
        kernels, tbs, scheme_kwargs, cfg_kwargs):
    """The proof obligation of docs/PERF.md "Attribution debts": with
    the phase sampler on, the production machine's report equals the
    oracle's field for field, the taxonomies still sum to what they
    partition, the simulation is untouched — and the run still slept
    wherever the unobserved one does, so the batching cannot silently
    stop engaging."""
    def options():
        return ObsOptions(phase=True, phase_interval=256)

    oracle = run_once(kernels, tbs, scheme_kwargs, cfg_kwargs,
                      reference=True, obs=options())
    observed = run_once(kernels, tbs, scheme_kwargs, cfg_kwargs,
                        reference=False, obs=options())
    plain = run_once(kernels, tbs, scheme_kwargs, cfg_kwargs,
                     reference=False)
    assert (result_signature(observed) == result_signature(plain)
            == result_signature(oracle))
    report = observed.obs
    assert_taxonomy_closed(report)
    assert_taxonomy_closed(oracle.obs)
    assert_reports_equal(report, oracle.obs)
    assert sum(report.sched_stalls.values()) == report.issue_slots() == (
        CYCLES * CONFIG.num_sms * CONFIG.schedulers_per_sm)
    assert sum(report.lsu_stalls.values()) == observed.lsu_stall_cycles
    assert observed.sleep["obs_batched_slots"] > 0
    assert oracle.sleep["obs_batched_slots"] == 0
    if slept(plain):
        assert slept(observed) > 0


@pytest.mark.parametrize(
    "kernels,tbs,scheme_kwargs,cfg_kwargs",
    [case[1:] for case in HIT_CASES],
    ids=[case[0] for case in HIT_CASES])
def test_hits_finish_where_they_are_found(kernels, tbs, scheme_kwargs,
                                          cfg_kwargs):
    """The sweeps above hold these cells to the oracle; here, that
    issue-through engages on them and cannot silently stop: all-hit
    loads finish at issue — and none does on an observed run or on the
    oracle."""
    plain = run_once(kernels, tbs, scheme_kwargs, cfg_kwargs,
                     reference=False)
    hits = sum(plain.l1d_hits.values())
    assert (hits > 0) == (plain.sleep["insts_through"] > 0)
    assert plain.sleep["insts_through"] <= hits
    for kwargs in ({"reference": False, "obs": True}, {"reference": True}):
        other = run_once(kernels, tbs, scheme_kwargs, cfg_kwargs, **kwargs)
        assert other.sleep["insts_through"] == 0
        assert result_signature(other) == result_signature(plain)


@pytest.mark.parametrize(
    "kernels,tbs,scheme_kwargs,cfg_kwargs",
    [case[1:] for case in MIL_CASES],
    ids=[case[0] for case in MIL_CASES])
def test_mil_capped_sleep_is_exact_and_engages(kernels, tbs, scheme_kwargs,
                                               cfg_kwargs):
    """Every limiter kind, with limits that bite: production == oracle
    (signature; observed report field for field; taxonomy sums), the
    SMs do sleep through MIL-capped stretches — observed exactly as
    unobserved — and the oracle never does."""
    def options():
        return ObsOptions(phase=True, phase_interval=256)

    oracle = run_once(kernels, tbs, scheme_kwargs, cfg_kwargs,
                      reference=True, obs=options())
    observed = run_once(kernels, tbs, scheme_kwargs, cfg_kwargs,
                        reference=False, obs=options())
    plain = run_once(kernels, tbs, scheme_kwargs, cfg_kwargs,
                     reference=False)
    assert (result_signature(observed) == result_signature(plain)
            == result_signature(oracle))
    report = observed.obs
    assert_taxonomy_closed(report)
    assert_taxonomy_closed(oracle.obs)
    assert_reports_equal(report, oracle.obs)
    assert sum(report.sched_stalls.values()) == report.issue_slots() == (
        CYCLES * CONFIG.num_sms * CONFIG.schedulers_per_sm)
    assert sum(report.lsu_stalls.values()) == observed.lsu_stall_cycles
    assert report.sched_stall_shares()["mil_capped"] > 0
    for cause in SLEEP_CAUSES:
        assert observed.sleep[cause] == plain.sleep[cause]
        assert oracle.sleep[cause] == 0
    assert plain.sleep["mil_capped"] > 0


@pytest.mark.parametrize("policy", ("gto", "lrr"))
def test_observed_split_run_equals_one_run(policy):
    """run(a); run(b) with ``a`` landing inside a memory-stall sleep —
    every scheduler mid-stretch, the LSU owing replays — reports what
    one run(a+b) does, and what the oracle does: settling is additive."""
    assert_split_run_equals_one_run(("ks", "ax"), {"mil": "dmil"}, policy,
                                    SLEEP_STALL)


@pytest.mark.parametrize("policy", ("gto", "lrr"))
@pytest.mark.parametrize("scheme_kwargs",
                         [scheme for _, scheme in MIL_SCHEMES],
                         ids=[name for name, _ in MIL_SCHEMES])
def test_observed_split_run_inside_mil_capped_sleep(scheme_kwargs, policy):
    """The same with the boundary inside a MIL-capped sleep: schedulers
    owe ``mil_capped`` stretches, the LSU owes nothing."""
    assert_split_run_equals_one_run(("bp", "cd"), scheme_kwargs, policy,
                                    SLEEP_MIL)


def assert_split_run_equals_one_run(kernels, scheme_kwargs, policy, cause):
    def gpu(**kwargs):
        return build_gpu(kernels, (4, 4), scheme_kwargs,
                         scaled_config(scheduler_policy=policy),
                         obs=ObsOptions(phase=True, phase_interval=100),
                         **kwargs)

    split = gpu()
    head = run_into_sleep(split, cause)
    assert head.obs.issue_slots() == sum(head.obs.sched_stalls.values())
    tail = split.run(CYCLES - head.cycles)
    whole = gpu().run(CYCLES)
    oracle = gpu(reference=True).run(CYCLES)
    assert result_signature(tail) == result_signature(oracle)
    assert_reports_equal(tail.obs, whole.obs)
    assert_reports_equal(tail.obs, oracle.obs)


def test_observed_trace_equals_oracle_trace():
    """``ObsOptions(trace=True)`` keeps per-issue ticking (no issue
    autopilot — the sampled issue slices want every issue) but sleeps
    like any run; the event list is the oracle's, in order."""
    def options():
        return ObsOptions(trace=True, trace_issue_sample=3,
                          trace_mem_sample=2)

    oracle = run_once(("bp", "cd"), (4, 4), {"mil": "dmil"}, {},
                      reference=True, obs=options())
    traced = run_once(("bp", "cd"), (4, 4), {"mil": "dmil"}, {},
                      reference=False, obs=options())
    assert traced.obs.trace_events
    assert_reports_equal(traced.obs, oracle.obs)
    assert slept(traced) > 0


def test_lrr_rotation_survives_a_retirement_during_sleep():
    """A load return that retires a scheduler's last warp while its SM
    sleeps: the scheduler owes one LRR rotation advance per slept cycle
    *before* the retirement and none after, so the sleep debt has to be
    paid at the retirement, not at wake-up (found by the observed fuzz
    leg; the production machine used to lose the advances and pick a
    different warp once the scheduler refilled)."""
    config = scaled_config(scheduler_policy="lrr")
    results = [build_gpu(("s2", "3m"), (1, 2), {"mil": "dmil"}, config,
                         seed=520, reference=reference).run(2500)
               for reference in (True, False)]
    assert result_signature(results[0]) == result_signature(results[1])
    assert slept(results[1]) > 0


def test_reference_env_var_controls_default(monkeypatch):
    monkeypatch.setenv("REPRO_REFERENCE_LOOP", "1")
    assert build_gpu(("3m",), (1,)).reference is True
    for fast in ("0", ""):
        monkeypatch.setenv("REPRO_REFERENCE_LOOP", fast)
        assert build_gpu(("3m",), (1,)).reference is False
    monkeypatch.delenv("REPRO_REFERENCE_LOOP")
    assert build_gpu(("3m",), (1,)).reference is False


@pytest.mark.parametrize("value", ("true", "yes", "2"))
def test_malformed_reference_env_var_is_rejected(monkeypatch, value):
    monkeypatch.setenv("REPRO_REFERENCE_LOOP", value)
    with pytest.raises(ValueError, match="REPRO_REFERENCE_LOOP"):
        build_gpu(("3m",), (1,))
    # An explicit argument never consults the variable.
    assert build_gpu(("3m",), (1,), reference=True).reference is True


def test_one_switch_selects_one_of_two_machines(monkeypatch):
    """``reference`` is the only substrate switch: it picks the SM class
    (both machines build the one ``MemorySubsystem``), ``obs`` is
    orthogonal to it (either
    machine can be observed; the environment variable still decides the
    default), and the retired ``pooled`` argument is gone rather than
    ignored.  tests/test_pooled_identity.py runs the (reference, obs)
    matrix."""
    for obs in (None, True):
        for reference in (False, True):
            gpu = build_gpu(("3m",), (1,), reference=reference, obs=obs)
            assert gpu.reference is reference
            assert type(gpu.memory) is MemorySubsystem
            assert {type(sm) for sm in gpu.sms} == {
                StreamingMultiprocessor if reference else SleepingSM}
    assert build_gpu(("3m",), (1,), obs=True).reference is False
    monkeypatch.setenv("REPRO_REFERENCE_LOOP", "1")
    assert build_gpu(("3m",), (1,), obs=True).reference is True
    with pytest.raises(TypeError):
        build_gpu(("3m",), (1,), **{"pooled": True})


def test_oracle_sm_stays_the_plain_specification():
    """The oracle SM is what an issue or stall model change edits first
    (the sweeps then force the production SM to match), so it stays
    readable: its tick fits on a screen and its class body names none
    of the production machine's skip-and-settle state."""
    source = inspect.getsource(StreamingMultiprocessor)
    for name in ("_auto_", "_mem_blocked", "_mem_wake", "_next_wake",
                 "_obs_owed", "_stall_owed", "_sleep_cause", "_through_ok"):
        assert name not in source, name
    assert len(inspect.getsource(
        StreamingMultiprocessor.tick).splitlines()) <= 60


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
        oracle, production = (
            build_gpu(kernels, tbs, scheme_kwargs, seed=seed,
                      reference=reference).run(900)
            for reference in (True, False))
        assert result_signature(production) == result_signature(oracle), (
            trial, kernels, tbs, scheme_kwargs, seed)


#: the sweep cells the issue autopilot can arm in (GTO).
GTO_CASES = [case for case in CASES
             if case[4].get("scheduler_policy", "gto") == "gto"]


@pytest.mark.parametrize(
    "kernels,tbs,scheme_kwargs,cfg_kwargs",
    [case[1:] for case in GTO_CASES],
    ids=[case[0] for case in GTO_CASES])
def test_no_sm_sleeps_with_a_burst_armed(kernels, tbs, scheme_kwargs,
                                         cfg_kwargs):
    """The premise the whole-SM sleep rests on since the burst sleep was
    retired: no production SM ever holds a horizon past the next cycle
    while one of its schedulers has an autopilot burst armed — so a
    slept cycle owes no ALU issue, and no load return has to cut a
    sleep short for a bursting warp."""
    config = scaled_config(**cfg_kwargs) if cfg_kwargs else CONFIG
    gpu = build_gpu(kernels, tbs, scheme_kwargs, config, seed=3)
    armed = []

    def watch(sm, tick):
        def watched(cycle):
            tick(cycle)
            bursting = any(sched._auto_left for sched in sm.schedulers)
            assert not (bursting and sm._sleep_until > cycle + 1), cycle
            armed.append(bursting)
        return watched

    for sm in gpu.sms:
        sm.tick = watch(sm, sm.tick)
    result = gpu.run(CYCLES)
    # Not vacuous: bursts arm wherever the autopilot may, and the SMs
    # sleep wherever they may (not under UCP or an SMK gate).
    sm = gpu.sms[0]
    assert any(armed) == sm._auto_ok
    assert (slept(result) > 0) == (sm._sleep_eligible and sm._gate is None)


def test_mid_run_tb_limit_change_matches_reference():
    """Dynamic reconfiguration (Warped-Slicer §3) crosses the sleep
    machinery: raising a cap must wake a slept SM identically."""
    results = []
    for reference in (True, False):
        launches = make_launches([get_profile("3m"), get_profile("bp")],
                                 [1, 1], CONFIG, seed=7)
        gpu = GPU(CONFIG, launches, SchemeConfig(), reference=reference)
        gpu.run(400)
        for sm_id in range(CONFIG.num_sms):
            gpu.set_tb_limit(sm_id, 0, 3)
        results.append(result_signature(gpu.run(800)))
    assert results[0] == results[1]


# ----------------------------------------------------------------------
# memory-stall sleep: an SM whose LSU head replays a memoised
# reservation failure sleeps until l1.version moves (the scheme sweep
# rides in CASES above).
def run_into_sleep(gpu, cause=SLEEP_STALL, cycles=600):
    """Run ``cycles``, then on one cycle at a time until the run
    boundary falls inside some SM's sleep of ``cause``; returns the
    result at that boundary."""
    result = gpu.run(cycles)
    for _ in range(200):
        if any(sm._sleep_cause == cause
               and sm._sleep_until > gpu.cycles_run for sm in gpu.sms):
            return result
        result = gpu.run(1)
    raise AssertionError(f"no {SLEEP_CAUSES[cause]} sleep to stop in")


def test_stall_sleep_engages_at_paper_scale():
    """The Table-1 machine on an M+M mix: identical to the reference
    loop, and the SMs really are mostly asleep (the mechanism cannot
    silently disengage)."""
    ref = build_gpu(("ks", "ax"), (8, 8), config=MAXWELL_CONFIG,
                    reference=True).run(CYCLES)
    before = process_registry().snapshot()
    fast = build_gpu(("ks", "ax"), (8, 8), config=MAXWELL_CONFIG).run(CYCLES)
    after = process_registry().snapshot()
    assert result_signature(fast) == result_signature(ref)
    assert fast.sleep_ratio("mem_stall") > 0.5
    assert fast.sleep["sm_cycles"] == CYCLES * MAXWELL_CONFIG.num_sms
    # Every slept stall cycle was settled as a batched replay.
    assert fast.sleep["stall_replays_batched"] >= fast.sleep["mem_stall"]
    # The same numbers accumulate process-wide (sim.sleep.* and the
    # rest of SELF_OBS_REGISTRY).
    assert sorted(fast.sleep) == sorted(SELF_OBS_REGISTRY)
    for key, name in SELF_OBS_REGISTRY.items():
        assert after[name] - before.get(name, 0) == fast.sleep[key]
    assert fast.sleep["obs_batched_slots"] == 0  # nothing observed it


@pytest.mark.parametrize("gpu_kwargs", (
    {}, {"obs": True}, {"reference": True}, {"reference": True, "obs": True}),
    ids=("production", "production-obs", "oracle", "oracle-obs"))
def test_sleep_report_keys_are_the_registry_keys(gpu_kwargs):
    """``RunResult.sleep`` and ``SELF_OBS_REGISTRY`` name the same
    counters, on both machines, observed or not."""
    result = build_gpu(("bp", "cd"), (2, 2), **gpu_kwargs).run(200)
    assert set(result.sleep) == set(SELF_OBS_REGISTRY)


@pytest.mark.parametrize("obs", (None, ObsOptions(phase_interval=64)),
                         ids=("plain", "sampled"))
def test_oracle_sms_never_raise_their_sleep_horizon(obs):
    """Both machines run through one cycle loop that skips an SM while
    ``cycle < sm._sleep_until``; on the oracle that must be the plain
    tick-everything scan, so no oracle SM may ever hold a horizon —
    across LSU stalls, MIL caps, global-DMIL window hooks and a mid-run
    TB-limit change."""
    gpu = build_gpu(("ks", "bp"), (2, 2), {"mil": "gdmil", "sample_window": 32},
                    reference=True, obs=obs)
    seen = []
    ticks = [sm.tick for sm in gpu.sms]

    def watch(sm, tick):
        def watched(cycle):
            seen.append(sm._sleep_until)
            tick(cycle)
        return watched

    for sm, tick in zip(gpu.sms, ticks):
        sm.tick = watch(sm, tick)
    gpu.run(CYCLES // 2)
    for sm_id in range(CONFIG.num_sms):
        gpu.set_tb_limit(sm_id, 1, 4)
    result = gpu.run(CYCLES // 2)
    # Every SM ticked every cycle, and none ever held a horizon.
    assert len(seen) == CYCLES * CONFIG.num_sms
    assert not any(seen)
    assert all(sm._sleep_until == 0 for sm in gpu.sms)
    assert result.lsu_stall_cycles > 0


def test_stall_sleep_stays_out_of_bypass_and_oracle_runs():
    """No stall, no stall sleep (dc never fails a reservation here);
    the reference loop never sleeps, observed or not — and an observed
    production run sleeps exactly like an unobserved one."""
    dc = build_gpu(("dc",), (4,)).run(CYCLES)
    assert dc.lsu_stall_cycles == 0
    assert dc.sleep["mem_stall"] == 0
    for oracle_kwargs in ({"reference": True, "obs": True},
                          {"reference": True}):
        oracle = build_gpu(("ks", "ax"), (4, 4), **oracle_kwargs).run(CYCLES)
        assert oracle.lsu_stall_cycles > 0
        assert oracle.sleep_ratio() == 0.0
        assert oracle.sleep["stall_replays_batched"] == 0
    plain = build_gpu(("ks", "ax"), (4, 4)).run(CYCLES)
    observed = build_gpu(("ks", "ax"), (4, 4), obs=True).run(CYCLES)
    assert observed.sleep["mem_stall"] == plain.sleep["mem_stall"] > 0
    assert (observed.sleep["stall_replays_batched"]
            == plain.sleep["stall_replays_batched"] > 0)


@pytest.mark.parametrize("scheme_kwargs", ({}, {"mil": "dmil"}),
                         ids=("baseline", "dmil"))
def test_run_boundary_mid_stall_sleep(scheme_kwargs):
    """A run ending inside a memory-stall sleep settles the slept
    cycles (sleep debt first, then the LSU's stall debt), and the next
    run pays only the remainder: run(a); run(b) == run(a+b) ==
    reference."""
    split = build_gpu(("ks", "ax"), (4, 4), scheme_kwargs)
    head = run_into_sleep(split)
    ref = build_gpu(("ks", "ax"), (4, 4), scheme_kwargs, reference=True)
    assert result_signature(head) == result_signature(ref.run(head.cycles))
    rest = CYCLES - head.cycles
    whole = build_gpu(("ks", "ax"), (4, 4), scheme_kwargs).run(CYCLES)
    assert (result_signature(split.run(rest)) == result_signature(whole)
            == result_signature(ref.run(rest)))


def test_tb_limit_change_mid_stall_sleep():
    fast = build_gpu(("ks", "ax"), (2, 2))
    ref = build_gpu(("ks", "ax"), (2, 2), reference=True)
    ref.run(run_into_sleep(fast).cycles)
    for gpu in (fast, ref):
        for sm_id in range(CONFIG.num_sms):
            gpu.set_tb_limit(sm_id, 1, 4)
    assert result_signature(fast.run(880)) == result_signature(ref.run(880))


def test_fill_release_ends_a_stall_sleep_on_its_own_cycle():
    """One SM, two MSHRs: the LSU stalls on RSFAIL_MSHR and the SM
    sleeps on it.  The L1 fill's ``on_release`` ends that sleep, the SM
    ticks on the fill's own cycle (the memory tick runs first), and the
    cycles it slept through are paid as stalls."""
    base = scaled_config(num_sms=1)
    config = dataclasses.replace(
        base, l1d=dataclasses.replace(base.l1d, mshrs=2))
    ref = build_gpu(("sv",), (4,), config=config, reference=True).run(CYCLES)
    gpu = build_gpu(("sv",), (4,), config=config)
    memory, sm = gpu.memory, gpu.sms[0]
    ticked, ended = [], []
    sm_tick, deliver_fill = sm.tick, memory._deliver_fill

    def tick(cycle):
        ticked.append(cycle)
        sm_tick(cycle)

    def deliver(slot, cycle):
        napping = (sm._sleep_cause == SLEEP_STALL
                   and sm._sleep_until > cycle + 1
                   and sm._last_tick < cycle - 1)
        deliver_fill(slot, cycle)
        if napping and sm._sleep_until == 0:
            ended.append(cycle)

    sm.tick = tick
    memory._deliver_fill = deliver
    fast = gpu.run(CYCLES)
    # Fills that ended a stall sleep more than one cycle old: the SM
    # was skipped up to the fill's cycle and ticked on it.
    assert ended and set(ended) <= set(ticked)
    assert all(cycle - 1 not in ticked for cycle in ended)
    assert fast.sleep["mem_stall"] > 0
    assert fast.sleep["stall_wakes"] >= len(ended)
    # The slept cycles were paid as stalls: the totals are the oracle's.
    assert fast.lsu_stall_cycles == ref.lsu_stall_cycles > 0
    assert result_signature(fast) == result_signature(ref)
