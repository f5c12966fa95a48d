"""CI smoke for the production machine: seconds long, count-based (no
wall-clock assertion), on the scaled-down config.

* production machine (fast loop, slot-pooled memory path) == oracle
  (``GPU(reference=True)``: per-cycle loop, object memory path), bit
  for bit, on two compute-leaning workloads and one memory-bound mix
  (``st+sv-even``);
* on a second memory-bound leg the two agree again, and the production
  run spends at least ``STALL_SLEEP_FLOOR`` of its SM-cycles in
  memory-stall sleep — so a refactor that breaks the L1 ``on_release``
  wake (divergence) or the engagement condition (share drops to 0)
  fails here, not in the next benchmark run;
* observed, by count: with the phase sampler attached, the production
  machine's ``ObsReport`` equals the oracle's field for field on
  ``st+sv`` and on ``bp+cd`` under ``ws-dmil``'s scheme, and a non-zero
  number of its issue slots were attributed in batches — so observing
  neither falls back to per-cycle work nor drifts from the
  specification;
* cold start, by count: one compiled trace chunk of every Table-2
  profile equals the live ``InstructionStream`` (the compiler's oracle)
  on sampled warps, and ``trace_cache.ops_compiled`` moves by exactly
  ``CHUNK_WARPS * iters * (cinst + 1)`` — so an edit to the stream or a
  pattern that forgets the compiler's draw order fails here too.
"""

import sys

from repro.config import scaled_config
from repro.core.arbiter import SchemeConfig
from repro.harness.perfbench import result_signature
from repro.obs import ObsOptions, process_registry
from repro.sim.engine import GPU, make_launches
from repro.workloads import trace as ktrace
from repro.workloads.profiles import ALL_PROFILES, get_profile


#: (name, kernels, TBs per SM — None = each kernel's maximum).
IDENTITY_WORKLOADS = (
    ("bp-iso", ("bp",), None),
    ("cd-iso", ("cd",), None),
    ("st+sv-even", ("st", "sv"), (8, 8)),
)

#: the st+sv leg sleeps through ~0.20 of its SM-cycles (a simulated
#: count, exact per seed; the scaled machine's two SMs see an L1
#: release almost every cycle, hence far below the 16-SM share).
STALL_SLEEP_FLOOR = 0.10


#: (name, kernels, TBs per SM, scheme) observed on both machines.
OBSERVED_WORKLOADS = (
    ("st+sv", ("st", "sv"), (4, 4), SchemeConfig()),
    ("bp+cd", ("bp", "cd"), (4, 4), SchemeConfig(mil="dmil")),
)


def run(config, kernels, tb_limits, seed, cycles=2000, scheme=None,
        **gpu_kwargs):
    profiles = [get_profile(k) for k in kernels]
    if tb_limits is None:
        tb_limits = [p.max_tbs_per_sm(config) for p in profiles]
    launches = make_launches(profiles, list(tb_limits), config, seed=seed)
    return GPU(config, launches, scheme or SchemeConfig(),
               **gpu_kwargs).run(cycles)


def loops_identical(config, kernels, tb_limits):
    """Whether the production machine and the oracle agree on every
    stat."""
    return (result_signature(run(config, kernels, tb_limits, 0,
                                 reference=True))
            == result_signature(run(config, kernels, tb_limits, 0)))


def memory_bound_check(config):
    """The memory-bound mix on the oracle and on the production
    machine.  Returns ``(identical, share)``: the two signatures match,
    and the production run's memory-stall sleep share of SM-cycles."""
    oracle = run(config, ("st", "sv"), (4, 4), 3, reference=True)
    production = run(config, ("st", "sv"), (4, 4), 3)
    identical = result_signature(production) == result_signature(oracle)
    return identical, production.sleep_ratio("mem_stall")


def observed_check(config, kernels, tb_limits, scheme):
    """One workload observed (phase sampler on) on the oracle and on
    the production machine.  Returns ``(identical, batched)``: the two
    reports and signatures match, and how many issue slots the
    production run attributed in batches."""
    def observe(**gpu_kwargs):
        return run(config, kernels, tb_limits, 3, scheme=scheme,
                   obs=ObsOptions(phase=True, phase_interval=256),
                   **gpu_kwargs)

    oracle = observe(reference=True)
    production = observe()
    identical = (
        result_signature(production) == result_signature(oracle)
        and all(getattr(production.obs, field) == getattr(oracle.obs, field)
                for field in ("sched_stalls", "lsu_stalls", "counters",
                              "phases")))
    return identical, production.sleep["obs_batched_slots"]


def cold_start_check():
    """Compile one chunk of every profile.  Returns the failures (empty
    when every sampled warp equals the live stream and the compiled-op
    count is the profile's arithmetic)."""
    seed = 3
    failures = []

    def ops_compiled():
        return process_registry().snapshot("trace_cache")[
            "trace_cache.ops_compiled"]

    ktrace.clear_memory_cache()
    for profile in ALL_PROFILES:
        ops_before = ops_compiled()
        trace = ktrace.get_trace(profile, seed)
        for warp_index in (0, 1, ktrace.CHUNK_WARPS - 1):
            if trace.warp_arrays(warp_index) != ktrace.live_warp_arrays(
                    profile, warp_index, seed):
                failures.append(f"{profile.name}: warp {warp_index} differs "
                                f"from the live stream")
        compiled = ops_compiled() - ops_before
        expected = (ktrace.CHUNK_WARPS * profile.iters_per_warp
                    * (profile.cinst_per_minst + 1))
        if compiled != expected:
            failures.append(f"{profile.name}: {compiled} ops compiled, "
                            f"expected {expected}")
    return failures


def main() -> int:
    config = scaled_config()
    for name, kernels, tb_limits in IDENTITY_WORKLOADS:
        if not loops_identical(config, kernels, tb_limits):
            print(f"FAIL {name}: fast loop diverged from reference")
            return 1
        print(f"ok {name}: fast == reference")
    identical, stall_sleep = memory_bound_check(config)
    if not identical:
        print("FAIL st+sv: production machine diverged from the oracle")
        return 1
    print("ok st+sv: production == oracle")
    if stall_sleep < STALL_SLEEP_FLOOR:
        print(f"FAIL st+sv: memory-stall sleep covers {stall_sleep:.1%} of "
              f"SM-cycles, floor {STALL_SLEEP_FLOOR:.0%}")
        return 1
    print(f"ok st+sv: memory-stall sleep covers {stall_sleep:.1%} of "
          f"SM-cycles")
    for name, kernels, tb_limits, scheme in OBSERVED_WORKLOADS:
        identical, batched = observed_check(config, kernels, tb_limits,
                                            scheme)
        if not identical or not batched:
            print(f"FAIL {name}: observed production report "
                  f"{'==' if identical else '!='} observed oracle report, "
                  f"{batched} slots batched")
            return 1
        print(f"ok {name}: observed production == observed oracle, "
              f"{batched} slots batched")
    failures = cold_start_check()
    for failure in failures:
        print(f"FAIL cold start {failure}")
    if failures:
        return 1
    print(f"ok cold start: {len(ALL_PROFILES)} profiles compile to the live "
          f"stream's arrays, op counts exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
