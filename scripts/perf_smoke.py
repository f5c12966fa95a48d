"""CI perf smoke: a seconds-long slice of the cycle-loop benchmark.

Runs three workloads on the scaled-down config — two compute-leaning
plus one memory-bound (``st+sv-even``, exercising the slot-pooled
memory path end to end) — and asserts the properties that must hold
on any machine, however noisy:

* the fast loop is bit-identical to the reference loop (this is the
  real gate — ``bench_cycle_loop`` raises on divergence; the fast leg
  runs the pooled memory path, so this also pins pooled == reference);
* the fast loop is at least as fast as the reference loop (a sanity
  floor far below the committed >=1.5x threshold, which only the
  manually-dispatched full perf job enforces);
* on the memory-bound leg, the pooled and object substrates of the
  fast loop agree bit for bit (``GPU(pooled=...)`` both ways), both
  equal the reference loop, and the pooled run spends at least
  ``STALL_SLEEP_FLOOR`` of its SM-cycles in memory-stall sleep — so a
  refactor that breaks the L1 ``on_release`` wake (divergence) or the
  engagement condition (share drops to 0) fails here, not in the next
  benchmark run;
* cold start, by count: one compiled trace chunk of every Table-2
  profile equals the live ``InstructionStream`` (the compiler's oracle)
  on sampled warps, and ``trace_cache.ops_compiled`` moves by exactly
  ``CHUNK_WARPS * iters * (cinst + 1)`` — so an edit to the stream or a
  pattern that forgets the compiler's draw order fails here too.
"""

import sys

from repro.config import scaled_config
from repro.core.arbiter import SchemeConfig
from repro.harness.perfbench import bench_cycle_loop, result_signature
from repro.obs import process_registry
from repro.sim.engine import GPU, make_launches
from repro.workloads import trace as ktrace
from repro.workloads.profiles import ALL_PROFILES, get_profile


#: the st+sv leg sleeps through ~0.20 of its SM-cycles (a simulated
#: count, exact per seed; the scaled machine's two SMs see an L1
#: release almost every cycle, hence far below the 16-SM share).
STALL_SLEEP_FLOOR = 0.10


def memory_bound_check(config):
    """The memory-bound mix on the reference loop and on both
    substrates of the fast loop.  Returns ``(identical, share)``: all
    three signatures match, and the pooled run's memory-stall sleep
    share of SM-cycles."""
    results = []
    for gpu_kwargs in ({"reference": True}, {"pooled": False},
                       {"pooled": True}):
        profiles = [get_profile("st"), get_profile("sv")]
        launches = make_launches(profiles, [4, 4], config, seed=3)
        gpu = GPU(config, launches, SchemeConfig(), **gpu_kwargs)
        results.append(gpu.run(2000))
    signatures = [result_signature(result) for result in results]
    identical = signatures[0] == signatures[1] == signatures[2]
    return identical, results[2].sleep_ratio("mem_stall")


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
    report = bench_cycle_loop(
        cycles=2000,
        reps=2,
        config=config,
        out_path="perf_smoke.json",
        workload_names=["bp-iso", "cd-iso", "st+sv-even"],
    )
    for workload in report["workloads"]:
        name = workload["workload"]
        if not workload["identical"]:  # pragma: no cover - bench raises first
            print(f"FAIL {name}: fast loop diverged from reference")
            return 1
        speedup = workload["speedup"]
        kind = "memory-bound, " if workload["memory_bound"] else ""
        print(f"ok {name}: {kind}identical, "
              f"fast/reference = {speedup:.2f}x")
        if speedup < 1.0:
            print(f"FAIL {name}: fast loop slower than reference "
                  f"({speedup:.2f}x)")
            return 1
    identical, stall_sleep = memory_bound_check(config)
    if not identical:
        print("FAIL st+sv: reference, object and pooled runs diverged")
        return 1
    print("ok st+sv: reference == object == pooled")
    if stall_sleep < STALL_SLEEP_FLOOR:
        print(f"FAIL st+sv: memory-stall sleep covers {stall_sleep:.1%} of "
              f"SM-cycles, floor {STALL_SLEEP_FLOOR:.0%}")
        return 1
    print(f"ok st+sv: memory-stall sleep covers {stall_sleep:.1%} of "
          f"SM-cycles")
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
