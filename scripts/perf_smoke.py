"""CI smoke for the production machine: seconds long, count-based (no
wall-clock assertion), on the scaled-down config except for the legs
that name the Table-1 machine.

* production machine (sleeping SMs) == oracle
  (``GPU(reference=True)``: SMs ticked every cycle), both over the one
  memory path, bit for bit, on two compute-leaning workloads and one
  memory-bound mix (``st+sv-even``);
* on a second memory-bound leg the two agree again, and the production
  run spends at least ``STALL_SLEEP_FLOOR`` of its SM-cycles in
  memory-stall sleep — so a refactor that breaks the L1 release
  wake (divergence) or the engagement condition (share drops to 0)
  fails here, not in the next benchmark run;
* hits finish where they are found, by count: on compute-bound ``dc``
  alone at least ``THROUGH_FLOOR`` of the memory instructions finish at
  issue (all-hit loads: no ``MemInst``, no LSU-queue entry) with the
  signature the oracle's; the same run observed finishes none there
  (observed cells keep the queue path, and every request's events);
* the paper's mechanism at the paper's machine: Table-1 ``bp+cd``,
  even partition, DMIL — production == oracle, observed production ==
  observed oracle, and the SMs sleep through MIL-capped stretches
  (``mil_capped`` > 0), so the issue-stall memo's wakes (in-flight
  decrements, limit recomputes) are exercised where they matter;
* the partitioned victim order at the paper's machine: Table-1
  ``dc+ks``, even partition, UCP repartitioning every
  ``TABLE1_UCP.ucp_interval`` cycles — production == oracle, and UCP
  applied a way partition (``partitions_applied`` > 0), so the indexed
  tag store's UCP path picks 6-way victims in LRU order on both machines;
* cause-keyed release, by count: on Table-1 ``ks+ax`` the L1 sees at
  most ``MISSQ_RETRY_BOUND`` ``rsfail_missq`` lookups per accepted
  primary miss — a fill waking an SM that waits for a miss-queue drain
  shows up here as futile retries, not as a divergence;
* observed, by count: with the phase sampler attached, the production
  machine's ``ObsReport`` equals the oracle's field for field on
  ``st+sv`` and on ``bp+cd`` under ``ws-dmil``'s scheme, and a non-zero
  number of its issue slots were attributed in batches — so observing
  neither falls back to per-cycle work nor drifts from the
  specification;
* host memory follows what a run touches, by count: Table-1 ``dc``
  alone runs with production == oracle, builds exactly
  ``TABLE1_DC_BUILT_SETS`` tag sets (L2, all L1Ds) of the 1 024 and
  16 x 32 a machine has, and a compiled ``dc`` chunk stores its keys
  as 4-byte items — so a tag store that builds its sets up front, or a
  compiler that widens every key, fails here;
* one stream class, by count: a ``ThreadAddressPattern(gather(64))``
  kernel, whose coalesced footprints the trace compiler cannot key,
  runs with production == oracle and compiles no trace chunk — its
  warps are generated by the oracle at launch and replayed like
  compiled ones;
* cold start, by count: one compiled trace chunk of every Table-2
  profile holds one key per memory instruction and, replayed through a
  ``ReplayStream``, equals the live ``InstructionStream`` (the
  compiler's oracle) on sampled warps, and
  ``trace_cache.ops_compiled`` moves by exactly ``CHUNK_WARPS * iters *
  (cinst + 1)`` — so an edit to the stream or a pattern that forgets
  the compiler's draw order fails here too, and
  ``trace_cache.chunk_compiles`` by exactly one per profile.
"""

import collections
import dataclasses
import sys

from repro.cke.partition import even_partition
from repro.config import MAXWELL_CONFIG, scaled_config
from repro.core.arbiter import SchemeConfig
from repro.harness.perfbench import result_signature
from repro.mem.cache import L1DCache
from repro.obs import ObsOptions, process_registry
from repro.sim.engine import GPU, make_launches
from repro.workloads import trace as ktrace
from repro.workloads.coalescer import ThreadAddressPattern, gather
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


#: dc alone finishes 0.87 of its memory instructions at issue on the
#: scaled machine (its 24-line working set lives in the L1; stores and
#: the cold start queue up).  An exact simulated count per seed.
THROUGH_FLOOR = 0.8


#: (name, kernels, TBs per SM, scheme) observed on both machines.
OBSERVED_WORKLOADS = (
    ("st+sv", ("st", "sv"), (4, 4), SchemeConfig()),
    ("bp+cd", ("bp", "cd"), (4, 4), SchemeConfig(mil="dmil")),
)


#: the Table-1 DMIL leg samples every 128 requests (the paper's 1024
#: would need ~20k cycles before the first limit exists): limits bite
#: within a seconds-long run, so MIL-capped sleeps occur.
TABLE1_DMIL = SchemeConfig(mil="dmil", sample_window=128)
TABLE1_CYCLES = 3000

#: UCP at the paper's 5000-cycle interval would not repartition within
#: TABLE1_CYCLES; every 500 cycles it does, five times per SM.
TABLE1_UCP = SchemeConfig(ucp=True, ucp_interval=500)

#: (L2, all-L1D) tag sets Table-1 dc builds over TABLE1_CYCLES: its
#: 24-line working set maps to 24 L2 sets and 24 sets of each of the
#: 16 L1Ds (the same from 1 000 cycles through the benchmark's 20 000).
#: Exact simulated counts.
TABLE1_DC_BUILT_SETS = (24, 16 * 24)

#: ``rsfail_missq`` lookups per accepted primary miss on Table-1 ks+ax
#: over 4000 cycles: 0.88 with releases keyed by cause (0.98 over the
#: benchmark's 80k cycles), 1.63 (1.85) when any release woke a stalled
#: SM.  An exact simulated count per seed.
MISSQ_RETRY_BOUND = 1.2


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


def compute_bound_check(config):
    """dc alone on the oracle, the production machine, and the
    production machine observed.  Returns ``(identical, share,
    observed_through)``: all three signatures match, the share of the
    production run's memory instructions that finished at issue, and
    how many the observed run finished there (must be none)."""
    oracle = run(config, ("dc",), None, 3, reference=True)
    production = run(config, ("dc",), None, 3)
    observed = run(config, ("dc",), None, 3, obs=True)
    identical = (result_signature(production) == result_signature(oracle)
                 == result_signature(observed))
    minsts = sum(k.mem_insts for k in production.kernels.values())
    return (identical, production.sleep["insts_through"] / minsts,
            observed.sleep["insts_through"])


def observed_pair(config, kernels, tb_limits, scheme, cycles=2000):
    """One workload observed (phase sampler on) on the oracle and on
    the production machine.  Returns ``(identical, production)``: the
    two reports and signatures match, and the production result."""
    def observe(**gpu_kwargs):
        return run(config, kernels, tb_limits, 3, cycles, scheme=scheme,
                   obs=ObsOptions(phase_interval=256),
                   **gpu_kwargs)

    oracle = observe(reference=True)
    production = observe()
    identical = (
        result_signature(production) == result_signature(oracle)
        and all(getattr(production.obs, field) == getattr(oracle.obs, field)
                for field in ("sched_stalls", "lsu_stalls", "phases")))
    return identical, production


def table1_dmil_check():
    """The paper's mechanism at the paper's machine.  Returns
    ``(identical, observed_identical, slept)``: production == oracle,
    observed production == observed oracle, and the SM-cycles the
    production run slept through MIL-capped stretches."""
    kernels = ("bp", "cd")
    tb_limits = even_partition([get_profile(k) for k in kernels],
                               MAXWELL_CONFIG)
    observed_identical, observed = observed_pair(
        MAXWELL_CONFIG, kernels, tb_limits, TABLE1_DMIL, TABLE1_CYCLES)
    plain = run(MAXWELL_CONFIG, kernels, tb_limits, 3, TABLE1_CYCLES,
                scheme=TABLE1_DMIL)
    identical = result_signature(plain) == result_signature(observed)
    slept = min(plain.sleep["mil_capped"], observed.sleep["mil_capped"])
    return identical, observed_identical, slept


def table1_ucp_check():
    """UCP way partitioning at the paper's machine.  Returns
    ``(identical, applied)``: production == oracle, and the partitions
    the production run's UCP controllers applied over all SMs."""
    kernels = ("dc", "ks")
    profiles = [get_profile(k) for k in kernels]
    tb_limits = even_partition(profiles, MAXWELL_CONFIG)

    def build(**gpu_kwargs):
        launches = make_launches(profiles, list(tb_limits), MAXWELL_CONFIG,
                                 seed=3)
        return GPU(MAXWELL_CONFIG, launches, TABLE1_UCP, **gpu_kwargs)

    oracle = build(reference=True).run(TABLE1_CYCLES)
    gpu = build()
    production = gpu.run(TABLE1_CYCLES)
    identical = result_signature(production) == result_signature(oracle)
    return identical, sum(sm.bundle.ucp.partitions_applied for sm in gpu.sms)


def table1_footprint_check():
    """What Table-1 dc keeps on the host.  Returns ``(identical, built,
    key_bytes)``: production == oracle, the (L2, all-L1D) tag sets the
    production run built, and the item size of a compiled dc chunk's
    keys."""
    profile = get_profile("dc")

    def build(**gpu_kwargs):
        launches = make_launches(
            [profile], [profile.max_tbs_per_sm(MAXWELL_CONFIG)],
            MAXWELL_CONFIG, seed=3)
        return GPU(MAXWELL_CONFIG, launches, SchemeConfig(), **gpu_kwargs)

    def built(tags):
        return sum(lru is not None for lru in tags._sets)

    oracle = build(reference=True).run(TABLE1_CYCLES)
    gpu = build()
    production = gpu.run(TABLE1_CYCLES)
    identical = result_signature(production) == result_signature(oracle)
    memory = gpu.memory
    sets = (built(memory.l2_tags), sum(built(l1.tags) for l1 in memory.l1s))
    keys = gpu.launches[0].trace.warp_arrays(0)[1]
    return identical, sets, keys.itemsize


def missq_retry_check():
    """``rsfail_missq`` lookups per accepted primary miss on Table-1
    ks+ax, counted at the L1 (every real lookup, no batched replay)."""
    outcomes = collections.Counter()
    access = L1DCache.access

    def counting(self, *args):
        result = access(self, *args)
        outcomes[result] += 1
        return result

    L1DCache.access = counting
    try:
        run(MAXWELL_CONFIG, ("ks", "ax"), (8, 8), 0, cycles=4000)
    finally:
        L1DCache.access = access
    return outcomes["rsfail_missq"] / outcomes["miss"]


def untraceable_check(config):
    """A gather kernel (``ThreadAddressPattern``, no ``first_key``)
    alone on the oracle and on the production machine.  Returns
    ``(identical, compiled)``: the two signatures match, and the trace
    chunks compiled meanwhile (must be none)."""
    profile = dataclasses.replace(
        get_profile("sv"), name="gx", iters_per_warp=40,
        pattern_factory=lambda: ThreadAddressPattern(gather(64)))

    def compiles():
        return process_registry().snapshot(
            "trace_cache")["trace_cache.chunk_compiles"]

    def signature(**gpu_kwargs):
        launches = make_launches([profile], [4], config, seed=3)
        return result_signature(GPU(config, launches, SchemeConfig(),
                                    **gpu_kwargs).run(2000))

    before = compiles()
    identical = signature(reference=True) == signature()
    return identical, compiles() - before


def cold_start_check():
    """Compile one chunk of every profile.  Returns the failures (empty
    when every sampled warp holds one key per memory instruction and,
    replayed through a ReplayStream, equals the live stream, and each
    profile compiled exactly one chunk of the profile's arithmetic in
    ops)."""
    seed = 3
    failures = []

    def counts():
        snapshot = process_registry().snapshot("trace_cache")
        return (snapshot["trace_cache.ops_compiled"],
                snapshot["trace_cache.chunk_compiles"])

    ktrace.clear_memory_cache()
    try:
        for profile in ALL_PROFILES:
            ops_before, compiles_before = counts()
            trace = ktrace.get_trace(profile, seed)
            for warp_index in (0, 1, ktrace.CHUNK_WARPS - 1):
                ops, keys = trace.warp_arrays(warp_index)
                if len(keys) != profile.iters_per_warp:
                    failures.append(f"{profile.name}: warp {warp_index} "
                                    f"has {len(keys)} keys, expected "
                                    f"{profile.iters_per_warp}")
                if ktrace.replayed_warp_arrays(
                        profile, warp_index, ops, keys
                        ) != ktrace.live_warp_arrays(profile, warp_index,
                                                     seed):
                    failures.append(f"{profile.name}: warp {warp_index} "
                                    f"replays differently from the live "
                                    f"stream")
            ops_after, compiles_after = counts()
            expected = (ktrace.CHUNK_WARPS * profile.iters_per_warp
                        * (profile.cinst_per_minst + 1))
            if ops_after - ops_before != expected:
                failures.append(f"{profile.name}: {ops_after - ops_before} "
                                f"ops compiled, expected {expected}")
            if compiles_after - compiles_before != 1:
                failures.append(f"{profile.name}: "
                                f"{compiles_after - compiles_before} "
                                f"chunks compiled, expected 1")
    finally:
        ktrace.clear_memory_cache()
    return failures


def main() -> int:
    config = scaled_config()
    for name, kernels, tb_limits in IDENTITY_WORKLOADS:
        if not loops_identical(config, kernels, tb_limits):
            print(f"FAIL {name}: fast loop diverged from reference")
            return 1
        print(f"ok {name}: fast == reference")
    identical, through, observed_through = compute_bound_check(config)
    if not identical or through < THROUGH_FLOOR or observed_through:
        print(f"FAIL dc: production {'==' if identical else '!='} oracle "
              f"== observed, {through:.1%} of memory instructions finished "
              f"at issue (floor {THROUGH_FLOOR:.0%}), {observed_through} "
              f"on the observed run (must be 0)")
        return 1
    print(f"ok dc: production == oracle == observed, {through:.1%} of "
          f"memory instructions finished at issue, none when observed")
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
        identical, production = observed_pair(config, kernels, tb_limits,
                                              scheme)
        batched = production.sleep["obs_batched_slots"]
        if not identical or not batched:
            print(f"FAIL {name}: observed production report "
                  f"{'==' if identical else '!='} observed oracle report, "
                  f"{batched} slots batched")
            return 1
        print(f"ok {name}: observed production == observed oracle, "
              f"{batched} slots batched")
    identical, observed_identical, slept = table1_dmil_check()
    if not (identical and observed_identical and slept):
        print(f"FAIL table-1 bp+cd even:DMIL: production "
              f"{'==' if identical else '!='} oracle, observed production "
              f"{'==' if observed_identical else '!='} observed oracle, "
              f"{slept} SM-cycles of MIL-capped sleep")
        return 1
    print(f"ok table-1 bp+cd even:DMIL: production == oracle, observed "
          f"production == observed oracle, {slept} SM-cycles of MIL-capped "
          f"sleep")
    identical, applied = table1_ucp_check()
    if not (identical and applied):
        print(f"FAIL table-1 dc+ks even:UCP: production "
              f"{'==' if identical else '!='} oracle, {applied} partitions "
              f"applied")
        return 1
    print(f"ok table-1 dc+ks even:UCP: production == oracle, {applied} "
          f"partitions applied")
    identical, built, key_bytes = table1_footprint_check()
    if not identical or built != TABLE1_DC_BUILT_SETS or key_bytes != 4:
        print(f"FAIL table-1 dc: production {'==' if identical else '!='} "
              f"oracle, {built} (L2, L1D) tag sets built, expected "
              f"{TABLE1_DC_BUILT_SETS}, {key_bytes}-byte keys, expected 4")
        return 1
    print(f"ok table-1 dc: production == oracle, {built[0]} L2 and "
          f"{built[1]} L1D tag sets built, 4-byte keys")
    retries = missq_retry_check()
    if retries > MISSQ_RETRY_BOUND:
        print(f"FAIL table-1 ks+ax: {retries:.2f} rsfail_missq lookups per "
              f"accepted miss, bound {MISSQ_RETRY_BOUND}")
        return 1
    print(f"ok table-1 ks+ax: {retries:.2f} rsfail_missq lookups per "
          f"accepted miss (bound {MISSQ_RETRY_BOUND})")
    identical, compiled = untraceable_check(config)
    if not identical or compiled:
        print(f"FAIL gather: production {'==' if identical else '!='} "
              f"oracle, {compiled} chunks compiled (must be 0)")
        return 1
    print("ok gather: production == oracle, no chunk compiled")
    failures = cold_start_check()
    for failure in failures:
        print(f"FAIL cold start {failure}")
    if failures:
        return 1
    print(f"ok cold start: {len(ALL_PROFILES)} profiles replay the live "
          f"stream from one key per memory instruction, one chunk "
          f"compiled each, op counts exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
