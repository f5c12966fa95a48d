"""Top-level GPU engine: ties SMs, the memory subsystem and the scheme
stack together and runs the measurement window.

As in the paper's methodology (§2.3), kernels are modelled as an
endless stream of thread blocks for the duration of the window
(equivalent to "a kernel will restart if it completes before 2M
cycles"), and per-kernel IPC is measured over the whole window.
"""

from __future__ import annotations

import copy
import itertools
import os
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Union

from repro.config import GPUConfig
from repro.core.arbiter import SchemeConfig
from repro.mem.subsystem import MemorySubsystem
from repro.sim.sm import SleepingSM, StreamingMultiprocessor
from repro.sim.stats import SM_COUNTERS, KernelStats, RunResult
from repro.workloads import trace as ktrace
from repro.workloads.kernel import KernelProfile, ReplayStream

if TYPE_CHECKING:
    from repro.obs.collector import ObsLike

#: address-space stride separating kernel instances (in lines).
KERNEL_REGION_LINES = 1 << 40


class KernelLaunch:
    """One kernel instance in a run: profile + per-SM TB limits +
    private address region + deterministic stream seeding."""

    def __init__(self, slot: int, profile: KernelProfile,
                 tb_limits: Sequence[int], seed: int = 0):
        self.slot = slot
        self.profile = profile
        self.tb_limits = list(tb_limits)
        self.seed = seed
        self.base_line = slot * KERNEL_REGION_LINES
        self.pattern = profile.pattern_factory()
        self._warp_counter = itertools.count()
        self._stream_seed = seed * 7919 + slot
        # Precompiled trace for this (profile, seed), shared process-
        # wide; None when the compiler cannot key the profile's pattern
        # — then each warp's stream is generated at launch.  Either way
        # a warp replays, so both machines replay the same arrays.
        self.trace = ktrace.get_trace(profile, self._stream_seed)

    def next_warp_index(self) -> int:
        return next(self._warp_counter)

    def new_stream(self, warp_index: int) -> ReplayStream:
        # The stream adds base_line to the region-local lines itself,
        # so every footprint it hands the SM is already in global line
        # space.
        trace = self.trace
        if trace is not None:
            ops, keys = trace.warp_arrays(warp_index)
            footprint = partial(self.pattern.footprint, warp_index)
        else:
            ops, keys, footprint = ktrace.live_warp(
                self.profile, warp_index, self._stream_seed)
        return ReplayStream(self.profile, ops, keys, footprint,
                            base_line=self.base_line)


def make_launches(
    profiles: Sequence[KernelProfile],
    tb_limits: Sequence[Union[int, Sequence[int]]],
    config: GPUConfig,
    sm_masks: Optional[Sequence[Optional[Set[int]]]] = None,
    seed: int = 0,
) -> List[KernelLaunch]:
    """Build launches from per-kernel TB limits.

    ``tb_limits[i]`` is either a single per-SM limit or a per-SM list.
    ``sm_masks[i]`` (optional) restricts kernel *i* to a subset of SMs
    (spatial multitasking); on masked-out SMs the limit is forced to 0.
    """
    if len(profiles) != len(tb_limits):
        raise ValueError("one TB limit per kernel required")
    launches = []
    for slot, (profile, limit) in enumerate(zip(profiles, tb_limits)):
        if isinstance(limit, int):
            per_sm = [limit] * config.num_sms
        else:
            per_sm = list(limit)
            if len(per_sm) != config.num_sms:
                raise ValueError("per-SM limit list length must equal num_sms")
        if sm_masks is not None and sm_masks[slot] is not None:
            mask = sm_masks[slot]
            per_sm = [lim if sm in mask else 0 for sm, lim in enumerate(per_sm)]
        launches.append(KernelLaunch(slot, profile, per_sm, seed))
    return launches


def _reference_from_env() -> bool:
    """The ``REPRO_REFERENCE_LOOP`` switch: ``1`` selects the oracle
    machine, ``0`` or unset/empty the production one; anything else is
    rejected rather than silently running the production machine."""
    value = os.environ.get("REPRO_REFERENCE_LOOP", "")
    if value not in ("", "0", "1"):
        raise ValueError(
            f"REPRO_REFERENCE_LOOP must be '0' or '1', got {value!r}")
    return value == "1"


class GPU:
    """A configured GPU ready to simulate one measurement window.

    A GPU is one of two machines, chosen by ``reference`` (default: the
    ``REPRO_REFERENCE_LOOP`` environment variable, else False):

    * the **production machine** — SMs that sleep
      (:class:`~repro.sim.sm.SleepingSM`: scheduler sleep hints,
      whole-SM sleep, issue-through, the memoising LSU tick);
    * the **oracle** (``reference=True``) — SMs that never sleep
      (:class:`~repro.sim.sm.StreamingMultiprocessor`, a plain replay
      per stalled cycle), kept as the specification the tests hold the
      production machine bit-identical to (docs/PERF.md).

    Both share one memory path
    (:class:`~repro.mem.subsystem.MemorySubsystem`, ``MemRequest``
    objects); the switch picks the SM class here, where the components
    are built, and nowhere else: both machines run through the same
    cycle loop (:meth:`_run_cycles`).

    ``obs`` enables the observability layer (``True`` or an
    :class:`~repro.obs.ObsOptions`) on whichever machine
    ``reference`` selects: it is orthogonal to the switch.  The
    production machine observes itself exactly — cycles it does not
    execute one by one (scheduler skips, autopilot bursts, SM sleeps,
    deferred LSU replays) are attributed in batches,
    settled before anything reads them (:meth:`settle`) — and its
    report equals the oracle's field for field; simulated results stay
    bit-identical to an unobserved run.
    """

    def __init__(self, config: GPUConfig, launches: List[KernelLaunch],
                 scheme: Optional[SchemeConfig] = None,
                 reference: Optional[bool] = None,
                 obs: ObsLike = None):
        if not launches:
            raise ValueError("need at least one kernel launch")
        if obs is None or obs is False:
            self.obs = None
        else:
            # Only an observed run loads the collector and the
            # timeline and trace recorders behind it.
            from repro.obs.collector import resolve_obs
            self.obs = resolve_obs(obs)
        if reference is None:
            reference = _reference_from_env()
        self.reference = reference
        self.config = config
        self.launches = launches
        self.scheme = scheme or SchemeConfig()
        sm_cls = StreamingMultiprocessor if reference else SleepingSM
        self.memory = MemorySubsystem(config, obs=self.obs)
        self.kernel_stats: Dict[int, KernelStats] = {
            launch.slot: KernelStats() for launch in launches
        }
        self.sms: List[StreamingMultiprocessor] = []
        shared_scheme_state: Dict[str, object] = {}
        for sm_id in range(config.num_sms):
            l1 = self.memory.l1s[sm_id]
            bundle = self.scheme.build(len(launches), config, l1.tags,
                                       shared=shared_scheme_state,
                                       sm_id=sm_id)
            self.sms.append(sm_cls(sm_id, config, l1, launches, bundle,
                                   self.kernel_stats, obs=self.obs))
        self.cycles_run = 0
        if self.obs is not None:
            self.obs.attach(self)

    def set_tb_limit(self, sm_id: int, slot: int, limit: int) -> None:
        """Reconfigure one kernel's TB cap on one SM at runtime
        (dynamic Warped-Slicer; resident TBs above the new cap drain
        naturally — no preemption)."""
        if limit < 0:
            raise ValueError("limit must be non-negative")
        self.sms[sm_id].set_tb_limit(slot, limit)

    def snapshot_insts(self) -> Dict[int, int]:
        """Per-kernel instruction counters (for window measurements)."""
        return {slot: stats.warp_insts
                for slot, stats in self.kernel_stats.items()}

    def run(self, max_cycles: int) -> RunResult:
        """Simulate ``max_cycles`` core cycles and collect results."""
        if max_cycles < 1:
            raise ValueError("max_cycles must be positive")
        start = self.cycles_run
        end = start + max_cycles
        obs = self.obs
        sampler = obs.sampler if obs is not None else None
        if sampler is None:
            self._run_cycles(start, end, self.memory.tick)
        else:
            # Sampled run: the same loop, cut at each interval boundary.
            # There, settle what the machine owes for the cycles before
            # it (nothing, on the oracle) and sample — the state at the
            # end of the boundary's last cycle.  Settling early is exact
            # because every debt is additive (a run boundary does the
            # same).  Nothing feeds back into the components, so results
            # stay bit-identical to an unsampled run.
            memory_tick = self.memory.tick

            def stamped_tick(cycle: int) -> None:
                # The cycle gauge that timestamps adaptation events.
                obs.cycle = cycle
                memory_tick(cycle)

            interval = sampler.interval
            cycle = start
            while cycle < end:
                stop = min(end, cycle - cycle % interval + interval)
                self._run_cycles(cycle, stop, stamped_tick)
                if stop % interval == 0:
                    self.settle(stop)
                    sampler.on_cycle(stop - 1, self)
                cycle = stop
        self.cycles_run = end
        return self._collect()

    def _run_cycles(self, start: int, end: int, memory_tick) -> None:
        """The cycle loop over ``[start, end)``, for both machines:
        the backend ticks first, then every SM that is awake, in sm_id
        order.

        Sleeping SMs are skipped here rather than inside tick(): in a
        memory-pipeline stall most SMs sleep most cycles, and a Python
        call apiece would dominate the loop.  ``_sleep_until`` is the
        one SM field the loop reads; the oracle's SMs never raise it
        (a class attribute 0), so there this is the plain
        tick-everything-every-cycle scan.
        """
        # Bind the per-cycle callees once: the loop body is pure
        # dispatch, so attribute lookups would be a measurable share.
        sm_pairs = [(sm, sm.tick) for sm in self.sms]
        for cycle in range(start, end):
            memory_tick(cycle)
            for sm, sm_tick in sm_pairs:
                if sm._sleep_until <= cycle:
                    sm_tick(cycle)

    def settle(self, upto: Optional[int] = None) -> None:
        """Pay what the production machine owes for the cycles before
        ``upto`` (default: all simulated so far), so every counter and
        the observed stall tables read as if each cycle had been
        executed on its own (each SM owns what and in which order, see
        ``SleepingSM.settle``).  Idempotent and additive:
        settling a prefix now and the rest later equals settling once.
        A no-op on the oracle, which owes nothing."""
        if upto is None:
            upto = self.cycles_run
        for sm in self.sms:
            sm.settle(upto)

    def _sleep_report(self) -> Dict[str, int]:
        """Cumulative self-observability of this GPU (see
        ``RunResult.sleep``)."""
        report = dict.fromkeys(SM_COUNTERS, 0)
        for sm in self.sms:
            for key, value in sm.sleep_counters().items():
                report[key] += value
        report["sm_cycles"] = self.cycles_run * len(self.sms)
        return report

    def _collect(self) -> RunResult:
        self.settle()
        cfg = self.config
        cycles = self.cycles_run
        slots = [launch.slot for launch in self.launches]
        accesses = {s: 0 for s in slots}
        hits = {s: 0 for s in slots}
        misses = {s: 0 for s in slots}
        rsfails = {s: 0 for s in slots}
        for l1 in self.memory.l1s:
            for s in slots:
                accesses[s] += l1.stats.accesses.get(s, 0)
                hits[s] += l1.stats.hits.get(s, 0)
                misses[s] += l1.stats.misses.get(s, 0)
                rsfails[s] += l1.stats.rsfails.get(s, 0)
        result = RunResult(
            cycles=cycles,
            kernel_names=[launch.profile.name for launch in self.launches],
            # Copies: the GPU's own counters keep running if ``run``
            # is called again, a collected result must not.
            kernels={slot: copy.copy(stats)
                     for slot, stats in self.kernel_stats.items()},
            l1d_accesses=accesses,
            l1d_hits=hits,
            l1d_misses=misses,
            l1d_rsfails=rsfails,
            lsu_stall_cycles=sum(sm.lsu.stall_cycles for sm in self.sms),
            lsu_busy_cycles=sum(sm.lsu.busy_cycles for sm in self.sms),
            alu_busy=sum(sm.alu_busy for sm in self.sms),
            sfu_busy=sum(sm.sfu_busy for sm in self.sms),
            # Issue bounds: one per scheduler, one SFU per SM, a cycle.
            alu_slots=cycles * cfg.schedulers_per_sm * cfg.num_sms,
            sfu_slots=cycles * cfg.num_sms,
            dram_row_hit_rate=self.memory.dram.row_hit_rate(),
            num_sms=cfg.num_sms,
            l2_accesses=sum(self.memory.l2_stats.accesses.values())
                        + sum(self.memory.l2_stats.writes.values()),
            l2_misses=sum(self.memory.l2_stats.misses.values()),
            dram_accesses=self.memory.dram.total_serviced(),
            icnt_flits=self.memory.icnt.req_flits_sent
                       + self.memory.icnt.rsp_flits_sent,
            sleep=self._sleep_report(),
        )
        if self.obs is not None:
            result.obs = self.obs.report(self)
        return result
