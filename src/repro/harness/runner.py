"""Experiment runner: isolated profiling (cached), scheme resolution,
and concurrent-workload execution with the paper's metrics.

Scheme names follow the paper's labels; the one list of them, with
their grammar, is :data:`repro.core.arbiter.SCHEMES`.

Isolated runs (needed both for normalisation and for Warped-Slicer's
scalability curves) are cached in memory and optionally on disk
(``.repro_cache``), keyed by profile calibration, configuration and
cycle budget.  A scalability curve is not stored: it is read off the
kernel's isolated runs at each TB count.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro._digest import config_fingerprint, md5
from repro.cke.warped_slicer import ScalabilityCurve, sweet_spot
from repro.config import GPUConfig, scaled_config
from repro.core.arbiter import SchemeConfig, parse_scheme
from repro.metrics.speedup import antt, fairness, normalized_ipcs, weighted_speedup
from repro.sim.stats import RunResult
from repro.workloads.kernel import KernelProfile
from repro.workloads.mixes import WorkloadMix

# The simulator and the TB partitioners are imported by the methods
# that run them: a ``campaign --resume`` unpickles this module's
# records and replays them without loading the cycle model.

#: why ``run_mix`` refuses to observe a ``dws*`` scheme.
DWS_UNOBSERVABLE = ("observability is not supported for dynamic Warped-Slicer "
                    "runs (profiling phases re-launch the engine mid-run)")

#: bump when profile calibration or simulator timing changes, to
#: invalidate the on-disk isolated-run cache.
CACHE_VERSION = 3


@dataclass(frozen=True)
class RunnerSettings:
    """Cycle budgets and seeding for one experiment campaign."""

    iso_cycles: int = 8000
    curve_cycles: int = 6000
    concurrent_cycles: int = 12000
    seed: int = 0


#: the named cycle budgets: ``quick`` is ``repro report --quick``,
#: ``bench`` the figure bench's (``benchmarks/conftest.py``;
#: EXPERIMENTS.md's numbers) and ``report`` the
#: ``RunnerSettings`` defaults, what ``repro report`` runs.
BUDGETS: Dict[str, RunnerSettings] = {
    "quick": RunnerSettings(iso_cycles=3000, curve_cycles=2000,
                            concurrent_cycles=4000),
    "bench": RunnerSettings(iso_cycles=6000, curve_cycles=4000,
                            concurrent_cycles=8000),
    "report": RunnerSettings(),
}


@dataclass
class IsoRecord:
    """Cached scalars from one isolated run."""

    name: str
    tbs: int
    ipc: float
    l1d_miss_rate: float
    l1d_rsfail_rate: float
    lsu_stall_pct: float
    alu_utilization: float
    sfu_utilization: float
    compute_utilization: float


@dataclass
class WorkloadOutcome:
    """Metrics of one concurrent run under one scheme."""

    mix_name: str
    mix_class: str
    scheme: str
    partition: Tuple[int, ...]
    iso_ipcs: List[float]
    shared_ipcs: List[float]
    norm_ipcs: List[float]
    weighted_speedup: float
    antt: float
    fairness: float
    result: RunResult = field(repr=False)


def _atomic_write_json(path: str, payload) -> None:
    """Write ``payload`` so concurrent readers (and writers) never see
    a partial record: dump to a same-directory temp file, then
    ``os.replace`` it into place (atomic on POSIX)."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except OSError:
        # The cache is an optimisation, never a correctness dependency.
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _read_json_record(path: str):
    """Load a cache record, treating unreadable/corrupt files (e.g. a
    half-written record from a crashed run) as a cache miss."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


class ExperimentRunner:
    """Shared state (config + caches) for a set of experiments."""

    def __init__(self, config: Optional[GPUConfig] = None,
                 settings: Optional[RunnerSettings] = None,
                 cache_dir: Optional[str] = None):
        self.config = config or scaled_config()
        self.settings = settings or RunnerSettings()
        self.cache_dir = cache_dir
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)
        self._iso_cache: Dict[Tuple, IsoRecord] = {}
        self._cfg_key = config_fingerprint(self.config)

    # ------------------------------------------------------------------
    # isolated runs
    def _iso_key(self, name: str, tbs: int, cycles: int) -> Tuple:
        return (CACHE_VERSION, self._cfg_key, name, tbs, cycles,
                self.settings.seed)

    def _disk_path(self, key: Tuple) -> Optional[str]:
        if not self.cache_dir:
            return None
        digest = md5(repr(key).encode()).hexdigest()
        return os.path.join(self.cache_dir, f"iso-{digest}.json")

    def recall(self, profile: KernelProfile, tbs: Optional[int] = None,
               cycles: Optional[int] = None) -> Optional[IsoRecord]:
        """The record :meth:`isolated` returns for these arguments
        without simulating — from memory, else from the cache dir —
        or None."""
        if tbs is None:
            tbs = profile.max_tbs_per_sm(self.config)
        key = self._iso_key(profile.name, tbs,
                            cycles or self.settings.iso_cycles)
        record = self._iso_cache.get(key)
        if record is not None:
            return record
        path = self._disk_path(key)
        if path and os.path.exists(path):
            payload = _read_json_record(path)
            if payload is not None:
                try:
                    record = IsoRecord(**payload)
                except TypeError:
                    return None  # stale/foreign schema: recompute
                self._iso_cache[key] = record
        return record

    def install(self, record: IsoRecord,
                cycles: Optional[int] = None) -> None:
        """Hold ``record`` in memory as ``isolated(profile, record.tbs,
        cycles)`` — a run made by another runner with this config and
        settings (a worker's), which already wrote the cache dir."""
        self._iso_cache[self._iso_key(
            record.name, record.tbs,
            cycles or self.settings.iso_cycles)] = record

    def isolated(self, profile: KernelProfile, tbs: Optional[int] = None,
                 cycles: Optional[int] = None) -> IsoRecord:
        """Run (or recall) one kernel alone at ``tbs`` TBs per SM."""
        if tbs is None:
            tbs = profile.max_tbs_per_sm(self.config)
        if tbs < 1:
            raise ValueError(f"{profile.name} cannot fit a single TB")
        settings = self.settings
        cycles = cycles or settings.iso_cycles
        record = self.recall(profile, tbs, cycles)
        if record is not None:
            return record
        # The max-TB curve point and the iso run are one simulation
        # (same launches, same seed) read at two budgets: the shorter
        # is a strict prefix of the longer.  Whichever is asked for
        # first simulates once, collects at both and installs both
        # records — unless the other is already known.
        budgets = [cycles]
        shared = {settings.curve_cycles, settings.iso_cycles}
        if cycles in shared and tbs == profile.max_tbs_per_sm(self.config):
            budgets = sorted(
                budget for budget in shared
                if budget == cycles
                or self.recall(profile, tbs, budget) is None)
        from repro.sim.engine import GPU, make_launches
        launches = make_launches([profile], [tbs], self.config,
                                 seed=settings.seed)
        gpu = GPU(self.config, launches, SchemeConfig())
        for budget in budgets:
            result = gpu.run(budget - gpu.cycles_run)
            record = IsoRecord(
                name=profile.name, tbs=tbs, ipc=result.ipc(0),
                l1d_miss_rate=result.l1d_miss_rate(0),
                l1d_rsfail_rate=result.l1d_rsfail_rate(0),
                lsu_stall_pct=result.lsu_stall_pct(),
                alu_utilization=result.alu_utilization(),
                sfu_utilization=result.sfu_utilization(),
                compute_utilization=result.compute_utilization(),
            )
            self.install(record, budget)
            path = self._disk_path(self._iso_key(profile.name, tbs, budget))
            if path:
                _atomic_write_json(path, asdict(record))
        return self._iso_cache[self._iso_key(profile.name, tbs, cycles)]

    def isolated_result(self, profile: KernelProfile,
                        tbs: Optional[int] = None,
                        cycles: Optional[int] = None,
                        obs=None) -> RunResult:
        """Uncached isolated run returning the full RunResult; ``obs``
        as in :meth:`run_mix` (Figure 6a/6b read its phase records)."""
        from repro.sim.engine import GPU, make_launches
        if tbs is None:
            tbs = profile.max_tbs_per_sm(self.config)
        launches = make_launches([profile], [tbs], self.config,
                                 seed=self.settings.seed)
        gpu = GPU(self.config, launches, SchemeConfig(), obs=obs)
        return gpu.run(cycles or self.settings.iso_cycles)

    def curve(self, profile: KernelProfile) -> ScalabilityCurve:
        """Scalability curve (Warped-Slicer profiling, Figure 3a): the
        kernel's isolated IPC at each TB count, at the curve budget."""
        cycles = self.settings.curve_cycles
        return ScalabilityCurve(profile.name, tuple(
            self.isolated(profile, tbs, cycles).ipc
            for tbs in range(1, profile.max_tbs_per_sm(self.config) + 1)))

    # ------------------------------------------------------------------
    # scheme resolution
    def resolve_scheme(self, name: str, profiles: Sequence[KernelProfile]
                       ) -> Tuple[List[int], Optional[List[Set[int]]], SchemeConfig]:
        """Translate a static scheme name (not ``dws*``, which
        partitions online) into (tb_limits, sm_masks, stack)."""
        from repro.cke.leftover import leftover_partition
        from repro.cke.partition import even_partition
        from repro.cke.smk import drf_partition, smk_quotas
        from repro.cke.spatial import spatial_masks, spatial_tb_limits
        partition, stack = parse_scheme(
            name, tuple(p.reqs_per_minst for p in profiles))
        if partition == "spatial":
            masks = spatial_masks(len(profiles), self.config)
            return spatial_tb_limits(profiles, self.config), masks, stack
        if partition == "leftover":
            return list(leftover_partition(profiles, self.config)), None, stack
        if partition == "even":
            return list(even_partition(profiles, self.config)), None, stack
        if partition == "ws":
            curves = [self.curve(p) for p in profiles]
            return list(sweet_spot(profiles, curves, self.config)), None, stack
        if partition == "smk":
            tb_limits = list(drf_partition(profiles, self.config))
            if stack is None:  # smk-p+w
                ipcs = [self.isolated(p).ipc for p in profiles]
                stack = SchemeConfig(smk_quotas=smk_quotas(ipcs))
            return tb_limits, None, stack
        raise ValueError(f"scheme {name!r} partitions online: run it "
                         f"with run_mix")

    # ------------------------------------------------------------------
    # concurrent runs
    def run_mix_with_stack(self, mix: WorkloadMix, stack: SchemeConfig,
                           partition_scheme: str = "ws",
                           cycles: Optional[int] = None,
                           obs=None) -> WorkloadOutcome:
        """Run a workload with an explicit mechanism stack on top of a
        named TB-partitioning scheme — the hook ablation studies use
        for stacks the name grammar cannot express."""
        profiles = list(mix.profiles)
        tb_limits, masks, _ = self.resolve_scheme(partition_scheme, profiles)
        return self._run(mix, f"{partition_scheme}:{stack.describe()}",
                         tb_limits, masks, stack, cycles, obs=obs)

    def run_mix(self, mix: WorkloadMix, scheme: str,
                cycles: Optional[int] = None,
                obs=None) -> WorkloadOutcome:
        """Run one workload under one scheme and compute the metrics.

        ``obs`` enables observability for the concurrent run (``True``
        or an ``ObsOptions``); the outcome's
        ``result.obs`` then carries the stall/trace report."""
        profiles = list(mix.profiles)
        partition, stack = parse_scheme(
            scheme, tuple(p.reqs_per_minst for p in profiles))
        if partition == "dws":
            if obs:
                raise ValueError(DWS_UNOBSERVABLE)
            return self._run_dynamic_ws(mix, scheme, stack, cycles)
        tb_limits, masks, stack = self.resolve_scheme(scheme, profiles)
        return self._run(mix, scheme, tb_limits, masks, stack, cycles,
                         obs=obs)

    def _run_dynamic_ws(self, mix: WorkloadMix, scheme: str,
                        stack: SchemeConfig,
                        cycles: Optional[int]) -> WorkloadOutcome:
        """Dynamic Warped-Slicer: profile online, reconfigure, measure.

        Metrics are computed over the post-reconfiguration measurement
        window only (the paper reports steady-state numbers); the
        attached RunResult is cumulative over the whole run.
        """
        from repro.cke.dynamic_ws import DynamicWarpedSlicer
        profiles = list(mix.profiles)
        slicer = DynamicWarpedSlicer(profiles, self.config, stack,
                                     seed=self.settings.seed)
        dyn = slicer.execute(cycles or self.settings.concurrent_cycles)
        return self._outcome(
            mix, scheme, dyn.partition,
            [dyn.window_ipc(slot) for slot in range(len(profiles))],
            dyn.result)

    def _run(self, mix: WorkloadMix, scheme_label: str, tb_limits, masks,
             stack: SchemeConfig, cycles: Optional[int],
             obs=None) -> WorkloadOutcome:
        from repro.sim.engine import GPU, make_launches
        launches = make_launches(list(mix.profiles), tb_limits, self.config,
                                 sm_masks=masks, seed=self.settings.seed)
        gpu = GPU(self.config, launches, stack, obs=obs)
        result = gpu.run(cycles or self.settings.concurrent_cycles)
        # Spatial multitasking concentrates each kernel on a subset of
        # SMs; IPC totals are machine-wide either way, so normalisation
        # against whole-machine isolated IPC is consistent across
        # schemes (as in the paper).
        return self._outcome(
            mix, scheme_label, tb_limits,
            [result.ipc(slot) for slot in range(len(mix.profiles))], result)

    def _outcome(self, mix: WorkloadMix, scheme_label: str, partition,
                 shared: List[float], result: RunResult) -> WorkloadOutcome:
        """The metrics of a concurrent run whose kernels reached the
        ``shared`` IPCs, normalised by their isolated runs."""
        iso = [self.isolated(p).ipc for p in mix.profiles]
        norms = normalized_ipcs(shared, iso)
        return WorkloadOutcome(
            mix_name=mix.name,
            mix_class=mix.mix_class,
            scheme=scheme_label,
            partition=tuple(partition),
            iso_ipcs=iso,
            shared_ipcs=shared,
            norm_ipcs=norms,
            weighted_speedup=weighted_speedup(norms),
            antt=antt(norms),
            fairness=fairness(norms),
            result=result,
        )
