"""Experiment runner: isolated profiling (cached), scheme resolution,
and concurrent-workload execution with the paper's metrics.

Scheme names follow the paper's labels:

==================  =====================================================
``spatial``         spatial multitasking [2]
``leftover``        Hyper-Q-style left-over policy
``even``            naive even intra-SM TB split
``ws``              Warped-Slicer TB partition (sweet spot)
``ws-rbmi``         + round-robin balanced memory issuing
``ws-qbmi``         + quota-based balanced memory issuing (§3.2)
``ws-dmil``         + dynamic memory instruction limiting (§3.3.2)
``ws-gdmil``        + *global* DMIL (one MILG set, broadcast; §3.3.2)
``ws-qbmi+dmil``    + both
``ws-ucp``          + UCP L1D way partitioning (§3.1)
``ws-smil:3,1``     + static limits (Inf spelled ``inf``) (§3.3.1)
``ws-byp:0,1``      + L1D bypassing for flagged kernels (§4.5)
``dws`` (+suffix)   *dynamic* Warped-Slicer: online profiling (§2.5)
``smk-p``           SMK DRF partition only
``smk-p+w``         SMK-(P+W): DRF + warp-instruction quotas [45]
``smk-p+qbmi``      SMK-P + QBMI
``smk-p+dmil``      SMK-P + DMIL
==================  =====================================================

Isolated runs (needed both for normalisation and for Warped-Slicer's
scalability curves) are cached in memory and optionally on disk
(``.repro_cache``), keyed by profile calibration, configuration and
cycle budget.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro._digest import config_fingerprint, md5
from repro.config import GPUConfig, scaled_config
from repro.core.arbiter import SchemeConfig
from repro.cke.warped_slicer import ScalabilityCurve, sweet_spot
from repro.metrics.speedup import antt, fairness, normalized_ipcs, weighted_speedup
from repro.sim.stats import RunResult
from repro.workloads.kernel import KernelProfile
from repro.workloads.mixes import WorkloadMix
from repro.workloads.profiles import get_profile

# The simulator and the TB partitioners are imported by the methods
# that run them: a ``campaign --resume`` unpickles this module's
# records and replays them without loading the cycle model.

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
#: ``bench`` the figure bench's (``benchmarks/conftest.py``, scaled by
#: ``REPRO_BENCH_SCALE``; EXPERIMENTS.md's numbers) and ``report`` the
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
        self._curve_cache: Dict[Tuple, ScalabilityCurve] = {}
        self._cfg_key = config_fingerprint(self.config)

    # ------------------------------------------------------------------
    # isolated runs
    def _iso_key(self, name: str, tbs: int, cycles: int) -> Tuple:
        return (CACHE_VERSION, self._cfg_key, name, tbs, cycles,
                self.settings.seed)

    def _curve_key(self, name: str) -> Tuple:
        return (self._cfg_key, name, self.settings.curve_cycles,
                self.settings.seed, CACHE_VERSION)

    def _disk_path(self, key: Tuple) -> Optional[str]:
        if not self.cache_dir:
            return None
        digest = md5(repr(key).encode()).hexdigest()
        return os.path.join(self.cache_dir, f"iso-{digest}.json")

    def _recall_iso(self, key: Tuple) -> Optional[IsoRecord]:
        """The cached record under ``key`` (memory, then disk)."""
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

    def isolated(self, profile: KernelProfile, tbs: Optional[int] = None,
                 cycles: Optional[int] = None) -> IsoRecord:
        """Run (or recall) one kernel alone at ``tbs`` TBs per SM."""
        if tbs is None:
            tbs = profile.max_tbs_per_sm(self.config)
        if tbs < 1:
            raise ValueError(f"{profile.name} cannot fit a single TB")
        settings = self.settings
        cycles = cycles or settings.iso_cycles
        record = self._recall_iso(self._iso_key(profile.name, tbs, cycles))
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
                if budget == cycles or self._recall_iso(
                    self._iso_key(profile.name, tbs, budget)) is None)
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
            key = self._iso_key(profile.name, tbs, budget)
            self._iso_cache[key] = record
            path = self._disk_path(key)
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
        """Scalability curve (Warped-Slicer profiling, Figure 3a)."""
        key = self._curve_key(profile.name)
        if key in self._curve_cache:
            return self._curve_cache[key]
        max_tbs = profile.max_tbs_per_sm(self.config)
        points = [self.isolated(profile, tbs, self.settings.curve_cycles).ipc
                  for tbs in range(1, max_tbs + 1)]
        curve = ScalabilityCurve(profile.name, tuple(points))
        self._curve_cache[key] = curve
        return curve

    # ------------------------------------------------------------------
    # scheme resolution
    @staticmethod
    def _mechanism_suffix(name: str) -> Optional[str]:
        """The part of a lower-cased static scheme name that
        :meth:`_stack_for` parses — ``None`` for the families without
        a mechanism stack and for ``smk-p+w``, which builds its own.
        Raises ``ValueError`` for a name outside the grammar."""
        if name in ("spatial", "leftover", "even"):
            return None
        if name.startswith("ws"):
            return name[len("ws"):]
        if name.startswith("smk"):
            suffix = name[len("smk"):]
            if suffix in ("-p+w", "+w"):
                return None
            if suffix in ("-p", ""):
                return ""
            if suffix.startswith("-p+"):
                return "-" + suffix[len("-p+"):]
            raise ValueError(f"unknown SMK variant {name!r}")
        raise ValueError(f"unknown scheme {name!r}")

    @classmethod
    def check_scheme(cls, name: str) -> None:
        """Raise the ``ValueError`` :meth:`run_mix` raises for a name
        outside the scheme grammar, by parsing alone — the CLI calls
        this before it builds a runner or a job, so a typo is a usage
        error, not a simulated (and retried) cell fault.  What depends
        on the mix (an SMIL limit per kernel) still surfaces in the
        cell."""
        name = name.lower()
        if name.startswith("dws"):
            suffix = name[len("dws"):]
        else:
            suffix = cls._mechanism_suffix(name)
        if suffix is not None:
            cls._stack_for(suffix, ())

    def resolve_scheme(self, name: str, profiles: Sequence[KernelProfile]
                       ) -> Tuple[List[int], Optional[List[Set[int]]], SchemeConfig]:
        """Translate a scheme name into (tb_limits, sm_masks, stack)."""
        from repro.cke.leftover import leftover_partition
        from repro.cke.partition import even_partition
        from repro.cke.smk import drf_partition, smk_quotas
        from repro.cke.spatial import spatial_masks, spatial_tb_limits
        name = name.lower()
        suffix = self._mechanism_suffix(name)

        if name == "spatial":
            masks = spatial_masks(len(profiles), self.config)
            return spatial_tb_limits(profiles, self.config), masks, SchemeConfig()
        if name == "leftover":
            return list(leftover_partition(profiles, self.config)), None, SchemeConfig()
        if name == "even":
            return list(even_partition(profiles, self.config)), None, SchemeConfig()

        if name.startswith("ws"):
            curves = [self.curve(p) for p in profiles]
            partition = sweet_spot(profiles, curves, self.config)
            return list(partition), None, self._stack_for(suffix, profiles)
        partition = drf_partition(profiles, self.config)
        if suffix is None:  # smk-p+w
            ipcs = [self.isolated(p).ipc for p in profiles]
            stack = SchemeConfig(smk_quotas=smk_quotas(ipcs))
        else:
            stack = self._stack_for(suffix, profiles)
        return list(partition), None, stack

    @staticmethod
    def _stack_for(suffix: str, profiles: Sequence[KernelProfile]
                   ) -> SchemeConfig:
        """Parse the mechanism suffix after the TB-partition prefix,
        e.g. ``-qbmi+dmil`` or ``-smil:3,1``."""
        suffix = suffix.lstrip("-")
        if not suffix:
            return SchemeConfig()
        kwargs: Dict[str, object] = {}
        for token in suffix.split("+"):
            if token == "rbmi":
                kwargs["bmi"] = "rbmi"
            elif token == "qbmi":
                kwargs["bmi"] = "qbmi"
                kwargs["qbmi_init_req_per_minst"] = tuple(
                    p.reqs_per_minst for p in profiles)
            elif token == "dmil":
                kwargs["mil"] = "dmil"
            elif token == "gdmil":
                kwargs["mil"] = "gdmil"
            elif token == "ucp":
                kwargs["ucp"] = True
            elif token.startswith("byp:"):
                flags = tuple(part.strip() in ("1", "true")
                              for part in token[len("byp:"):].split(","))
                kwargs["l1d_bypass"] = flags
            elif token.startswith("smil:"):
                limits = tuple(
                    None if part in ("inf", "none") else int(part)
                    for part in token[len("smil:"):].split(","))
                kwargs["mil"] = "smil"
                kwargs["smil_limits"] = limits
            else:
                raise ValueError(f"unknown scheme token {token!r}")
        return SchemeConfig(**kwargs)

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
        if scheme.lower().startswith("dws"):
            if obs:
                raise ValueError(
                    "observability is not supported for dynamic "
                    "Warped-Slicer runs (profiling phases re-launch "
                    "the engine mid-run)")
            return self._run_dynamic_ws(mix, scheme, cycles)
        profiles = list(mix.profiles)
        tb_limits, masks, stack = self.resolve_scheme(scheme, profiles)
        return self._run(mix, scheme, tb_limits, masks, stack, cycles,
                         obs=obs)

    def _run_dynamic_ws(self, mix: WorkloadMix, scheme: str,
                        cycles: Optional[int]) -> WorkloadOutcome:
        """Dynamic Warped-Slicer: profile online, reconfigure, measure.

        Metrics are computed over the post-reconfiguration measurement
        window only (the paper reports steady-state numbers); the
        attached RunResult is cumulative over the whole run.
        """
        from repro.cke.dynamic_ws import DynamicWarpedSlicer
        profiles = list(mix.profiles)
        stack = self._stack_for(scheme[len("dws"):], profiles)
        slicer = DynamicWarpedSlicer(profiles, self.config, stack,
                                     seed=self.settings.seed)
        dyn = slicer.execute(cycles or self.settings.concurrent_cycles)
        iso = [self.isolated(p).ipc for p in profiles]
        shared = [dyn.window_ipc(slot) for slot in range(len(profiles))]
        norms = normalized_ipcs(shared, iso)
        return WorkloadOutcome(
            mix_name=mix.name,
            mix_class=mix.mix_class,
            scheme=scheme,
            partition=tuple(dyn.partition),
            iso_ipcs=iso,
            shared_ipcs=shared,
            norm_ipcs=norms,
            weighted_speedup=weighted_speedup(norms),
            antt=antt(norms),
            fairness=fairness(norms),
            result=dyn.result,
        )

    def _run(self, mix: WorkloadMix, scheme_label: str, tb_limits, masks,
             stack: SchemeConfig, cycles: Optional[int],
             obs=None) -> WorkloadOutcome:
        from repro.sim.engine import GPU, make_launches
        profiles = list(mix.profiles)
        launches = make_launches(profiles, tb_limits, self.config,
                                 sm_masks=masks, seed=self.settings.seed)
        gpu = GPU(self.config, launches, stack, obs=obs)
        result = gpu.run(cycles or self.settings.concurrent_cycles)
        iso = [self.isolated(p).ipc for p in profiles]
        # Spatial multitasking concentrates each kernel on a subset of
        # SMs; IPC totals are machine-wide either way, so normalisation
        # against whole-machine isolated IPC is consistent across
        # schemes (as in the paper).
        shared = [result.ipc(slot) for slot in range(len(profiles))]
        norms = normalized_ipcs(shared, iso)
        return WorkloadOutcome(
            mix_name=mix.name,
            mix_class=mix.mix_class,
            scheme=scheme_label,
            partition=tuple(tb_limits),
            iso_ipcs=iso,
            shared_ipcs=shared,
            norm_ipcs=norms,
            weighted_speedup=weighted_speedup(norms),
            antt=antt(norms),
            fairness=fairness(norms),
            result=result,
        )


def run_pair(a: str, b: str, scheme="ws",
             config: Optional[GPUConfig] = None,
             cycles: Optional[int] = None) -> WorkloadOutcome:
    """Convenience one-shot: run benchmarks ``a``+``b`` under a scheme.

    ``scheme`` may be a scheme name (see module docstring) or a
    :class:`SchemeConfig` (run with the Warped-Slicer partition, labelled
    ``ws:<describe>``).
    """
    runner = ExperimentRunner(config)
    mix = WorkloadMix((get_profile(a), get_profile(b)))
    if isinstance(scheme, SchemeConfig):
        return runner.run_mix_with_stack(mix, scheme, "ws", cycles)
    return runner.run_mix(mix, scheme, cycles=cycles)
