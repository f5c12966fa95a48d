"""Run-artifact ledger: durable, self-describing JSON records of runs.

Every run/campaign can emit one versioned artifact per
``(workload, scheme)`` cell under an artifacts directory: config
fingerprint, git sha, scheme, workload pair, aggregate metrics,
stall-mix shares and (when the phase sampler was on) the full phase
records from :mod:`repro.obs.timeline`.  Artifacts are the durable
counterpart of the live campaign heartbeats — `repro compare` diffs two
artifact sets for CI regression gating and `repro dash` renders them
into a standalone HTML dashboard.

Deliberately stdlib-only and wall-clock-free (REPRO-D003): an artifact
of a deterministic run is itself deterministic, which is what lets CI
compare against a *committed* golden artifact byte-for-byte.  Writes
use the same atomic temp-file + ``os.replace`` and corrupt/stale-
tolerant read idiom as the harness disk caches.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
from dataclasses import asdict
from typing import Dict, List, Optional, Sequence, Tuple

#: bump when the artifact schema changes; loaders skip other versions.
ARTIFACT_VERSION = 1

#: index file written next to the per-cell artifacts.
INDEX_NAME = "ledger.json"


def config_fingerprint(config) -> str:
    """Stable short fingerprint of a (dataclass) GPU config."""
    payload = json.dumps(asdict(config), sort_keys=True)
    return hashlib.md5(payload.encode()).hexdigest()[:16]


#: the ``repro`` package directory: the checkout whose code ran.
PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def current_git_sha(root: Optional[str] = None) -> Optional[str]:
    """HEAD's sha of the checkout holding ``root`` (default: the one
    the ``repro`` package runs from, whatever the working directory),
    or None when git or the checkout is unavailable."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root or PACKAGE_DIR,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def artifact_from_outcome(outcome, config=None, settings=None,
                          git_sha: Optional[str] = None,
                          provenance: Optional[Dict[str, object]] = None
                          ) -> Dict[str, object]:
    """Build one artifact dict from a harness
    :class:`~repro.harness.runner.WorkloadOutcome`.

    ``provenance`` (resilient campaigns only) records how the cell was
    obtained — attempts, journal resume, absorbed faults.  It is only
    embedded when degradation actually happened, so a fault-free
    resilient campaign emits artifacts byte-identical to the plain
    executor's (and to committed goldens)."""
    result = outcome.result
    obs = result.obs
    slots = list(range(len(result.kernel_names)))
    metrics: Dict[str, object] = {
        "weighted_speedup": outcome.weighted_speedup,
        "antt": outcome.antt,
        "fairness": outcome.fairness,
        "iso_ipcs": list(outcome.iso_ipcs),
        "shared_ipcs": list(outcome.shared_ipcs),
        "norm_ipcs": list(outcome.norm_ipcs),
        "total_ipc": result.total_ipc(),
        "l1d_miss_rates": [result.l1d_miss_rate(slot) for slot in slots],
        "lsu_stall_pct": result.lsu_stall_pct(),
        "dram_row_hit_rate": result.dram_row_hit_rate,
    }
    stall_shares: Optional[Dict[str, float]] = None
    lsu_shares: Optional[Dict[str, float]] = None
    phases: List[Dict[str, object]] = []
    if obs is not None:
        stall_shares = obs.sched_stall_shares()
        table = obs.stall_table()
        total_lsu = sum(obs.lsu_stalls.values())
        lsu_shares = {reason: (count / total_lsu if total_lsu else 0.0)
                      for reason, count in table.lsu_by_reason().items()}
        phases = list(obs.phases)
    artifact: Dict[str, object] = {
        "artifact_version": ARTIFACT_VERSION,
        "kind": "run",
        "workload": outcome.mix_name,
        "mix_class": outcome.mix_class,
        "scheme": outcome.scheme,
        "partition": list(outcome.partition),
        "kernels": list(result.kernel_names),
        "cycles": result.cycles,
        "seed": getattr(settings, "seed", None),
        "config_fingerprint": (config_fingerprint(config)
                               if config is not None else None),
        "git_sha": git_sha,
        "metrics": metrics,
        "stall_shares": stall_shares,
        "lsu_stall_shares": lsu_shares,
        "phases": phases,
    }
    if provenance is not None:
        artifact["provenance"] = provenance
    return artifact


def artifact_slug(workload: str, scheme: str) -> str:
    """Filesystem-safe ``workload__scheme`` artifact file stem."""
    raw = f"{workload}__{scheme}"
    return "".join(ch if ch.isalnum() or ch in "-_." else "-" for ch in raw)


def _atomic_write_json(path: str, payload: object) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _read_json(path: str) -> Optional[object]:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def write_artifact(directory: str, artifact: Dict[str, object]) -> str:
    """Atomically write one artifact; returns its path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory,
        artifact_slug(artifact["workload"], artifact["scheme"]) + ".json")
    _atomic_write_json(path, artifact)
    return path


def write_artifacts(directory: str,
                    artifacts: Sequence[Dict[str, object]],
                    campaign: Optional[Dict[str, object]] = None
                    ) -> List[str]:
    """Write a set of artifacts plus the ``ledger.json`` index.

    ``campaign`` (resilient campaigns only) embeds a degradation block
    in the index — ``campaign.retries``, ``campaign.quarantined``,
    ``campaign.resumed`` and the journal name — so a ledger records
    not just what was measured but how bumpy the measuring was.  A
    fault-free plain campaign writes the index unchanged."""
    paths = [write_artifact(directory, artifact) for artifact in artifacts]
    entries = [{"workload": artifact["workload"],
                "scheme": artifact["scheme"],
                "file": os.path.basename(path)}
               for artifact, path in zip(artifacts, paths)]
    entries.sort(key=lambda entry: entry["file"])
    index: Dict[str, object] = {"artifact_version": ARTIFACT_VERSION,
                                "entries": entries}
    if campaign is not None:
        index["campaign"] = campaign
    _atomic_write_json(os.path.join(directory, INDEX_NAME), index)
    return paths


def load_artifact(path: str) -> Optional[Dict[str, object]]:
    """One artifact, or None when the file is corrupt, not an artifact,
    or written by a different schema version (stale-version tolerance
    mirrors the harness trace cache)."""
    record = _read_json(path)
    if not isinstance(record, dict):
        return None
    if record.get("artifact_version") != ARTIFACT_VERSION:
        return None
    if "workload" not in record or "scheme" not in record:
        return None
    return record


def load_artifacts(path: str) -> Dict[Tuple[str, str], Dict[str, object]]:
    """All valid artifacts under ``path`` keyed ``(workload, scheme)``.

    ``path`` may be an artifacts directory or a single artifact file.
    Corrupt and stale-version files are skipped, not fatal.
    """
    loaded: Dict[Tuple[str, str], Dict[str, object]] = {}
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            if not name.endswith(".json") or name == INDEX_NAME:
                continue
            artifact = load_artifact(os.path.join(path, name))
            if artifact is not None:
                loaded[(artifact["workload"], artifact["scheme"])] = artifact
    else:
        artifact = load_artifact(path)
        if artifact is not None:
            loaded[(artifact["workload"], artifact["scheme"])] = artifact
    return loaded
