"""Host self-time by layer: run a call under ``cProfile`` and bucket
every function's own time (``tottime``) by the source file it lives in.

The layers are the repository's modules.  A C built-in has no source
file, so its time goes to the layer of the Python function that called
it (``list.append`` inside ``sim/sm.py`` is ``sim.sm`` time), except the
serialisation / hashing / file built-ins, which are ``host.io`` whoever
calls them — that is the cost ``harness`` changes move.
"""

import cProfile
import os
import pstats
import re
import time

#: report order; every share is emitted, so the set is fixed.
LAYERS = ("workloads", "sim.sm", "sim.scheduler", "sim.lsu", "sim.engine",
          "core", "cke", "mem.l1d", "mem.pool", "mem.subsystem", "mem.dram",
          "obs", "harness", "host.io", "host.other")

#: path below ``src/repro/`` (file or package prefix) -> layer.
_REPRO_FILES = {
    "sim/sm.py": "sim.sm", "sim/warp.py": "sim.sm",
    "sim/scheduler.py": "sim.scheduler",
    "sim/lsu.py": "sim.lsu",
    "sim/engine.py": "sim.engine", "sim/wheel.py": "sim.engine",
    "sim/stats.py": "sim.engine", "sim/__init__.py": "sim.engine",
    "mem/cache.py": "mem.l1d", "mem/mshr.py": "mem.l1d",
    "mem/pool.py": "mem.pool",
    "mem/subsystem.py": "mem.subsystem",
    "mem/interconnect.py": "mem.subsystem",
    "mem/__init__.py": "mem.subsystem",
    "mem/dram.py": "mem.dram",
}
_REPRO_PACKAGES = {"workloads": "workloads", "core": "core", "cke": "cke",
                   "metrics": "cke", "obs": "obs"}

_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep
_IO_STDLIB = re.compile(r"[/\\](json[/\\]\w+|pickle|base64|hashlib|codecs"
                        r"|tempfile|shutil|genericpath|posixpath)\.py$")
_IO_BUILTIN = re.compile(r"_io\.|io\.open|posix\.|_pickle|_json|_hashlib"
                         r"|_sha\d|_md5|_blake2|binascii")


def layer_of(func) -> str:
    """Layer of one profile entry ``(filename, lineno, name)``; a
    built-in that is not I/O returns ``""`` (the caller decides)."""
    filename, _lineno, name = func
    if filename == "~":
        return "host.io" if _IO_BUILTIN.search(name) else ""
    at = filename.rfind(_REPRO_MARK)
    if at < 0:
        return "host.io" if _IO_STDLIB.search(filename) else "host.other"
    rel = filename[at + len(_REPRO_MARK):].replace(os.sep, "/")
    if rel in _REPRO_FILES:
        return _REPRO_FILES[rel]
    # harness, lint, config.py, __main__.py, __init__.py: the harness.
    return _REPRO_PACKAGES.get(rel.split("/", 1)[0], "harness")


def bucket(stats) -> dict:
    """``{layer: seconds}`` from a ``pstats`` table."""
    seconds = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        layer = layer_of(func)
        if layer:
            seconds[layer] += tottime
            continue
        # Non-I/O built-in: split its time over the callers' layers in
        # proportion to the time it spent under each.
        weights = {caller: row[2] for caller, row in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:
            seconds["host.other"] += tottime
            continue
        for caller, weight in weights.items():
            seconds[layer_of(caller) or "host.other"] += \
                tottime * weight / total
    return seconds


def profile_call(fn):
    """Run ``fn()`` under cProfile.  Returns ``(result, wall seconds,
    {layer: share of profiled self-time}, share of profiled time spent
    outside GPU.run)``."""
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall = time.perf_counter() - start
    stats = pstats.Stats(profiler).stats
    seconds = bucket(stats)
    total = sum(seconds.values())
    in_run = sum(row[3] for func, row in stats.items()
                 if func[2] == "run" and layer_of(func) == "sim.engine")
    shares = {layer: seconds[layer] / total for layer in LAYERS}
    return result, wall, shares, 1.0 - in_run / total
