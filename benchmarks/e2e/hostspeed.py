"""Host-speed calibration.

The sandboxes this benchmark runs in share their cores with other
tenants: the same process takes 1.0x to 2.0x as long from one second to
the next, with no steal time reported, so raw wall times spread 15-30 %
between identical runs.  To compare two commits anyway, the driver pins
itself and every child to one CPU and, while a child runs, a thread here
wakes ~150 times a second on that CPU and times a fixed probe: an empty
loop (interpreter-bound) and a walk over a 32 MB heap (memory-bound).
Their mean times over the child's life, against the nominal ones, give
the child's *slowdown*, a weighted geometric mean of the two; every time
the benchmark reports is the measured time divided by it, i.e. seconds
at the nominal host speed.  Raw times and slowdowns are kept in the
results file.

``SPIN_WEIGHT`` was fitted once, on this repository's simulator (30 reps
each of a compute-bound cell, a memory-bound cell and a CLI campaign):
0.7 left the smallest per-rep spread on all three (3-4.5 %, from
10-23 % raw).  It is a property of the benchmark, not a knob: changing
it redefines every time metric.  The probe costs the child 3-5 % of its
CPU.
"""

import os
import random
import threading
import time

#: probe times on a quiet sandbox of the kind this was sized on; only a
#: scale, so that scaled seconds read like seconds there.
NOMINAL_SPIN_S = 0.14e-3
NOMINAL_WALK_S = 0.20e-3
SPIN_WEIGHT = 0.7
PERIOD_S = 0.005
WALK_STEPS = 500
SPIN_STEPS = 10_000
HEAP_ITEMS = 1 << 20


def pin_to_one_cpu():
    """Pin this process (children inherit) to the highest CPU it may
    use; returns the CPU, or None where affinity is not supported."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class Probe:
    """The fixed work whose duration tracks the host's speed."""

    def __init__(self):
        self.heap = [float(i) for i in range(HEAP_ITEMS)]
        rng = random.Random(0)
        self.walk = [rng.randrange(HEAP_ITEMS) for _ in range(1 << 16)]
        self.at = 0

    def __call__(self):
        """One probe: ``(spin seconds, walk seconds)``."""
        heap, at = self.heap, self.at
        self.at = (at + WALK_STEPS) % (len(self.walk) - WALK_STEPS)
        start = time.perf_counter()
        for _ in range(SPIN_STEPS):
            pass
        middle = time.perf_counter()
        total = 0.0
        for j in self.walk[at:at + WALK_STEPS]:
            total += heap[j]
        return middle - start, time.perf_counter() - middle


class Watch(threading.Thread):
    """Probes the host while child ``pid`` runs, and follows the child's
    peak resident set in ``/proc`` (``ru_maxrss`` will not do: after
    fork+exec it starts at the parent's size, probe heap included)."""

    def __init__(self, probe, pid):
        super().__init__(daemon=True)
        self.probe = probe
        self.status_path = f"/proc/{pid}/status"
        self.halt = threading.Event()
        self.probes = 0
        self.spin_s = self.walk_s = 0.0
        self.peak_rss_kb = 0

    def run(self):
        while True:     # at least one probe, however short the child
            spin_s, walk_s = self.probe()
            self.probes += 1
            self.spin_s += spin_s
            self.walk_s += walk_s
            try:
                with open(self.status_path) as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            self.peak_rss_kb = int(line.split()[1])
                            break
            except (OSError, ValueError):
                pass    # the child is gone, or this is not Linux
            if self.halt.wait(PERIOD_S):
                return

    def stop(self):
        """Returns ``(slowdown, peak RSS in MB or None)``."""
        self.halt.set()
        self.join()
        spin = self.spin_s / self.probes / NOMINAL_SPIN_S
        walk = self.walk_s / self.probes / NOMINAL_WALK_S
        slowdown = spin ** SPIN_WEIGHT * walk ** (1.0 - SPIN_WEIGHT)
        return slowdown, (self.peak_rss_kb / 1024.0 or None)
