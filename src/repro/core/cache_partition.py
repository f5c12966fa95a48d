"""UCP-style L1D way partitioning (paper §3.1 — the negative result).

The paper evaluates Utility-based Cache Partitioning (Qureshi & Patt,
MICRO'06) applied to the per-SM L1D between co-running kernels, and
shows it does *not* reduce memory pipeline stalls: a kernel squeezed
into fewer ways takes more reservation failures (a cache slot must be
allocated for every outstanding miss), and those stalls block the
in-order LSU for everyone.

Implementation follows UCP: each kernel has a shadow tag array (ATD)
with true-LRU stack-distance hit counters; every ``interval`` cycles a
lookahead-greedy algorithm reassigns ways by marginal utility and the
main tag store's victim selection enforces the allocation
(:attr:`repro.mem.cache.SetAssocCache.partition`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.config import CacheConfig
from repro.mem.cache import SetAssocCache, set_indexer


class ShadowTagArray:
    """Auxiliary tag directory for one kernel: true LRU, counting hits
    by stack position (way 0 = MRU)."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        # Each set is an MRU-ordered list of tags.
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.way_hits = [0] * self.assoc
        self.misses = 0
        self._set_index = set_indexer(config)

    def access(self, line_addr: int) -> None:
        stack = self._sets[self._set_index(line_addr)]
        try:
            pos = stack.index(line_addr)
        except ValueError:
            self.misses += 1
            stack.insert(0, line_addr)
            if len(stack) > self.assoc:
                stack.pop()
            return
        self.way_hits[pos] += 1
        del stack[pos]
        stack.insert(0, line_addr)

    def utility(self, ways: int) -> int:
        """Hits this kernel would capture with ``ways`` ways."""
        return sum(self.way_hits[:ways])

    def decay(self, factor: int = 2) -> None:
        self.way_hits = [h // factor for h in self.way_hits]
        self.misses //= factor


def lookahead_partition(utilities: Sequence[Sequence[int]], total_ways: int,
                        min_ways: int = 1) -> List[int]:
    """UCP's lookahead allocation (Qureshi & Patt, Algorithm 2).

    ``utilities[k][w-1]`` is the hit count kernel ``k`` achieves with
    ``w`` ways.  Every kernel gets at least ``min_ways`` (a kernel must
    be able to allocate lines for outstanding misses).  Remaining ways
    go, step by step, to the kernel with the highest *maximum marginal
    utility per way* over any number of additional ways — the
    "lookahead" that handles utility curves with plateaus (hits
    concentrated at deep stack positions).
    """
    num_kernels = len(utilities)
    if num_kernels * min_ways > total_ways:
        raise ValueError("not enough ways for the minimum allocation")
    alloc = [min_ways] * num_kernels
    remaining = total_ways - num_kernels * min_ways

    def utility(k: int, w: int) -> int:
        if w <= 0:
            return 0
        curve = utilities[k]
        return curve[min(w, len(curve)) - 1]

    def best_step(k: int, budget: int):
        """(max marginal utility per way, ways to take) for kernel k."""
        here = utility(k, alloc[k])
        best_mu, best_ways = -1.0, 0
        for extra in range(1, budget + 1):
            gain = utility(k, alloc[k] + extra) - here
            mu = gain / extra
            if mu > best_mu:
                best_mu, best_ways = mu, extra
        return best_mu, best_ways

    while remaining > 0:
        # Ties go to the kernel holding fewer ways so equal-utility
        # kernels split the cache evenly.
        choices = [(best_step(k, remaining), -alloc[k], k)
                   for k in range(num_kernels)]
        (mu, ways), _, winner = max(choices)
        if ways <= 0 or mu <= 0:
            # No kernel benefits: hand out the rest evenly.
            winner = min(range(num_kernels), key=lambda k: alloc[k])
            ways = 1
        alloc[winner] += ways
        remaining -= ways
    return alloc


class UCPController:
    """Per-SM UCP: shadow tags per kernel + periodic repartitioning."""

    def __init__(self, num_kernels: int, l1_tags: SetAssocCache,
                 interval: int = 5000):
        if num_kernels < 2:
            raise ValueError("partitioning needs at least two kernels")
        self.num_kernels = num_kernels
        self.l1_tags = l1_tags
        self.interval = interval
        self.shadow = [ShadowTagArray(l1_tags.config) for _ in range(num_kernels)]
        self._next_repartition = interval
        self.partitions_applied = 0

    def observe(self, kernel: int, line_addr: int) -> None:
        """Feed every L1D read access into the kernel's ATD."""
        self.shadow[kernel].access(line_addr)

    def tick(self, cycle: int) -> None:
        if cycle < self._next_repartition:
            return
        self._next_repartition = cycle + self.interval
        utilities = [
            [atd.utility(w + 1) for w in range(atd.assoc)] for atd in self.shadow
        ]
        alloc = lookahead_partition(utilities, self.l1_tags.assoc)
        self.l1_tags.partition = {k: ways for k, ways in enumerate(alloc)}
        self.partitions_applied += 1
        for atd in self.shadow:
            atd.decay()

    def current_partition(self) -> Dict[int, int]:
        return dict(self.l1_tags.partition or {})
