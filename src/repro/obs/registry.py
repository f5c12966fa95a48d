"""Hierarchical counter/gauge registry with dotted metric names.

Components (SM, scheduler, LSU, L1D, MSHR file, interconnect, L2, DRAM
channel) register metrics under dotted names —
``sm0.sched2.issue.mil_capped``, ``l2.misses.k1``, ``dram.serviced`` —
and the registry supports:

* **live handles**: :meth:`CounterRegistry.counter` /
  :meth:`CounterRegistry.gauge` return tiny mutable cells a hot path
  can bump without a dict lookup per event;
* **scopes**: :meth:`CounterRegistry.scoped` prefixes a component's
  names so the component itself stays ignorant of where it lives;
* **snapshots**: a flat ``{name: value}`` dict taken at any point
  mid-run (pull-based stats can be folded in by the caller);
* **merging**: snapshots from parallel campaign workers combine with
  :meth:`CounterRegistry.merge_snapshot` (counters add, gauges take
  the latest value);
* **queries**: :meth:`CounterRegistry.total` aggregates over an
  ``fnmatch`` pattern (``sm*.sched*.issue.mil_capped``) and
  :meth:`CounterRegistry.tree` nests the flat names by dot for
  hierarchical display.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Dict, Iterable, Optional, Tuple, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing metric cell."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str, value: Number = 0):
        self.name = name
        self.value = value

    def add(self, amount: Number = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time metric cell (last write wins)."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str, value: Number = 0):
        self.name = name
        self.value = value

    def set(self, value: Number) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value}>"


class Scope:
    """A name-prefixing view of a registry for one component."""

    __slots__ = ("_registry", "prefix")

    def __init__(self, registry: "CounterRegistry", prefix: str):
        self._registry = registry
        self.prefix = prefix

    def counter(self, name: str) -> Counter:
        return self._registry.counter(f"{self.prefix}.{name}")

    def gauge(self, name: str) -> Gauge:
        return self._registry.gauge(f"{self.prefix}.{name}")

    def scoped(self, suffix: str) -> "Scope":
        return Scope(self._registry, f"{self.prefix}.{suffix}")


class CounterRegistry:
    """The flat store behind the dotted-name hierarchy."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Union[Counter, Gauge]] = {}

    # ------------------------------------------------------------------
    # registration
    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = Counter(name)
            self._metrics[name] = metric
        elif not isinstance(metric, Counter):
            raise TypeError(f"{name!r} is registered as a {metric.kind}")
        return metric

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = Gauge(name)
            self._metrics[name] = metric
        elif not isinstance(metric, Gauge):
            raise TypeError(f"{name!r} is registered as a {metric.kind}")
        return metric

    def scoped(self, prefix: str) -> Scope:
        """A view that prefixes every name with ``prefix.``."""
        return Scope(self, prefix)

    def bump(self, name: str, amount: Number = 1) -> None:
        """One-shot counter increment (cold paths; hot paths should
        hold a :class:`Counter` handle instead)."""
        self.counter(name).add(amount)

    def set(self, name: str, value: Number) -> None:
        """One-shot gauge write."""
        self.gauge(name).set(value)

    # ------------------------------------------------------------------
    # snapshots
    def snapshot(self, prefix: Optional[str] = None) -> Dict[str, Number]:
        """Flat ``{dotted-name: value}`` view, optionally filtered to
        names under ``prefix``."""
        if prefix is None:
            return {name: m.value for name, m in self._metrics.items()}
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return {name: m.value for name, m in self._metrics.items()
                if name == prefix or name.startswith(dotted)}

    def merge_snapshot(self, snapshot: Dict[str, Number],
                       gauges: Iterable[str] = ()) -> None:
        """Fold another run's/worker's snapshot into this registry.

        Names listed in ``gauges`` (or already registered as gauges
        here) overwrite; everything else accumulates — the right
        semantics for combining per-worker campaign registries.
        """
        gauge_names = set(gauges)
        for name, value in snapshot.items():
            existing = self._metrics.get(name)
            if name in gauge_names or isinstance(existing, Gauge):
                self.gauge(name).set(value)
            else:
                self.counter(name).add(value)

    @staticmethod
    def merged(snapshots: Iterable[Dict[str, Number]],
               gauges: Iterable[str] = ()) -> Dict[str, Number]:
        """Combine snapshots from parallel workers into one flat dict."""
        registry = CounterRegistry()
        for snap in snapshots:
            registry.merge_snapshot(snap, gauges=gauges)
        return registry.snapshot()

    # ------------------------------------------------------------------
    # queries
    def total(self, pattern: str) -> Number:
        """Sum of every metric whose dotted name matches the ``fnmatch``
        pattern, e.g. ``sm*.sched*.issue.mil_capped``."""
        return sum(m.value for name, m in self._metrics.items()
                   if fnmatchcase(name, pattern))

    def matching(self, pattern: str) -> Dict[str, Number]:
        """Flat view of metrics matching the ``fnmatch`` pattern."""
        return {name: m.value for name, m in self._metrics.items()
                if fnmatchcase(name, pattern)}

    def tree(self) -> Dict[str, object]:
        """The dotted names nested into a dict hierarchy, leaves being
        values: ``{"sm0": {"sched2": {"issue": {"mil_capped": 7}}}}``."""
        return snapshot_tree(self.snapshot())

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics


def snapshot_tree(snapshot: Dict[str, Number]) -> Dict[str, object]:
    """Nest a flat dotted-name snapshot into a dict hierarchy.

    A name that is both a leaf and an interior node keeps its leaf
    value under the ``""`` key of the interior dict.
    """
    root: Dict[str, object] = {}
    for name, value in sorted(snapshot.items()):
        parts = name.split(".")
        node = root
        for part in parts[:-1]:
            child = node.get(part)
            if not isinstance(child, dict):
                child = {} if child is None else {"": child}
                node[part] = child
            node = child
        leaf = parts[-1]
        existing = node.get(leaf)
        if isinstance(existing, dict):
            existing[""] = value
        else:
            node[leaf] = value
    return root


def aggregate(snapshot: Dict[str, Number], pattern: str) -> Number:
    """:meth:`CounterRegistry.total` over an already-taken snapshot."""
    return sum(v for name, v in snapshot.items()
               if fnmatchcase(name, pattern))


#: process-wide registry for infrastructure metrics that outlive any
#: single run or Observability instance (e.g. ``trace_cache.*`` from
#: :mod:`repro.workloads.trace`).  Per-run simulator metrics belong on
#: the per-``Observability`` registries instead.  It is per *process*:
#: a campaign worker never hands its copy to the parent — the only
#: reader is ``repro run``, which simulates in-process.
_PROCESS_REGISTRY = CounterRegistry()


def process_registry() -> CounterRegistry:
    """The process-wide :class:`CounterRegistry` singleton."""
    return _PROCESS_REGISTRY
