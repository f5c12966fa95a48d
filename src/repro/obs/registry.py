"""The process-wide counters of the simulator's infrastructure.

Metrics that outlive any single run — the kernel-trace cache's
``trace_cache.*`` traffic (:mod:`repro.workloads.trace`) — live on one
:class:`CounterRegistry` per process under dotted names.  A hot path
holds a :class:`Counter` handle and bumps it without a dict lookup per
event; a reader takes a flat ``{name: value}`` view of one prefix.

What one simulated run observed is not here: that is the run's
:class:`~repro.obs.collector.ObsReport` (stall tables, phase records,
trace) and its ``RunResult.sleep``.
"""

from __future__ import annotations

from typing import Dict, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing metric cell."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Number = 0):
        self.name = name
        self.value = value

    def add(self, amount: Number = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class CounterRegistry:
    """Counters by dotted name."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = Counter(name)
            self._metrics[name] = metric
        return metric

    def snapshot(self, prefix: str) -> Dict[str, Number]:
        """Flat ``{dotted-name: value}`` view of the names under
        ``prefix``."""
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return {name: m.value for name, m in self._metrics.items()
                if name == prefix or name.startswith(dotted)}


#: per *process*: a campaign worker never hands its copy to the parent —
#: the readers (``repro run``, the benchmarks) simulate in-process.
_PROCESS_REGISTRY = CounterRegistry()


def process_registry() -> CounterRegistry:
    """The process-wide :class:`CounterRegistry` singleton."""
    return _PROCESS_REGISTRY
