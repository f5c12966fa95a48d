"""Unit tests for the process-wide counter registry's cells and
prefix snapshots (the ``trace_cache.*`` counters live on one)."""

from repro.obs.registry import Counter, CounterRegistry


class TestCells:
    def test_counter_accumulates(self):
        c = Counter("x")
        c.add()
        c.add(4)
        assert c.value == 5


class TestRegistry:
    def test_counter_handle_is_stable(self):
        reg = CounterRegistry()
        a = reg.counter("trace_cache.warp_hits")
        b = reg.counter("trace_cache.warp_hits")
        assert a is b
        a.add(3)
        assert reg.snapshot("trace_cache") == {"trace_cache.warp_hits": 3}

    def test_snapshot_prefix_filter(self):
        reg = CounterRegistry()
        reg.counter("sm0.issue").add()
        reg.counter("sm1.issue").add(5)
        reg.counter("sm10.issue").add(7)
        assert reg.snapshot("sm1") == {"sm1.issue": 5}
        assert reg.snapshot("sm1.issue") == {"sm1.issue": 5}
