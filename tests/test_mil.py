"""Unit tests for MIL (MILG / SMIL / DMIL, paper §3.3)."""

import pytest

from repro.core.mil import MAX_LIMIT, MILG, DynamicLimiter, NoLimit, StaticLimiter


class TestMILG:
    def test_rejects_non_power_of_two_window(self):
        with pytest.raises(ValueError):
            MILG(window=100)

    def test_unlimited_before_first_window(self):
        milg = MILG(window=16)
        assert milg.limit is None

    def test_paper_formula(self):
        """limit = max(peak_inflight - (rsfails >> log2(window)), 1)."""
        milg = MILG(window=16)  # shift = 4
        milg.observe_inflight(10)
        for _ in range(48):  # 48 >> 4 == 3 failures-per-request
            milg.note_rsfail()
        for _ in range(16):
            milg.note_request(current_inflight=5)
        assert milg.limit == 10 - 3
        assert milg.windows_completed == 1

    def test_batched_rsfails_equal_per_cycle_reports(self):
        """The LSU reports a whole stretch of replayed failures in one
        call: the count is additive, so the window outcome is the same
        however the stretch is sliced."""
        one_by_one, batched = MILG(window=16), MILG(window=16)
        for milg in (one_by_one, batched):
            milg.observe_inflight(10)
        for _ in range(48):
            one_by_one.note_rsfail()
        batched.note_rsfail(40)
        batched.note_rsfail(8)
        for milg in (one_by_one, batched):
            for _ in range(16):
                milg.note_request(current_inflight=5)
        assert batched.limit == one_by_one.limit == 7

    def test_floor_at_one(self):
        milg = MILG(window=16)
        milg.observe_inflight(2)
        for _ in range(1000):
            milg.note_rsfail()
        for _ in range(16):
            milg.note_request(0)
        assert milg.limit == 1

    def test_counters_reset_between_windows(self):
        milg = MILG(window=16)
        milg.observe_inflight(8)
        for _ in range(32):
            milg.note_rsfail()
        for _ in range(16):
            milg.note_request(3)
        first = milg.limit
        # quiet window: no failures
        for _ in range(16):
            milg.note_request(3)
        assert milg.limit == first + 1, "stall-free window probes upward"

    def test_recovery_bounded_by_counter_width(self):
        milg = MILG(window=16)
        milg.observe_inflight(4)
        for _ in range(16):
            milg.note_rsfail()
        for _ in range(16):
            milg.note_request(1)
        for _ in range(4000):
            milg.note_request(1)
        assert milg.limit <= MAX_LIMIT

    def test_peak_reseeds_from_current_inflight(self):
        milg = MILG(window=16)
        milg.observe_inflight(12)
        for _ in range(16):
            milg.note_rsfail()
        for _ in range(15):
            milg.note_request(0)
        milg.note_request(current_inflight=7)
        assert milg._peak_inflight == 7

    def test_hardware_cost_matches_paper(self):
        cost = MILG.hardware_cost()
        assert cost["inflight_counter_bits"] == 7
        assert cost["rsfail_counter_bits"] == 12
        assert cost["request_counter_bits"] == 10
        assert cost["shifter_bits"] == 0


class TestStaticLimiter:
    def test_cap_enforced(self):
        smil = StaticLimiter([3, None])
        assert smil.can_issue(0, inflight=2)
        assert not smil.can_issue(0, inflight=3)
        assert smil.can_issue(1, inflight=1000)

    def test_limits_accessor(self):
        assert StaticLimiter([2, None]).limits() == [2, None]

    def test_rejects_zero_limit(self):
        with pytest.raises(ValueError):
            StaticLimiter([0])


class TestDynamicLimiter:
    def test_per_kernel_independence(self):
        dmil = DynamicLimiter(2, window=16)
        dmil.observe_inflight(0, 10)
        for _ in range(64):
            dmil.note_rsfail(0)
        for _ in range(16):
            dmil.note_request(0, 4)
        assert dmil.limits()[0] is not None
        assert dmil.limits()[1] is None, "kernel 1 untouched"

    def test_can_issue_respects_learned_limit(self):
        dmil = DynamicLimiter(1, window=16)
        dmil.observe_inflight(0, 4)
        for _ in range(64):  # 4 fails per request
            dmil.note_rsfail(0)
        for _ in range(16):
            dmil.note_request(0, 1)
        limit = dmil.limits()[0]
        assert limit == 1
        assert dmil.can_issue(0, inflight=0)
        assert not dmil.can_issue(0, inflight=limit)


class TestNoLimit:
    def test_always_allows(self):
        nolimit = NoLimit(2)
        assert nolimit.can_issue(0, 10 ** 6)
        assert nolimit.limits() == [None, None]
