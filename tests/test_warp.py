"""Unit tests for warps, thread blocks and in-flight memory
instructions (the MLP model)."""

import pytest

from repro.sim.engine import KernelLaunch
from repro.sim.warp import MemInst, ThreadBlock, Warp
from repro.workloads.address import StreamPattern
from repro.workloads.kernel import KernelProfile


def make_warp(mlp=2, iters=3, cinst=1):
    profile = KernelProfile(
        name="t", full_name="t", suite="u", kind="C",
        cinst_per_minst=cinst, reqs_per_minst=2, write_frac=0.0,
        threads_per_tb=32, regs_per_thread=8,
        pattern_factory=StreamPattern, iters_per_warp=iters,
    )
    tb = ThreadBlock(0, 0, profile)
    stream = KernelLaunch(0, profile, [1]).new_stream(0)
    warp = Warp(0, 0, tb, stream, age=0, mlp=mlp)
    tb.warps.append(warp)
    tb.live_warps = 1
    return warp


class TestWarpMLP:
    def test_issuable_until_mlp_reached(self):
        warp = make_warp(mlp=2)
        assert warp.issuable(0)
        warp.note_load_issued(0)
        assert warp.issuable(1)
        warp.note_load_issued(1)
        assert not warp.issuable(2), "at MLP limit the warp stalls"

    def test_load_completion_unblocks(self):
        warp = make_warp(mlp=1)
        warp.note_load_issued(0)
        assert not warp.issuable(5)
        warp.note_load_done(5)
        assert warp.issuable(6)
        assert warp.ready_at == 6

    def test_underflow_detected(self):
        warp = make_warp()
        with pytest.raises(RuntimeError):
            warp.note_load_done(0)

    def test_retired_requires_drained_stream_and_loads(self):
        warp = make_warp(iters=1, cinst=0)
        warp.note_load_issued(0)
        warp.stream.pop()  # the single load
        assert warp.stream.done
        assert not warp.retired
        warp.note_load_done(3)
        assert warp.retired

    def test_rejects_zero_mlp(self):
        with pytest.raises(ValueError):
            make_warp(mlp=0)


class TestMemInst:
    def test_completion_after_expansion_and_fills(self):
        warp = make_warp()
        done = []
        inst = MemInst(warp, (1, 2), is_store=False,
                       on_complete=lambda i, c: done.append(c))
        inst.note_request_sent(waits_for_data=True)
        inst.note_request_sent(waits_for_data=True)
        assert inst.fully_expanded
        inst.request_done(5)
        assert not done
        inst.request_done(9)
        assert done == [9]

    def test_all_hits_completes_immediately(self):
        warp = make_warp()
        done = []
        inst = MemInst(warp, (1,), False, lambda i, c: done.append(c))
        inst.note_request_sent(waits_for_data=False)
        inst.maybe_complete(3)
        assert done == [3]

    def test_completion_fires_once(self):
        warp = make_warp()
        done = []
        inst = MemInst(warp, (1,), False, lambda i, c: done.append(c))
        inst.note_request_sent(waits_for_data=False)
        inst.maybe_complete(3)
        inst.maybe_complete(4)
        assert done == [3]

    def test_overcompletion_detected(self):
        warp = make_warp()
        inst = MemInst(warp, (1,), False, lambda i, c: None)
        inst.note_request_sent(waits_for_data=False)
        inst.maybe_complete(0)
        with pytest.raises(RuntimeError):
            inst.request_done(1)


class TestThreadBlock:
    def test_done_when_all_warps_finish(self):
        warp = make_warp()
        tb = warp.tb
        assert not tb.done
        tb.note_warp_done()
        assert tb.done

    def test_overcompletion_detected(self):
        warp = make_warp()
        tb = warp.tb
        tb.note_warp_done()
        with pytest.raises(RuntimeError):
            tb.note_warp_done()
