"""Satellite regression tests for the stats layer: the cycles==0 IPC
guard."""

from repro.sim.stats import KernelStats, RunResult


class TestTotalIpcGuard:
    def test_zero_cycles_returns_zero(self):
        result = RunResult(cycles=0, kernel_names=["bp"],
                           kernels={0: KernelStats()})
        assert result.total_ipc() == 0.0
        assert result.ipc(0) == 0.0
        assert result.lsu_stall_pct() == 0.0

    def test_normal_division(self):
        stats = KernelStats()
        stats.warp_insts = 500
        result = RunResult(cycles=1000, kernel_names=["bp"],
                           kernels={0: stats})
        assert result.total_ipc() == 0.5
