"""Unit and property tests for repro.workloads.kernel: profiles, and
the stream a launch hands each warp."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import scaled_config
from repro.sim.engine import KernelLaunch
from repro.workloads.address import StreamPattern
from repro.workloads.kernel import (
    OP_ALU,
    OP_LOAD,
    OP_SFU,
    OP_STORE,
    KernelProfile,
)


def make_profile(**overrides):
    defaults = dict(
        name="t", full_name="test", suite="unit", kind="C",
        cinst_per_minst=4, reqs_per_minst=2, sfu_frac=0.0, write_frac=0.0,
        threads_per_tb=64, regs_per_thread=16, smem_per_tb=0,
        pattern_factory=StreamPattern, iters_per_warp=5,
    )
    defaults.update(overrides)
    return KernelProfile(**defaults)


def make_stream(profile, warp_index=0, seed=1):
    """The ReplayStream the SM would run for this warp."""
    return KernelLaunch(0, profile, [1], seed=seed).new_stream(warp_index)


class TestKernelProfile:
    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            make_profile(kind="X")

    def test_rejects_missing_pattern(self):
        with pytest.raises(ValueError):
            make_profile(pattern_factory=None)

    def test_warps_per_tb_rounds_up(self):
        assert make_profile(threads_per_tb=96).warps_per_tb(32) == 3
        assert make_profile(threads_per_tb=100).warps_per_tb(32) == 4

    def test_max_tbs_limited_by_threads(self):
        cfg = scaled_config()
        profile = make_profile(threads_per_tb=256, regs_per_thread=1)
        assert profile.max_tbs_per_sm(cfg) == cfg.max_threads_per_sm // 256

    def test_max_tbs_limited_by_registers(self):
        cfg = scaled_config()
        profile = make_profile(threads_per_tb=32, regs_per_thread=256)
        expected = cfg.registers_per_sm // (32 * 256)
        assert profile.max_tbs_per_sm(cfg) == expected

    def test_max_tbs_limited_by_smem(self):
        cfg = scaled_config()
        profile = make_profile(smem_per_tb=cfg.smem_per_sm // 2)
        assert profile.max_tbs_per_sm(cfg) == 2

    def test_occupancy_fractions(self):
        cfg = scaled_config()
        profile = make_profile(threads_per_tb=64, regs_per_thread=16)
        occ = profile.occupancy(cfg, tbs=4)
        assert occ["threads"] == pytest.approx(256 / cfg.max_threads_per_sm)
        assert occ["rf"] == pytest.approx(4 * 64 * 16 / cfg.registers_per_sm)
        assert occ["tbs"] == pytest.approx(4 / cfg.max_tbs_per_sm)


class TestInstructionStream:
    def test_group_structure(self):
        profile = make_profile(cinst_per_minst=3, iters_per_warp=2)
        stream = make_stream(profile)
        ops = []
        while not stream.done:
            ops.append(stream.pop())
        assert ops == [OP_ALU] * 3 + [OP_LOAD] + [OP_ALU] * 3 + [OP_LOAD]

    def test_store_fraction_all_writes(self):
        profile = make_profile(write_frac=1.0, cinst_per_minst=0, iters_per_warp=4)
        stream = make_stream(profile)
        ops = [stream.pop() for _ in range(4)]
        assert ops == [OP_STORE] * 4

    def test_memory_descriptor_matches_req_per_minst(self):
        profile = make_profile(reqs_per_minst=5, cinst_per_minst=0, iters_per_warp=1)
        stream = make_stream(profile)
        assert stream.next_op is OP_LOAD
        assert len(stream.pop_mem()) == 5
        assert stream.done

    def test_exhausted_stream_raises(self):
        profile = make_profile(iters_per_warp=1, cinst_per_minst=0)
        stream = make_stream(profile)
        stream.pop()
        assert stream.done
        with pytest.raises(RuntimeError):
            stream.pop()

    def test_deterministic_for_same_seed(self):
        profile = make_profile(sfu_frac=0.5, write_frac=0.3, iters_per_warp=20)
        ops_a, ops_b = [], []
        for ops in (ops_a, ops_b):
            stream = make_stream(profile, warp_index=7, seed=42)
            while not stream.done:
                ops.append(stream.pop())
        assert ops_a == ops_b


@settings(max_examples=40, deadline=None)
@given(cinst=st.integers(0, 10), iters=st.integers(1, 30), seed=st.integers(0, 99))
def test_stream_length_is_exact(cinst, iters, seed):
    """Total instructions = iters * (cinst + 1) regardless of randomness."""
    profile = make_profile(cinst_per_minst=cinst, iters_per_warp=iters,
                           sfu_frac=0.3, write_frac=0.2)
    stream = make_stream(profile, seed=seed)
    count = 0
    while not stream.done:
        stream.pop()
        count += 1
    assert count == iters * (cinst + 1)


@settings(max_examples=40, deadline=None)
@given(cinst=st.integers(1, 10), seed=st.integers(0, 99))
def test_compute_to_memory_ratio_is_exact(cinst, seed):
    profile = make_profile(cinst_per_minst=cinst, iters_per_warp=25,
                           sfu_frac=0.4, write_frac=0.5)
    stream = make_stream(profile, seed=seed)
    compute = memory = 0
    while not stream.done:
        op = stream.pop()
        if op in (OP_ALU, OP_SFU):
            compute += 1
        else:
            memory += 1
    assert memory == 25
    assert compute == 25 * cinst
