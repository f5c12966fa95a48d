"""Unit tests for repro.config."""

import ast
import dataclasses
import pathlib

import pytest

import repro
from repro.config import MAXWELL_CONFIG, CacheConfig, GPUConfig, scaled_config


class TestCacheConfig:
    def test_table1_l1d_geometry(self):
        l1d = MAXWELL_CONFIG.l1d
        assert l1d.size_bytes == 24 * 1024
        assert l1d.line_size == 128
        assert l1d.assoc == 6
        assert l1d.num_lines == 192
        assert l1d.num_sets == 32
        assert l1d.mshrs == 128

    def test_table1_l2_geometry(self):
        l2 = MAXWELL_CONFIG.l2
        assert l2.size_bytes == 2048 * 1024
        assert l2.assoc == 16
        assert l2.num_sets == 1024

    def test_rejects_size_not_multiple_of_line(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, line_size=128, assoc=4,
                        mshrs=8, miss_queue=4)

    def test_rejects_lines_not_multiple_of_assoc(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=128 * 6, line_size=128, assoc=4,
                        mshrs=8, miss_queue=4)

    def test_rejects_nonpositive_resources(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1024, line_size=128, assoc=2,
                        mshrs=0, miss_queue=4)


class TestGPUConfig:
    def test_table1_top_level(self):
        cfg = MAXWELL_CONFIG
        assert cfg.num_sms == 16
        assert cfg.warp_size == 32
        assert cfg.schedulers_per_sm == 4
        assert cfg.max_threads_per_sm == 3072
        assert cfg.max_warps_per_sm == 96
        assert cfg.max_tbs_per_sm == 16
        assert cfg.dram_channels == 16

    def test_rejects_unknown_scheduler(self):
        with pytest.raises(ValueError):
            GPUConfig(scheduler_policy="fifo")

    def test_rejects_inconsistent_warp_thread_limits(self):
        with pytest.raises(ValueError):
            GPUConfig(max_warps_per_sm=8, max_threads_per_sm=3072)

    def test_replace_returns_modified_copy(self):
        cfg = MAXWELL_CONFIG.replace(num_sms=4)
        assert cfg.num_sms == 4
        assert MAXWELL_CONFIG.num_sms == 16

    def test_warps_per_scheduler(self):
        assert MAXWELL_CONFIG.warps_per_scheduler == 24


class TestScaledConfig:
    def test_defaults_are_consistent(self):
        cfg = scaled_config()
        assert cfg.num_sms == 2
        assert cfg.max_warps_per_sm * cfg.warp_size >= cfg.max_threads_per_sm
        assert cfg.l1d.num_sets > 0

    def test_l1d_capacity_knob(self):
        small = scaled_config(l1d_kb=12)
        big = scaled_config(l1d_kb=24)
        assert big.l1d.num_lines == 2 * small.l1d.num_lines

    def test_scheduler_policy_knob(self):
        assert scaled_config(scheduler_policy="lrr").scheduler_policy == "lrr"

    def test_bandwidth_scales_with_sms(self):
        two = scaled_config(num_sms=2)
        four = scaled_config(num_sms=4)
        assert four.dram_channels == 2 * two.dram_channels
        assert four.icnt_flits_per_cycle == 2 * two.icnt_flits_per_cycle

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            scaled_config().num_sms = 3


def test_every_field_is_read():
    """A config field describes the machine only if the simulator reads
    it: each ``GPUConfig`` and ``CacheConfig`` field is loaded as an
    attribute somewhere in the package outside ``config.py``."""
    package = pathlib.Path(repro.__file__).parent
    read = set()
    for path in package.rglob("*.py"):
        if path == package / "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load):
                read.add(node.attr)
    fields = {f.name for cls in (GPUConfig, CacheConfig)
              for f in dataclasses.fields(cls)}
    assert sorted(fields - read) == []
