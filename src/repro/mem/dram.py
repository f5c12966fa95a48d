"""DRAM channel model with FR-FCFS-style row-buffer scheduling.

Each channel keeps an open-row register and a bounded request queue.
The scheduler approximates FR-FCFS (First-Ready, First-Come-First-
Served, Table 1) by searching a small window at the queue head for a
request that hits the open row before falling back to the oldest
request.  Service occupies the channel for ``row_hit_cycles`` or
``row_miss_cycles``; read data becomes available ``dram_latency``
cycles after service completes (the fixed access-latency component).

Completions are reported through a callback so the memory subsystem
can schedule L2 fills on its event heap.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.config import GPUConfig

#: FR-FCFS reorder window (entries scanned for a row hit).
FRFCFS_WINDOW = 8


class DRAMChannel:
    """One memory channel: bounded queue + open-row state."""

    def __init__(self, config: GPUConfig, capacity: int = 64):
        self.config = config
        self.capacity = capacity
        self.queue: Deque[Tuple[int, bool, object]] = deque()  # (row, is_write, payload)
        self.busy_until = 0
        self.open_row: Optional[int] = None
        self.serviced = 0
        self.row_hits = 0

    @property
    def full(self) -> bool:
        return len(self.queue) >= self.capacity

    def enqueue(self, row: int, is_write: bool, payload: object) -> None:
        if self.full:
            raise RuntimeError("DRAM channel queue full")
        self.queue.append((row, is_write, payload))

    def _select(self) -> int:
        """Index of the next request to service (FR-FCFS window)."""
        for idx, (row, _, _) in enumerate(self.queue):
            if idx >= FRFCFS_WINDOW:
                break
            if row == self.open_row:
                return idx
        return 0

    def tick(self, cycle: int, on_read_done: Callable[[object, int], None]) -> None:
        cfg = self.config
        while self.queue and self.busy_until <= cycle:
            idx = self._select()
            row, is_write, payload = self.queue[idx]
            del self.queue[idx]
            if row == self.open_row:
                service = cfg.dram_row_hit_cycles
                self.row_hits += 1
            else:
                service = cfg.dram_row_miss_cycles
                self.open_row = row
            start = max(self.busy_until, cycle)
            self.busy_until = start + service
            self.serviced += 1
            if not is_write:
                on_read_done(payload, self.busy_until + cfg.dram_latency)


class DRAMModel:
    """All channels; line addresses are interleaved across channels."""

    def __init__(self, config: GPUConfig, queue_capacity: int = 64):
        self.config = config
        self.channels: List[DRAMChannel] = [
            DRAMChannel(config, queue_capacity)
            for _ in range(config.dram_channels)
        ]
        self.dropped_writes = 0
        #: total queued requests across channels (idle fast-path check).
        self.queued = 0

    def channel_for(self, line_addr: int) -> DRAMChannel:
        # Interleave channels at DRAM-row granularity so sequential
        # (streaming) lines enjoy row-buffer locality within a channel.
        return self.channels[self.row_of(line_addr) % len(self.channels)]

    def row_of(self, line_addr: int) -> int:
        return line_addr // self.config.dram_row_lines

    def can_accept(self, line_addr: int) -> bool:
        return not self.channel_for(line_addr).full

    def enqueue_read(self, line_addr: int, payload: object) -> None:
        self.channel_for(line_addr).enqueue(self.row_of(line_addr), False, payload)
        self.queued += 1

    def enqueue_write(self, line_addr: int) -> bool:
        """Best-effort write (write-through / writeback traffic).  A
        full queue drops the write and records it — writes carry no
        dependence in this model, only bandwidth."""
        channel = self.channel_for(line_addr)
        if channel.full:
            self.dropped_writes += 1
            return False
        channel.enqueue(self.row_of(line_addr), True, None)
        self.queued += 1
        return True

    def tick(self, cycle: int, on_read_done: Callable[[object, int], None]) -> None:
        if not self.queued:
            return
        for channel in self.channels:
            queue = channel.queue
            if not queue:
                continue
            before = len(queue)
            channel.tick(cycle, on_read_done)
            self.queued -= before - len(queue)

    def total_serviced(self) -> int:
        return sum(c.serviced for c in self.channels)

    def row_hit_rate(self) -> float:
        serviced = self.total_serviced()
        if not serviced:
            return 0.0
        return sum(c.row_hits for c in self.channels) / serviced

