"""SM↔L2 crossbar interconnect model.

Table 1's machine uses a 16x16 crossbar with 32-byte flits clocked at
core frequency.  We model the two directions (request: SM→L2,
response: L2→SM) as independent token-bucket bandwidth pools plus a
fixed traversal latency; transfers are delivered through a time-ordered
event heap owned by the caller.

A read request costs one flit; anything carrying a 128B line (a
response fill or a write-through) costs ``line_size/flit_size`` flits.
"""

from __future__ import annotations

from repro.config import GPUConfig

FLIT_BYTES = 32


class Interconnect:
    """Dual token-bucket bandwidth model with fixed latency."""

    def __init__(self, config: GPUConfig):
        self.latency = config.icnt_latency
        rate = float(config.icnt_flits_per_cycle)
        # Allow short bursts: a full line transfer can be buffered even
        # when the per-cycle rate is below the line cost.
        burst_cap = max(rate * 4, self.line_flits(config) * 2.0)
        # Integral rates (every committed config) run the buckets on
        # ints: int arithmetic is faster than float on the hot path and
        # bit-identical here, since floats represent these small
        # integers exactly (all values stay far below 2**53).
        if rate.is_integer() and burst_cap.is_integer():
            rate = int(rate)
            burst_cap = int(burst_cap)
        self.rate = rate
        self.burst_cap = burst_cap
        self._req_tokens = self.burst_cap
        self._rsp_tokens = self.burst_cap
        self.req_flits_sent = 0
        self.rsp_flits_sent = 0

    @staticmethod
    def line_flits(config: GPUConfig) -> int:
        return max(1, config.l1d.line_size // FLIT_BYTES)

    def begin_cycle(self) -> None:
        """Refill both token buckets for one elapsed cycle (capped)."""
        rate = self.rate
        cap = self.burst_cap
        req = self._req_tokens + rate
        rsp = self._rsp_tokens + rate
        self._req_tokens = cap if req > cap else req
        self._rsp_tokens = cap if rsp > cap else rsp

    def try_send_request(self, flits: int) -> bool:
        if self._req_tokens < flits:
            return False
        self._req_tokens -= flits
        self.req_flits_sent += flits
        return True

    def try_send_response(self, flits: int) -> bool:
        if self._rsp_tokens < flits:
            return False
        self._rsp_tokens -= flits
        self.rsp_flits_sent += flits
        return True
