"""REPRO-W001 fixture: the PR-4 DRAM-enqueue hazard, reintroduced.

Leap-visible mutations (``busy_until``/``_next_wake``/... assignments,
``enqueue*``/``_schedule`` queue pushes) with no ``wheel.post`` on any
call path must flag; the same mutations discharged locally, through a
caller, via a safe lowering (literal 0 / bare cycle parameter), or in
a constructor must not.
"""

NEVER = 1 << 62


class LeakyPort:
    """Every mutation here is invisible to the leap — the bug class."""

    def enqueue_idle(self, req):
        self.channel.enqueue_read(req)  # LINT-BAD: REPRO-W001

    def stretch_service(self, latency):
        self.busy_until += latency  # LINT-BAD: REPRO-W001

    def arm_timer(self, cycle, delay):
        self._next_wake = cycle + delay  # LINT-BAD: REPRO-W001


class PostedPort:
    """Identical mutations, each discharged one of the sanctioned ways."""

    def __init__(self, channel):
        self.channel = channel
        self._next_wake = NEVER  # LINT-OK: constructor, wheel not live yet

    def enqueue_posted(self, req, cycle):
        self.channel.enqueue_read(req)  # LINT-OK: posts below
        self.wheel.post(cycle + 1)

    def clear_service(self):
        self.busy_until = 0  # LINT-OK: zero lowering wakes earlier only

    def wake_at(self, cycle):
        self._next_wake = cycle  # LINT-OK: bare-parameter lowering

    def _push(self, req):
        self.channel.enqueue_write(req)  # LINT-OK: every caller posts

    def tick(self, req, cycle):
        self._push(req)
        self.wheel.post(cycle + 1)


class LeakyStallSleep:
    """Memory-stall sleep, done wrong: going to sleep *raises* the SM's
    horizon, and with no wheel entry the leap cannot see the wake."""

    def sleep_through_stall(self, cycle):
        self._sleep_until = cycle + self.horizon  # LINT-BAD: REPRO-W001


class PostedStallSleep:
    """The shipped shape: the raise posts its horizon, and the L1
    release hook only ever lowers to zero (wakes earlier)."""

    def sleep_through_stall(self, cycle):
        self._sleep_until = cycle + self.horizon  # LINT-OK: posts below
        self.wheel.post(self._sleep_until)

    def end_stall_sleep(self):
        self._sleep_until = 0  # LINT-OK: zero lowering
