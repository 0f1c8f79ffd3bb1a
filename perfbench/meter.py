"""Operation timing corrected for the machine's speed.

The machine this benchmark was written on shares its cores with other
tenants, and its speed drifts in phases of seconds to minutes: the same
pass of `scaled` took from 3.3 to 7.7 s within ten minutes, and the
median `verify_s` of ten runs moved by a quarter between two sets taken
twenty minutes apart.  A median over a run cannot remove a drift that
lasts longer than the run.

So a pass measures the machine's speed while it works.  A wall-clock
interval timer interrupts the pass every PROBE_EVERY_S seconds, and the
signal handler times a fixed probe loop (pure Python, independent of
twotier).  Each stretch of an operation between two probes is scaled by
PROBE_REF_S over the probe reading interpolated, linearly in time
between the two probes, at the stretch's midpoint: it becomes the time
the same work would have taken at the speed at which one probe loop
takes PROBE_REF_S.  An operation's corrected time is the sum of its
scaled stretches; the time spent in probes is part of no operation.  Probes run with the garbage
collector off, so they do not pay for collecting the workload's heap.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

PROBE_REF_S = 1e-3
PROBE_LOOPS = 10
PROBE_EVERY_S = 0.25


def probe_loop() -> int:
    """About 1 ms of work of the kind twotier does: small tuples, dicts, hashing."""
    acc: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i % 31, i % 7)
        acc[key] = acc.get(key, 0) + len(str(i))
    return hash(frozenset(acc.items()))


class Meter:
    """Times operations while a periodic probe reads the machine's speed.

    Use as a context manager: the timer runs from `__enter__` to
    `__exit__`, and corrected times are available after `__exit__`.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []  # probe start instants
        self.ends: list[float] = []  # probe end instants
        self.readings: list[float] = []  # seconds per probe loop
        self.ops: list[tuple[float, float]] = []  # (start, end) instants

    def _probe(self, *_signal) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            for _ in range(PROBE_LOOPS):
                probe_loop()
            ended = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(started)
        self.ends.append(ended)
        self.readings.append((ended - started) / PROBE_LOOPS)

    def __enter__(self) -> "Meter":
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    @property
    def count(self) -> int:
        """The id the next operation will get."""
        return len(self.ops)

    def run(self, fn, *args, **kwargs):
        """Run fn as one operation: (its result, the operation's id)."""
        op = self.count
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs), op
        finally:
            self.ops.append((started, time.perf_counter()))

    def _pieces(self, op: int):
        """(start, end, index of the probe after it) of each stretch of
        the operation between probes."""
        start, end = self.ops[op]
        i = bisect.bisect_right(self.starts, start)  # first probe after start
        at = start
        while i < len(self.starts) and self.starts[i] < end:
            yield at, self.starts[i], i
            at = self.ends[i]
            i += 1
        yield at, end, i

    def wall(self, op: int) -> float:
        """Wall time of an operation, without the probes inside it."""
        return sum(b - a for a, b, _ in self._pieces(op))

    def seconds(self, op: int) -> float:
        """Corrected time of an operation; call after `__exit__`."""
        total = 0.0
        for a, b, i in self._pieces(op):
            before, after = self.ends[i - 1], self.starts[i]
            share = ((a + b) / 2 - before) / (after - before)
            reading = self.readings[i - 1] + share * (self.readings[i] - self.readings[i - 1])
            total += (b - a) * PROBE_REF_S / reading
        return total
