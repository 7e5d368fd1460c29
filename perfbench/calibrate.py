"""A fixed reference load that measures how fast the host runs right now.

The benchmark shares a virtual machine with other tenants, and the
speed at which it runs pure Python changes by up to 2x from one second
to the next with their load.  Process CPU time moves with wall time, so
no clock separates the program's own cost from the host's pace.  A
fixed amount of work timed alongside the program does: ``Meter`` runs
``chunk`` in between and, on a timer signal, in the middle of the
measured operations, and ``Meter.clock`` scales each stretch of time
by the pace the last chunk measured.  Times read off it are in
reference seconds, the time on a host where one chunk takes
``REFERENCE_S``, and never include the chunks themselves.

``chunk`` does what symchain does most, in the standard library only:
exact rational arithmetic with growing integers, and dict and tuple
traffic.  It calls nothing of symchain, so a change to the program
never changes the reference.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.005  # one chunk's time on the reference host (about the fastest seen)


def chunk() -> int:
    """Fixed pure-Python work, a few milliseconds long."""
    total = Fraction(0)
    table = {}
    for i in range(1, 1200):
        total += Fraction(i % 13 - 6, i)
        table[(i, i % 7)] = (total.numerator % 97, i)
    return len(table)


class Meter:
    """Chunks timed in between and in the middle of the measured work.

    ``clock`` is a reference clock: between two chunks it runs at the
    pace the earlier chunk measured, 1 / (chunk time / REFERENCE_S), and
    it stands still while a chunk runs.  An interval read off it is the
    interval's time in reference seconds, each part of it scaled by the
    host's pace at that moment, so a short interval (one chain in a
    lattice operation) is not scaled by the pace of the whole run.
    """

    def __init__(self) -> None:
        self.seconds = 0.0  # spent in chunks
        self.chunks = 0
        self._ref = 0.0  # reference time at self._last
        self._last = perf_counter()
        self._pace = 1.0  # reference seconds per second since self._last
        self._version = 0

    def sample(self) -> None:
        start = perf_counter()
        ref = self._ref + (start - self._last) * self._pace
        chunk()
        end = perf_counter()
        self.seconds += end - start
        self.chunks += 1
        self._ref, self._last, self._pace = ref, end, REFERENCE_S / (end - start)
        self._version += 1

    def clock(self) -> float:
        """Reference seconds, leaving out the time spent in chunks."""
        while True:
            version = self._version
            value = self._ref + (perf_counter() - self._last) * self._pace
            if self._version == version:  # no chunk ran in between
                return value

    @contextmanager
    def sampling(self, share: float):
        """Within the block, run a chunk on SIGALRM, ``share`` of the wall time.

        A long operation's time then has chunks spread through it, not
        only at its ends; the host's pace changes within seconds.
        """

        def tick(signum, frame):
            before = self.seconds
            self.sample()
            took = self.seconds - before
            signal.setitimer(signal.ITIMER_REAL, took * (1 - share) / share)

        self.sample()
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_S * (1 - share) / share)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            # signal.signal runs a handler still pending before it replaces it
            signal.signal(signal.SIGALRM, previous)

    def keep_up(self, measured_s: float, share: float) -> None:
        """Sample until chunks have taken ``share`` of ``measured_s``, at least one."""
        while self.chunks == 0 or self.seconds < share * measured_s:
            self.sample()

    def mark(self) -> tuple[float, int]:
        return self.seconds, self.chunks

    def slowdown(self, since: tuple[float, int] = (0.0, 0)) -> float:
        """Mean chunk time since a mark over the reference: 1.0 on the reference host."""
        seconds, chunks = since
        return (self.seconds - seconds) / ((self.chunks - chunks) * REFERENCE_S)
