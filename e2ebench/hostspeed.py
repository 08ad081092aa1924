"""Host-speed sampling: time measured work against fixed work run beside it.

The hosts this benchmark runs on are shared.  Their speed for the same
code drifts by 20-40% over windows of a fraction of a second to minutes
(a fixed numpy and interpreter loop shows it as plainly as the library
does, in process CPU time as much as in wall time), so whole 30-second
runs land in slow or fast stretches and a median over one run cannot
average the drift out.

While a :class:`HostClock` is open, a timer signal runs a fixed *probe*
-- small matrix products, ufuncs and dict work, the mix the library's
serving and training paths spend their time in, none of it library code
-- every ``SAMPLE_EVERY_S`` on the main thread, between two bytecodes of
whatever runs there.  The probe is timed in the CPU time of its own
thread, so waiting for the interpreter lock or for the CPU while other
threads of the process run does not count: it reads how fast the host
runs fixed work, and a library change cannot move it.  An interval
between two samples is scaled by ``REFERENCE_PROBE_S`` over the mean of
its two probes, so a scaled time is what the work would have taken at
the reference speed.  Time spent inside probes is never part of a
measured interval.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter, thread_time

import numpy as np

#: The probe's time at the reference speed.  A fixed constant: scaled
#: figures compare across runs and commits.  Close to the probe's
#: median on a 2-core x86-64 host, so scaled figures there read close to
#: the time a user waits.
REFERENCE_PROBE_S = 0.003
#: Wall time between samples: a fraction of the shortest stretch at one
#: host speed seen (about 0.15 s), at about 3% of the run's time.
SAMPLE_EVERY_S = 0.1

_RNG = np.random.default_rng(0)
_A = _RNG.random((8, 40))
_B = _RNG.random((40, 16))
_ROUNDS = 111
#: The probe times its work in this many parts and keeps the median part,
#: so an interrupt in one part does not count.
_PARTS = 3


def _part():
    began = thread_time()
    total = 0.0
    for i in range(_ROUNDS):
        total += float(np.tanh(_A @ _B).sum())
        table = {j: j * i for j in range(40)}
        total += sum(table.values()) * 1e-9
    elapsed = thread_time() - began
    if not np.isfinite(total):
        raise RuntimeError("host probe produced a non-finite sum")
    return elapsed


def probe():
    """Run the fixed work; return its CPU time in seconds."""
    parts = sorted(_part() for _ in range(_PARTS))
    return _PARTS * parts[_PARTS // 2]


class HostClock:
    """Host-speed samples, and the scaling of intervals between them.

    Use as a ``with`` block on the main thread; it samples once on entry,
    every ``SAMPLE_EVERY_S`` while open, and once on exit.
    """

    def __init__(self):
        #: ``(began, ended, probe_s)`` per sample, in time order.
        self.marks = []
        self._ends = []
        self._previous_handler = None
        self._sampling = False

    def __enter__(self):
        self.mark()
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.mark()
        return False

    def _on_alarm(self, signum, frame):
        if not self._sampling:  # a stalled probe is not sampled twice
            self._sampling = True
            try:
                self.mark()
            finally:
                self._sampling = False

    def mark(self):
        """Run the probe now and record it."""
        began = perf_counter()
        seconds = probe()
        self.marks.append((began, perf_counter(), seconds))
        self._ends.append(self.marks[-1][1])

    def probe_times(self):
        return [m[2] for m in self.marks]

    def _pieces(self, start, stop):
        """``(seconds, factor)`` for the parts of ``[start, stop]`` between probes."""
        if not self.marks:
            raise RuntimeError("host clock has no samples")
        pieces = []
        index = bisect.bisect_right(self._ends, start)  # first sample ending after start
        cursor = start
        while cursor < stop:
            before = self.marks[max(index - 1, 0)][2]
            if index < len(self.marks):
                next_began, next_ended, after = self.marks[index]
            else:
                next_began, next_ended, after = stop, stop, before
            end = min(stop, next_began)
            if end > cursor:
                pieces.append((end - cursor, REFERENCE_PROBE_S / (0.5 * (before + after))))
            cursor = max(end, next_ended)
            index += 1
        return pieces

    def raw(self, start, stop):
        """Seconds in ``[start, stop]`` outside probes."""
        return sum(seconds for seconds, _ in self._pieces(start, stop))

    def scaled(self, start, stop):
        """Seconds in ``[start, stop]`` outside probes, at the reference speed."""
        return sum(seconds * factor for seconds, factor in self._pieces(start, stop))
