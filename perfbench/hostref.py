"""A gauge of the host's current speed, sampled while a run executes.

On a shared machine the same pass can take 25% more or less CPU time
from one minute to the next, and medians over more passes do not
remove that drift.  :class:`HostGauge` arms a profiling timer; every
:data:`INTERVAL_S` of process CPU time its signal handler times one
fixed pure-Python loop: method calls on slotted objects found by
random lookups in a dict of 128K entries, a working set of a few
megabytes like the simulator's.  A run's CPU time is then rescaled to
the speed at which that loop takes :data:`NOMINAL_S`::

    scaled = (cpu - time spent in the handler) * NOMINAL_S / median loop time

The loop is the benchmark's own code, so no change to the simulator
moves it, and the handler touches nothing the simulator owns.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any

#: reported times are CPU seconds on a host where one loop takes this
NOMINAL_S = 0.002
#: process CPU seconds between two samples
INTERVAL_S = 0.1
_CELLS = 1 << 17
_STEPS = 2000


class _Cell:
    __slots__ = ("value", "hits")

    def __init__(self) -> None:
        self.value = 0
        self.hits = 0

    def touch(self, v: int) -> int:
        self.hits += 1
        self.value ^= v
        return self.value


class HostGauge:
    """Samples the loop on a CPU-time timer while armed.

    Use as a context manager around the passes; :meth:`mark` and
    :meth:`since` delimit one run's samples.  ``build_s`` is the CPU
    time spent building the loop's table.
    """

    def __init__(self) -> None:
        t0 = time.process_time()
        self._table = {i * 64: _Cell() for i in range(_CELLS)}
        self.build_s = time.process_time() - t0
        self.samples: list[float] = []
        self._previous: Any = None

    def _loop(self) -> int:
        table = self._table
        x = 12345
        out = 0
        for i in range(_STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            out += table[(x & (_CELLS - 1)) * 64].touch(i) & 1
        return out

    def _sample(self, signum: int, frame: Any) -> None:
        # wall time: the process is on the CPU for the whole handler,
        # and the process CPU clock is too coarse inside it
        t0 = time.perf_counter()
        self._loop()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "HostGauge":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def since(self, mark: int) -> tuple[float, float]:
        """(median loop time, total handler time) of samples after ``mark``."""
        taken = self.samples[mark:]
        return statistics.median(taken), sum(taken)


def rescale(cpu_s: float, loop_s: float) -> float:
    """``cpu_s`` expressed at the nominal host speed."""
    return cpu_s * NOMINAL_S / loop_s
