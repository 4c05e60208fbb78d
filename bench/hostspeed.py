"""Host-speed probe: scale each operation's time to a nominal host speed.

On a shared host the CPU speed a process gets drifts by a quarter or more
over seconds to minutes (other tenants' load), and an operation of the
program slows down with it.  Timing the program alone then measures the
host as much as the program.  So while an operation runs, a timer signal
interrupts it every ``INTERVAL_S`` and runs a fixed piece of pure-Python
work, the *probe*, whose duration follows the host's current speed.  The
operation's time is its wall time minus the probes' time, and its
normalized time is that, multiplied by ``NOMINAL_S / mean probe time``:
the time the operation would take on a host where the probe takes
``NOMINAL_S``.  A change to the program moves the normalized time as it
moves the wall time; a change in host speed moves both the operation and
the probe, and cancels out.

The probe mixes the two kinds of work the package does most: integer
arithmetic with list indexing, and attribute-by-attribute tuple
comparison with dict insertion (as in ``core.hamming`` and the pair
indexes).  It touches only its own data, so it cannot change the
program's output.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

#: Time between probes (wall clock).
INTERVAL_S = 0.025
#: The probe duration that normalized times are scaled to.  It sets the
#: unit only: it is close to the probe's median duration on a 2-vCPU x86
#: host with CPython 3.11, so there normalized seconds read about like
#: wall seconds.
NOMINAL_S = 0.0006

_INTS = list(range(1024))
_ROWS = [tuple(str((i * 7 + j * 3) % 4) for j in range(7)) for i in range(16)]


def probe() -> int:
    """The fixed reference work."""
    acc = 0
    ints = _INTS
    for i in range(1500):
        acc += ints[i & 1023] ^ i
    pairs = {}
    rows = _ROWS
    for a in rows:
        for b in rows:
            pairs[(a, b)] = sum(1 for x, y in zip(a, b) if x != y)
    return acc + len(pairs)


def timed_probe() -> float:
    """Seconds one ``probe`` takes.  The garbage collector is held off
    during it: a full collection scans the program's heap, and its cost,
    landing in a probe, would make the host look slower the more memory
    the program holds."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        probe()
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


class Probe:
    """Context manager that runs ``probe`` on a timer while it is open.

    After it closes, ``probe_s`` is the time spent in probes and
    ``scale`` the factor from this host's speed to the nominal one.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(timed_probe())

    def __enter__(self) -> "Probe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def probe_s(self) -> float:
        return sum(self.samples)

    @property
    def scale(self) -> float:
        if self.samples:
            return NOMINAL_S / statistics.fmean(self.samples)
        # An operation shorter than one interval: probe once after it
        # (outside the operation, so not counted in ``probe_s``).
        return NOMINAL_S / timed_probe()
