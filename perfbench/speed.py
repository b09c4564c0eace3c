"""Machine-speed reference for the end-to-end timings.

On a shared 2-vCPU VM the same pure-Python work runs up to 1.7x slower for
seconds to minutes at a time, with no steal time to show for it.  So while
timed passes run, a timer signal runs ``reference_work`` -- fixed work that
does not depend on the program -- every ``INTERVAL_S`` seconds, and the
interrupted operation's time is corrected by the time the reference took.
A run then reports its times multiplied by ``scale()``, ``NOMINAL_S``
divided by the mean reference time: seconds on a machine where one
reference call takes ``NOMINAL_S``.  The reference builds tuples in
recursive generators, as the package's enumerators do, so that a slow
spell slows both alike.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

#: Seconds between two reference calls while passes are timed.
INTERVAL_S = 0.25
#: The time of one reference call that the reported times are scaled to.
NOMINAL_S = 0.012
#: Reference calls made right after set-up to scale ``setup_s``.
SETUP_CALLS = 5


def _strict(m: int, top: int):
    if m == 0:
        yield ()
        return
    for p in range(min(m, top), 0, -1):
        for rest in _strict(m - p, p - 1):
            yield (p,) + rest


def reference_work() -> int:
    """Total number of parts in the strict partitions of 44 (about 12 ms)."""
    return sum(len(parts) for parts in _strict(44, 44))


class Probe:
    """Reference timings.  As a context manager it samples on a timer
    signal; ``stolen`` is the total time its samples took."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stolen = 0.0

    def sample(self) -> None:
        # With the collector off, the reference never walks the program's
        # heap, so its time does not depend on what the program holds.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_work()
        spent = time.perf_counter() - t0
        if enabled:
            gc.enable()
        self.samples.append(spent)
        self.stolen += spent

    def __enter__(self) -> Probe:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        """Factor from this machine's present speed to the nominal one."""
        return scale_of(self.samples)


def scale_of(samples: list[float]) -> float:
    """Factor from the speed at which ``samples`` were taken to the nominal one."""
    return NOMINAL_S / statistics.fmean(samples)


def setup_scale() -> float:
    """``scale()`` from a few reference calls made now, after one untimed."""
    reference_work()
    probe = Probe()
    for _ in range(SETUP_CALLS):
        probe.sample()
    return probe.scale()
