"""The speed the host gives this machine, measured with a fixed reference kernel.

On a shared host the same code runs 30% faster or slower from one minute to
the next, and the package slows down with everything else on the machine.
The benchmark therefore runs a fixed kernel, which shares no code with the
package, between operations, and rescales each timing by the kernel's median
time over the seconds around it:

    reported = measured * REF_KERNEL_MS / median(kernel times within WINDOW_S)

A reported time is what the work would take on a machine that runs the
kernel in ``REF_KERNEL_MS``.  A change to the package moves it in full; a
change in the host's speed, even within a run, cancels out.  The raw wall
times are printed in the details line beside the rescaled ones.
"""
from __future__ import annotations

import bisect
import functools
import statistics
import time

#: Kernel time, in ms, of the machine every reported timing is rescaled to.
REF_KERNEL_MS = 3.0
#: Wall time of measured work after which the kernel runs once more.
SAMPLE_EVERY_S = 0.1
#: Kernel samples up to this many seconds before or after a piece of work set its scale.
WINDOW_S = 2.0


@functools.cache
def _kernel_inputs():
    """Read-only input of the kernel, built once per process."""
    import numpy as np
    return np.random.default_rng(0).random(4096)


def kernel() -> float:
    """About 3 ms of work in three parts that the host's neighbours slow in
    different ways: interpreter arithmetic, small numpy calls, and a list
    sorted by a key.  Its working set is small and it creates almost no
    objects the garbage collector tracks, so its time does not depend on what
    the package left in the caches or on the heap."""
    array = _kernel_inputs()
    total = 0
    for i in range(8000):
        total += i * i % 7
    for _ in range(12):
        total += float(array.argsort()[::64].sum() + (array * array).mean())
    values = [(i * 7919 % 1000) * 0.5 for i in range(3000)]
    values.sort(key=lambda v: -v)
    total += sum(1 for v in values if v > 100.0)
    return total


class Reference:
    """Kernel timings taken between pieces of measured work."""

    def __init__(self) -> None:
        #: perf_counter() at the start of each kernel run, and its duration in seconds.
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self, after_s: float = 0.0) -> None:
        """Time the kernel once, and once more per ``SAMPLE_EVERY_S`` of ``after_s``,
        so the samples spread over the run in proportion to the work measured."""
        for _ in range(1 + int(after_s / SAMPLE_EVERY_S)):
            start = time.perf_counter()
            kernel()
            self.times.append(start)
            self.samples.append(time.perf_counter() - start)

    def scale(self, start: float, end: float) -> float:
        """Factor that turns the wall time of work done from ``start`` to ``end``
        (perf_counter readings) into a reported time."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        # Callers sample right before or right after the work, so this is never empty.
        return REF_KERNEL_MS / 1000.0 / statistics.median(self.samples[lo:hi])

    def details(self) -> dict:
        return {"kernel_ms_median": statistics.median(self.samples) * 1000.0,
                "kernel_samples": len(self.samples)}
