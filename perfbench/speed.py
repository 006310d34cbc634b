"""How fast the host runs while a workload runs, from a reference kernel.

The host the benchmark was tuned on is shared, and its speed has states:
the same fixed piece of Python ran in 7 ms at some moments and in 13 to
15 ms at others, switching every few tenths of a second to a few seconds,
and the mix of states drifted from one minute to the next, so that a
workload's time moved by up to 40 % from one run to the next (see
``NOTES.md``).  No statistic over one run's own timings removes that.

So while a run sets up and measures, a thread of the benchmark's own runs
a fixed pure-Python kernel (about a millisecond) every 50 ms and times
it.  The mean of those timings is the host's average speed over the
same interval the workload ran in, and the run reports its times scaled to
a host on which the kernel takes ``NOMINAL_S``.  The kernel calls nothing
of the library, so no change to the library can change its time; it
takes about 2 % of the CPU from the workload, the same in every run.
"""

from __future__ import annotations

import heapq
import statistics
import threading
import time

#: Mean time of one kernel call on a 2-vCPU Xeon (2.1 GHz) VM: the median
#: of thirty benchmark runs, whose means ranged from 0.76 to 1.18 ms.
NOMINAL_S = 0.00091
#: Seconds between kernel calls.
INTERVAL_S = 0.05


def kernel() -> float:
    """A fixed piece of interpreted heap and arithmetic work; its result.

    Pure Python on purpose: NumPy may release the GIL inside a call, and
    the workload's thread would then run inside the timed interval.
    """
    heap: list[float] = []
    total = 0.0
    for index in range(1_600):
        heapq.heappush(heap, (index * 7919 % 1000) / 1000.0)
        if len(heap) > 64:
            total += heapq.heappop(heap)
    return total


class SpeedSampler:
    """Times ``kernel`` every ``INTERVAL_S`` on a thread, while in a ``with``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-sampler", daemon=True)

    def _sample(self) -> None:
        while True:
            started = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - started)
            if self._stop.wait(INTERVAL_S):
                return

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: int = 0, stop: int | None = None) -> float:
        """Nominal ÷ mean kernel time of ``samples[start:stop]``.

        Multiply host seconds measured while those samples were taken by
        it.  A slice that caught no sample falls back to the whole run.
        """
        chosen = self.samples[start:stop] or self.samples
        return NOMINAL_S / statistics.fmean(chosen)
