"""Machine-speed calibration for timings on a shared, noisy host.

On the 2-core reference VM the same pure-Python work runs up to 2x
slower for seconds to minutes at a time while other tenants are busy,
so raw host seconds from two sets of runs are not comparable.  While a
run measures, :class:`SpeedSampler` times a frozen reference kernel
50 times a second (on ``SIGALRM``), and each timing is scaled by the
mean speed sampled over its own interval:

    reported = host_seconds * NOMINAL_S * mean(1 / kernel_seconds)

i.e. seconds on a machine where the kernel always takes ``NOMINAL_S``.
Averaging speeds (not kernel times) over uniform ticks estimates the
work the machine could do in the interval, and keeps a tick that was
descheduled mid-kernel from dragging the estimate.  The kernels live
here, not in ``src/``, so no change to the program can move them.
:func:`kernel` mimics the simulators' interpreter profile (a heap of
tuples, small-object allocation, method calls, float-keyed dicts);
:func:`numpy_kernel` mimics the flow engine's vectorized epochs, which
the contention slows less than interpreted code.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import Any, Callable, List

#: Seconds one kernel call takes on the reference machine (the unit).
NOMINAL_S = 0.001

#: Events the kernel dispatches per call (~1 ms on the reference VM).
KERNEL_EVENTS = 600

#: Array length and rounds of :func:`numpy_kernel` (~1 ms there too).
NUMPY_SIZE = 10_000
NUMPY_ROUNDS = 6

#: Sampling period, seconds.
PERIOD_S = 0.02


class _Event:
    __slots__ = ("t", "key", "value")

    def __init__(self, t: float, key: float, value: float):
        self.t = t
        self.key = key
        self.value = value

    def fire(self, state: dict) -> float:
        state[self.key] = state.get(self.key, 0.0) + self.value
        return self.value * 0.5


def kernel(events: int = KERNEL_EVENTS) -> int:
    """A miniature discrete-event loop with a fixed amount of work."""
    heap: list = []
    state: dict = {}
    for i in range(64):
        heapq.heappush(heap, (i * 0.001, i, _Event(0.0, float(i % 97), 1.0)))
    seq = 64
    while seq < events:
        t, _, event = heapq.heappop(heap)
        value = event.fire(state)
        seq += 1
        heapq.heappush(
            heap,
            (t + 0.001 + value * 1e-6, seq, _Event(t, float(seq % 97), value + 1.0)),
        )
    return len(state)


_ARRAYS: List[Any] = []


def numpy_kernel() -> float:
    """Elementwise passes over fleet-sized float arrays."""
    import numpy as np

    if not _ARRAYS:
        rng = np.random.default_rng(0)
        _ARRAYS.extend(
            (rng.random(NUMPY_SIZE), rng.random(NUMPY_SIZE) + 0.5,
             rng.random(NUMPY_SIZE))
        )
    a, b, c = _ARRAYS
    total = 0.0
    for _ in range(NUMPY_ROUNDS):
        y = np.minimum(a * b + c, b)
        w = np.sqrt(np.where(y > 0.7, y * 0.5, a) + 1.0)
        c = (w - a) * 0.5 + c * 0.5
        total += float(np.sum(w[c > 0.3]))
    return total


class SpeedSampler:
    """Samples the machine's speed on ``SIGALRM`` while started.

    Only one may run per process (it owns ``SIGALRM`` and the real
    interval timer); the program under test arms neither unless a run
    timeout is set, which the benchmark never does.  Forked pool
    workers do not inherit the timer.
    """

    def __init__(self, reference: Callable[[], Any] = kernel) -> None:
        self._reference = reference
        self._speeds: List[float] = []
        self._previous: Any = None
        self._busy = False

    def start(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _tick(self, _signum: Any = None, _frame: Any = None) -> None:
        # On a stalled machine a kernel can outlast the period; Python
        # would then run the next tick nested inside this one, and so on
        # until the recursion limit.  Such a tick is dropped instead.
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            self._reference()
            self._speeds.append(1.0 / (time.perf_counter() - start))
        except RecursionError:
            # A tick that lands deep in the sampled code's stack must not
            # raise into it; the tick is lost instead.
            pass
        finally:
            self._busy = False

    def mark(self) -> int:
        """Opens an interval; pass the mark to :meth:`scale_since`."""
        return len(self._speeds)

    def scale_since(self, mark: int) -> float:
        """Factor turning host seconds since ``mark`` into reference
        seconds (a tick is taken now if none fell in the interval)."""
        if len(self._speeds) <= mark:
            self._tick()
        return NOMINAL_S * statistics.fmean(self._speeds[mark:])
