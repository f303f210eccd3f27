"""Host-speed calibration: what every reported time is normalised by.

The benchmark runs on shared hosts whose CPU speed drifts by 20-50% over
seconds to minutes: the same build answered the same queries with a 118 ms
and a 174 ms median in runs three minutes apart.  That drift is the host's,
not the program's, so each run measures it.  A fixed unit of
benchmark-owned work (dict updates, a sort and numpy gathers: the mix the
daemon's request path runs) is timed over and over next to the requests,
and each time metric is scaled by ``REFERENCE_MS / unit time`` near it.  A
reported time is then "ms on a host where the unit takes REFERENCE_MS":
a change to the program moves it, a slow phase of the host does not.

The unit's two parts are timed apart, because the host's slow phases do
not slow all code alike: interpreter code (and system calls) took about
1.9x as long there, numpy work about 1.3x.  Reads, which run both, are
scaled by the whole unit; writes, which run no array code, by its
interpreter part (``interpreter=True``) against ``REFERENCE_PYTHON_MS``.

The unit never runs while a request is in flight: the closed loops call
:meth:`Calibrator.maybe_sample` between requests (the short write probes
:meth:`Calibrator.sample` after every request), the open loop is
bracketed by :meth:`Calibrator.burst`, and set-up, which only waits on
child processes, is sampled :meth:`Calibrator.alongside`.
"""

from __future__ import annotations

import bisect
import contextlib
import threading
import time
from typing import Callable, Iterator, List, Tuple

from perfbench.stats import median

try:
    import numpy as _np
except ImportError:  # pragma: no cover - the unit then runs pure Python
    _np = None

#: Median unit time, and that of its interpreter part, on the 2-vCPU host
#: the benchmark was tuned on, in its fast phase (its slow phase took about
#: 1.45 ms), so normalised times read close to raw ones there.
REFERENCE_MS = 0.95
REFERENCE_PYTHON_MS = 0.50
#: Samples within this many seconds of a timed interval calibrate it.
NEAR_S = 0.3
#: ... and when fewer than this many are that near, the nearest ones do.
MIN_NEAR = 5
#: Unit runs per sample (the sample is their median).
REPEATS = 3

#: The numpy part works in buffers allocated once, so the unit times the
#: CPU and its caches, not the page faults of fresh allocations.
if _np is not None:
    _VALUES = _np.arange(50_000, dtype=_np.int64)
    _GATHER = _VALUES * 7919 % 50_000
    _BUF = _np.empty_like(_VALUES)
    _OUT = _np.empty_like(_VALUES)


def unit_ms() -> Tuple[float, float]:
    """Milliseconds the unit's interpreter part and its array part take now."""
    started = time.perf_counter()
    counts: dict = {}
    for i in range(4000):
        counts[i % 331] = counts.get(i % 331, 0) + i * 3
    sorted(counts.values())
    middle = time.perf_counter()
    if _np is not None:
        _np.multiply(_VALUES, 7, out=_BUF)
        _np.remainder(_BUF, 1013, out=_BUF)
        _np.take(_BUF, _GATHER, out=_OUT)
        _OUT.sum()
    else:
        sum(sorted((i * 7) % 1013 for i in range(20_000)))
    return (middle - started) * 1000.0, (time.perf_counter() - middle) * 1000.0


class Calibrator:
    """Unit-time samples along a run, and the speed factor of any interval."""

    def __init__(
        self,
        every_s: float = 0.1,
        clock: Callable[[], float] = time.perf_counter,
        unit: Callable[[], Tuple[float, float]] = unit_ms,
    ) -> None:
        self.every_s = every_s
        self.clock = clock
        self.unit = unit
        self.times: List[float] = []
        self.unit_ms: List[float] = []
        self.python_ms: List[float] = []

    def sample(self) -> None:
        started = self.clock()
        parts = [self.unit() for _ in range(REPEATS)]
        self.times.append((started + self.clock()) / 2.0)
        self.unit_ms.append(median([python + array for python, array in parts]))
        self.python_ms.append(median([python for python, _ in parts]))

    def maybe_sample(self) -> None:
        """Sample unless the last sample is younger than ``every_s``."""
        if not self.times or self.clock() - self.times[-1] >= self.every_s:
            self.sample()

    def burst(self, count: int) -> None:
        for _ in range(count):
            self.sample()

    @contextlib.contextmanager
    def alongside(self) -> Iterator[None]:
        """Sample every ``every_s`` from a thread while the block runs.

        Only for blocks that wait on child processes: the thread takes the
        GIL for a sample at a time, which would delay a timed request.
        """
        stop = threading.Event()

        def loop() -> None:
            while not stop.is_set():
                self.sample()
                stop.wait(self.every_s)

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def near(self, start: float, end: float) -> slice:
        """The samples taken within ``NEAR_S`` of [start, end], or the nearest."""
        lo = bisect.bisect_left(self.times, start - NEAR_S)
        hi = bisect.bisect_right(self.times, end + NEAR_S)
        if hi - lo >= MIN_NEAR or hi - lo == len(self.times):
            return slice(lo, hi)
        # Widen one sample at a time towards the nearer side.
        while hi - lo < MIN_NEAR and (lo > 0 or hi < len(self.times)):
            before = start - self.times[lo - 1] if lo > 0 else float("inf")
            after = self.times[hi] - end if hi < len(self.times) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return slice(lo, hi)

    def factor(self, start: float, end: float, interpreter: bool = False) -> float:
        """``REFERENCE_MS`` over the median unit time around [start, end].

        With *interpreter*, the interpreter part's reference over its median.
        """
        if not self.times:
            raise RuntimeError("no host-speed samples were taken")
        near = self.near(start, end)
        if interpreter:
            return REFERENCE_PYTHON_MS / median(self.python_ms[near])
        return REFERENCE_MS / median(self.unit_ms[near])

    def summary(self) -> Tuple[float, float, int]:
        """(median unit ms, its max/min ratio, samples) over the whole run."""
        if not self.unit_ms:
            return 0.0, 0.0, 0
        return median(self.unit_ms), max(self.unit_ms) / min(self.unit_ms), len(self.unit_ms)
