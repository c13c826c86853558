"""A fixed slice of pure-Python work that measures how fast the host runs
the interpreter right now.

On a host whose cores are shared with other tenants, the speed of a
pass can swing by a quarter or more from one minute to the next (see
the README's baseline host).  ``SpeedSampler`` therefore runs a short
slice from an interval-timer signal while the items run, and the
benchmark reports item times in units of the slices sampled during and
around each item.  The handler's own time is taken out of the item's
time, and out of every span of a traced child.  The slice mixes the
operations msograph spends its time on: bytecode dispatch, small-int
and bitmask arithmetic, dict, set and list traffic, tuples and
function calls.  Its result is checked, so the work cannot be skipped.
"""

from __future__ import annotations

import signal
import time

_PERIOD_S = 0.1
_N = 211
_ADJ = tuple(tuple((v * 7 + k * 13 + 1) % _N for k in range(5))
             for v in range(_N))


def _work() -> int:
    total = 0
    seen: set[int] = set()
    for start in range(0, _N, 21):
        seen.clear()
        frontier = [start]
        depth = {start: 0}
        while frontier:
            v = frontier.pop()
            if v in seen:
                continue
            seen.add(v)
            total += depth[v]
            for w in _ADJ[v]:
                if w not in seen:
                    depth[w] = depth[v] + 1
                    frontier.append(w)
    mask = 0
    for i in range(1000):
        mask = ((mask << 1) | (i & 1)) & 0xFFFFF
        total += (mask & -mask).bit_length()
    rows = sorted((v % 17, v) for v in range(_N))
    return total + sum(b for _, b in rows[:50])


class SpeedSampler:
    """Times a reference slice every ``_PERIOD_S`` of wall time (SIGALRM).

    ``samples`` lists the slice durations in order; ``spent`` is the
    total time spent in the handler.  ``clock()`` is ``perf_counter``
    with that time taken out, so intervals read from it exclude the
    slices.  ``sample()`` takes one slice on demand, outside any item.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._expected: int | None = None
        self._previous = None

    def clock(self) -> float:
        while True:  # retry if a slice ran between the two readings
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def sample(self) -> None:
        t0 = time.perf_counter()
        result = _work()
        t1 = time.perf_counter()
        if self._expected is None:
            self._expected = result
        elif result != self._expected:
            raise RuntimeError("reference slice gave a different result")
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, _PERIOD_S, _PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
