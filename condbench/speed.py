"""Machine-speed probe, used to rescale the benchmark's times.

The speed of a shared host drifts: on the 2-vCPU, 2.1 GHz VM this benchmark
was written on, the same pure-Python loop took anywhere from 21 to 35 ms,
in spells of ten seconds and more. The probe is fixed pure-Python graph work
(greedy coloring and a breadth-first search of a seeded random graph) that
shares no code with condchrom and slows down with the host the way the
solver's own Python code does. A time t measured next to a probe reading p
is reported as t * REFERENCE_S / p: seconds at the speed at which the probe
takes REFERENCE_S.
"""

from __future__ import annotations

import random
import signal
import time

# The probe's time on the VM above in a quiet spell.
REFERENCE_S = 0.0015

_N = 300


def _graph(n: int, m: int, seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return [sorted(s) for s in adj]


_ADJ = _graph(_N, 4 * _N, 1)


def _work(rounds: int = 4) -> int:
    total = 0
    for _ in range(rounds):
        color = [0] * _N
        for v in sorted(range(_N), key=lambda v: (-len(_ADJ[v]), v)):
            used = {color[u] for u in _ADJ[v]}
            c = 1
            while c in used:
                c += 1
            color[v] = c
        seen = {0}
        queue = [0]
        for x in queue:
            for y in _ADJ[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        total += max(color) + len(seen)
    return total


def probe() -> float:
    """Seconds one run of the probe work takes now."""
    t = time.perf_counter()
    _work()
    return time.perf_counter() - t


_work()  # warm the interpreter's specialised code before the first reading


class Sampler:
    """Takes a probe reading every INTERVAL_S of wall time (SIGALRM) while
    the timed work runs, so that a call lasting seconds is rescaled by the
    speed the host had during it. Readings are excluded from `busy_s`."""

    INTERVAL_S = 0.1

    def __init__(self):
        self.readings: list[tuple[float, float]] = []  # (start, seconds)
        self.probe_s = 0.0
        self._old = None

    def _read(self, *_):
        t = time.perf_counter()
        self.readings.append((t, probe()))
        self.probe_s += time.perf_counter() - t

    def __enter__(self):
        self._read()
        self._old = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._read()

    def factor(self) -> float:
        """REFERENCE_S over the probe time, averaged over the wall time
        between readings."""
        spans = [(t2 - t1 - d1, (d1 + d2) / 2) for (t1, d1), (t2, d2)
                 in zip(self.readings, self.readings[1:])]
        total = sum(dt for dt, _ in spans)
        return sum(dt * REFERENCE_S / p for dt, p in spans) / total
