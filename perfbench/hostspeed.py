"""Host speed probes, and wall times rescaled to a reference host speed.

The machines this benchmark runs on share physical cores with other
tenants.  For several seconds at a time a core runs up to twice as slow,
and how much of a run falls into such phases differs from run to run, so
plain wall-clock medians of the same code spread by 25% or more between
runs.  A probe measures the host's current speed directly: a fixed numpy
computation, timed next to the work it describes.  An interval's adjusted
time is its wall time multiplied by the probe's reference time over the
median probe time within WINDOW_S of it, i.e. what it would have taken at
the probe speed of an uncontended core of the reference host.

The slowdown is not the same for every kind of code, so there are two
probes, each fitted to the operations it describes: "python" times dict
updates keyed by tuples and a sort, interpreter work like the lattice
search, n-best reranking and set-up (window medians of rescore operations
scaled with its time to the power 0.99, against 0.65 for a probe of
single-row numpy products); "batched" times 16-row matrix products and
elementwise maps, like GRU training (power 0.9).  The probes touch no lmkit code, so a
change to the program moves adjusted and plain times alike.  Plain wall
times are reported next to the adjusted ones.
"""

import bisect
import statistics
import time

import numpy as np

# probe times on an uncontended core of the host the bounds were set on
# (2-vCPU Xeon VM, OpenBLAS on 1 thread)
REFERENCE_S = {"python": 140e-6, "batched": 710e-6}
# probes within this distance of an interval describe its host speed
WINDOW_S = 0.5
# an untimed round first, so a probe does not time its own cache misses
WARMUP = 1
# probes at each set-up checkpoint
SETUP_PROBES = 3


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.keys = [(i, i * 7 % 13, "w%d" % (i % 17)) for i in range(200)]
        self.b = rng.random((16, 72))
        self.w = rng.random((72, 144))
        self.v = rng.random((16, 144))
        self.times = {"python": [], "batched": []}
        self.costs = {"python": [], "batched": []}

    def _python(self, rounds):
        counts = {}
        for _ in range(rounds):
            for key in self.keys:
                counts[key] = counts.get(key, 0) + len(key[2])
            ordered = sorted(counts.items())
        return len(ordered)

    def _batched(self, rounds):
        acc = 0.0
        for _ in range(rounds):
            y = np.tanh(self.b @ self.w) * self.v
            acc += float((y.T @ self.b)[0, 0])
        return acc

    def sample(self, kind, n=1):
        """Time `n` probes of one kind and keep (start, seconds) of each."""
        run, rounds = (self._python, 3) if kind == "python" else (self._batched, 30)
        for _ in range(n):
            run(WARMUP)
            t0 = time.perf_counter()
            run(rounds)
            self.times[kind].append(t0)
            self.costs[kind].append(time.perf_counter() - t0)

    def checkpoint(self):
        """Probes between set-up steps.  Set-up mixes training with input
        generation, n-gram estimation and file IO in Python; its time
        tracked the interpreter probe (a 70% slower set-up read 24% slower
        adjusted with the batched probe, 1% with the interpreter one)."""
        self.sample("python", SETUP_PROBES)

    def factor(self, kind, start, end):
        """Reference time over the median probe time near [start, end]."""
        times, costs = self.times[kind], self.costs[kind]
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, end + WINDOW_S)
        return REFERENCE_S[kind] / statistics.median(costs[lo:hi])

    def adjust(self, kind, start, seconds):
        return seconds * self.factor(kind, start, start + seconds)
