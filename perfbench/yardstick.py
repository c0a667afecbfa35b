"""A fixed computation that measures how fast the host runs right now.

The host's speed drifts: the same operation takes about 1.5 times as
long in its slow phases as in its fast ones, and the mix of phases
changes over seconds to minutes.  A ``Sampler`` runs the yardstick from
a timer signal every ``INTERVAL_S`` in the measured process itself, so
it meets the same phase as the operation it interrupts.  The time spent
in the yardstick is taken out of the operation's wall time, and the
rest is scaled by ``REFERENCE_MS`` over the yardstick's median time
near the operation: the time the operation would take on this host in
a phase where the yardstick takes ``REFERENCE_MS``.

The yardstick is the benchmark's own work and never calls the program,
so a change to the program moves only the operation's side of the
ratio.  Its mix follows the program's: string methods on short words,
dict and set operations, draws from Python's ``random``, and small
numpy matrix products with a logistic function.
"""

from __future__ import annotations

import bisect
import random
import signal
import time

import numpy as np

# The yardstick's median time on the reference host (2 vCPUs, Python 3.11,
# numpy 2.4) in its fast phase.
REFERENCE_MS = 0.7
INTERVAL_S = 0.05
# The scale of an operation is the median of the samples within this many
# seconds of its midpoint.
WINDOW_S = 0.5

_rng = random.Random(0)
_WORDS = [
    "".join(_rng.choice("bcdfghklmnprstvz") + _rng.choice("aeiou") for _ in range(3))
    + _rng.choice(("", "s", "ing", "ed", "ation", "ness"))
    for _ in range(300)
]
_SETS = [frozenset(_WORDS[i : i + 12]) for i in range(0, len(_WORDS), 12)]
_X = np.random.default_rng(0).random((40, 9))
_W = np.random.default_rng(1).random((9, 9)) / 9.0


def _work() -> float:
    counts: dict[str, int] = {}
    for word in _WORDS:
        stem = word.lower()
        for suffix in ("ation", "ness", "ing", "ed", "s"):
            if stem.endswith(suffix):
                stem = stem[: -len(suffix)]
                break
        counts[stem] = counts.get(stem, 0) + 1
    overlap = 0.0
    for a in _SETS[:5]:
        for b in _SETS:
            overlap += len(a & b) / len(a | b)
    h = _X
    for _ in range(8):
        h = 1.0 / (1.0 + np.exp(-(h @ _W)))
    draws = random.Random(1)
    ones = sum(draws.random() < 0.5 for _ in range(400))
    return overlap + ones + float(h.sum()) + len(counts)


_EXPECTED = _work()


class Sampler:
    """Yardstick samples taken from a timer signal while it is started."""

    def __init__(self):
        self.at_ns: list[int] = []  # when each sample started
        self.ns: list[int] = []  # how long it took
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        result = _work()
        self.ns.append(time.perf_counter_ns() - start)
        self.at_ns.append(start)
        if result != _EXPECTED:
            raise AssertionError("yardstick result changed")

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def inside_ns(self, start_ns: int, end_ns: int) -> int:
        """Time spent in samples that started within the interval."""
        lo = bisect.bisect_left(self.at_ns, start_ns)
        hi = bisect.bisect_left(self.at_ns, end_ns)
        return sum(self.ns[lo:hi])

    def scale(self, start_ns: int, end_ns: int) -> float:
        """``REFERENCE_MS`` over the median sample within ``WINDOW_S`` of
        the interval's midpoint, or over the nearest one."""
        mid = (start_ns + end_ns) // 2
        window = int(WINDOW_S * 1e9)
        lo = bisect.bisect_left(self.at_ns, mid - window)
        hi = bisect.bisect_right(self.at_ns, mid + window)
        if lo == hi:
            lo = max(0, min(lo, len(self.at_ns) - 1))
            hi = lo + 1
        near = sorted(self.ns[lo:hi])
        n = len(near)
        median_ns = near[n // 2] if n % 2 else (near[n // 2 - 1] + near[n // 2]) / 2
        return REFERENCE_MS * 1e6 / median_ns

    def corrected_ms(self, start_ns: int, end_ns: int) -> float:
        """The interval's wall time without samples, at the reference speed."""
        busy = end_ns - start_ns - self.inside_ns(start_ns, end_ns)
        return busy / 1e6 * self.scale(start_ns, end_ns)
