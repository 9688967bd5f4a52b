"""Machine-speed gauge for a shared host whose speed drifts.

On a shared two-core host the same work ran 1.5x to 1.8x slower for
stretches of 5 to 10 s. Within one run that swamps any change worth
detecting. The gauge times a fixed kernel, made only of numpy and Python
and not of koopseed code, at points interleaved with the measured work.
Each measured time is then divided by the slowdown of the kernel, taken as
its median time around that unit of work over its reference time.

The kernel is a loop of small rank-one updates and elementwise powers on a
small batch of states: the work of RK4 field evaluation, the dictionary and
the online recursion. Over 12 duffing pipelines in one process, the times
of its two parts correlated with the pipeline's at 0.87 and 0.93, and
dividing by either cut the spread of pipeline times from 9% to under 4%.
It also tracks forecast queries, which are mostly an 84x84
eigen-decomposition, better than timing that decomposition itself: over
ten runs of reproduce-vdp, the spread of the query p90 was 0.05 divided by
this kernel's slowdown and 0.10 divided by that of a fixed 84x84
eigen-decomposition.
"""

import statistics
import time

import numpy as np

# Kernel time on an uncontended 2-core x86_64 host with one BLAS thread.
# Normalised times read as seconds on that host.
CAL_REF_S = 0.005


class SpeedGauge:
    """Records kernel timings; ``factor`` gives the slowdown over a span."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.normal(size=(84, 84)) / 9.0
        self._vector = rng.normal(size=84) / 9.0
        self._states = rng.uniform(-1.5, 1.5, size=(100, 6))
        self._exponents = rng.integers(0, 4, size=(20, 6))
        self.samples = []  # kernel time of each tick
        self.spans = []  # (start, end) clock readings of each tick

    def _kernel(self) -> None:
        K = self._matrix.copy()
        P = np.eye(K.shape[0])
        v = self._vector
        for _ in range(40):
            Pp = P @ v
            gamma = 1.0 / (1.0 + v @ Pp)
            K += gamma * np.outer(v - K @ v, Pp)
            P -= gamma * np.outer(Pp, Pp)
        for _ in range(5):
            mono = np.ones((self._states.shape[0], self._exponents.shape[0]))
            for d in range(self._states.shape[1]):
                mono *= self._states[:, d, None] ** self._exponents[:, d]

    def tick(self, then=None) -> float:
        """Run the kernel once, then ``then()`` if given; returns the total
        duration in seconds. The whole tick, ``then`` included, is left out
        of ``normalised`` times."""
        begin = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - begin)
        if then is not None:
            then()
        end = time.perf_counter()
        self.spans.append((begin, end))
        return end - begin

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, first: int, last: int | None = None) -> float:
        """Slowdown over the reference: median of ticks first..last-1."""
        return statistics.median(self.samples[first:last]) / CAL_REF_S

    def normalised(self, first: int) -> float:
        """Time from tick ``first`` to the last tick, without the ticks.

        Each gap between two consecutive ticks is divided by the mean
        slowdown of those two ticks.
        """
        samples = self.samples
        total = 0.0
        for i in range(first, len(self.spans) - 1):
            gap = self.spans[i + 1][0] - self.spans[i][1]
            total += gap / ((samples[i] + samples[i + 1]) / 2.0 / CAL_REF_S)
        return total
