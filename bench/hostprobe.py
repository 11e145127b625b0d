"""Host-speed probe: a fixed computation outside precessflow, timed between operations.

On a shared host, other tenants slow this process by up to half, for minutes
at a time, so raw medians of the same code differ by more than any useful
regression bound from one run to the next.  The probe mixes the kinds of work
the workloads do -- exact rational arithmetic, an unoptimized three-operand
einsum (the Gram contraction of the basis build) and a loop of small
matrix-vector products (the step path) -- and the host slows all of them
together.  Each operation's times are reported scaled by
``REFERENCE_S / probe``, with ``probe`` the mean of the probe timings just
before and just after it: seconds at the host speed where the probe takes
REFERENCE_S, which is about its time on an uncontended 2-vCPU Xeon VM (it
takes about 50 ms there when contended).  The probe uses nothing from
precessflow, so no change to the package can move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.035


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._fields = rng.standard_normal((50, 3, 35))
        self._gram = rng.standard_normal((35, 35))
        self._mat = rng.standard_normal((26, 26))

    def _rational(self):
        acc = Fraction(0)
        for i in range(1, 1250):
            acc += Fraction(i, i + 1) * Fraction(3, 7)

    def _contraction(self):
        for _ in range(2):
            np.einsum("icm,mn,jcn->ij", self._fields, self._gram, self._fields)

    def _matvec(self):
        y = np.ones(self._mat.shape[0])
        for _ in range(1000):
            y = self._mat @ y
            y /= np.linalg.norm(y)

    def measure(self) -> float:
        """Seconds the probe takes now: the best of two timings of each part."""
        return sum(min(_timed(part), _timed(part))
                   for part in (self._rational, self._contraction, self._matvec))
