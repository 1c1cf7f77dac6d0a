"""Host-speed calibration of the rrteig benchmark.

On a shared host the same op can take 1.3 s in one minute and 2.7 s in
the next (see README.md).  A run therefore times a fixed calibration
kernel before its first op and after every op, and reports its times
scaled to the reference speed at which the kernel takes ``REF_S``::

    op_s = mean(op wall s) * REF_S / mean(calibration s)

The kernel uses only numpy and scipy, never rrteig, so a change to the
library moves the numerator and not the denominator.  It mixes the three
kinds of work the workloads do: an interpreted Python loop, numpy on
small arrays, and a sparse LU factorisation with triangular solves.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

REF_S = 0.1  # kernel seconds at the reference speed (~ its median on a
# 2-vCPU Xeon VM, Python 3.11, numpy 2.4, scipy 1.17, one BLAS thread)


class Calibration:
    """Fixed kernel; calling it returns its wall seconds."""

    def __init__(self):
        n = 64  # 2-D Laplacian of 4096 unknowns, ~2.5e5 L+U entries
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.eye(n)
        self._laplacian = (sp.kron(t, eye) + sp.kron(eye, t)).tocsc()
        self._rhs = np.ones(n * n)

    def __call__(self) -> float:
        start = perf_counter()
        s = 0.0
        for i in range(250_000):
            s += (i * 0.5) % 7.0
        x = np.arange(64.0)
        for _ in range(6_000):
            x = np.sqrt(x * x + 1.0) - 0.5
        lu = spla.splu(self._laplacian)
        for _ in range(40):
            lu.solve(self._rhs)
        return perf_counter() - start


def scale(seconds: float, calibration: list[float]) -> float:
    """``seconds`` at the reference speed, given the run's kernel times."""
    return seconds * REF_S / (sum(calibration) / len(calibration))
