"""Closed-form exact eigenpairs on rectangles and their discrete images.

Eigenfunctions on [0,a] x [0,b] are products of sine waves.  Every
discrete pair carries its mode label (m, n), so the exact partner of
every pair, cluster members included, is one mode (FieldSample), and its
point values and cell means on a tensor mesh are outer products of 1-D
tables.  Everything integral-shaped here (cell means, strip integrals of
squared first derivatives) is evaluated from analytic antiderivatives,
so these quantities carry no quadrature error; tests check them against
Gauss quadrature independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import TensorMesh

_EQ_TOL = 1e-9


@dataclass(frozen=True)
class ExactEigenpair:
    """One exact eigenvalue and the ordered modes (m, n) spanning its
    eigenspace, ascending by (eigenvalue, m, n)."""

    value: float
    modes: tuple[tuple[int, int], ...]
    domain: tuple[float, float] = (np.pi, np.pi)

    @property
    def multiplicity(self) -> int:
        return len(self.modes)


def enumerate_exact(domain=(np.pi, np.pi), count=6) -> list[ExactEigenpair]:
    """First ``count`` exact eigenvalues (with multiplicity), ascending.

    Brute-force search over (m, n); the scan bound L is grown until every
    value below L-dependent threshold is guaranteed enumerated.
    """
    a, b = domain
    kx2 = (np.pi / a) ** 2
    ky2 = (np.pi / b) ** 2
    L = 4
    while True:
        vals = []
        for m in range(1, L + 1):
            for n in range(1, L + 1):
                vals.append((FieldSample(m, n, domain).value, m, n))
        # complete prefix: any eigenvalue below this bound needs m, n <= L
        safe = (L * L + 1) * min(kx2, ky2)
        vals = [v for v in vals if v[0] <= safe]
        vals.sort()
        if len(vals) >= count:
            break
        L *= 2

    # one pass: a group runs while values stay within _EQ_TOL of its first
    groups: list[list] = []
    for v in vals:
        if groups and v[0] - groups[-1][0][0] <= _EQ_TOL * groups[-1][0][0]:
            groups[-1].append(v)
        else:
            groups.append([v])
    pairs: list[ExactEigenpair] = []
    for group in groups:
        modes = tuple((m, n) for _, m, n in group)
        pairs += [ExactEigenpair(group[0][0], modes, (a, b))] * len(group)
    return pairs[:count]


# ---------------------------------------------------------------------------
# analytic 1-D integrals of trigonometric products
# ---------------------------------------------------------------------------

def _int_sin(k, x0, x1):
    return (np.cos(k * x0) - np.cos(k * x1)) / k


def _int_sq(k, x0, x1, cos=False):
    """The integral of sin(k x)^2, or of cos(k x)^2 when ``cos``, over
    [x0, x1]."""
    sign = 1.0 if cos else -1.0
    def F(x):
        return x / 2.0 + sign * np.sin(2.0 * k * x) / (4.0 * k)
    return F(x1) - F(x0)


def _factor(k, x, order):
    """Derivative of order 0, 1 or 2 of sin(k x): the cycle
    sin -> k cos -> -k^2 sin."""
    if order == 0:
        return np.sin(k * x)
    if order == 1:
        return k * np.cos(k * x)
    if order == 2:
        return -k * k * np.sin(k * x)
    raise ValueError(f"derivative order must be 0, 1 or 2, got {order}")


@dataclass(frozen=True)
class FieldSample:
    """The unit-norm exact eigenfunction of mode (m, n) on [0, a] x [0, b],

    u = amp sin(kx x) sin(ky y),  amp = 2 / sqrt(ab),  kx = m pi / a,
    ky = n pi / b,

    with eigenvalue kx^2 + ky^2 and the 1-D factors of its derivatives.
    The flux is sigma = -grad u.
    """

    m: int
    n: int
    domain: tuple[float, float] = (np.pi, np.pi)

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(
                f"mode (m, n) needs m, n >= 1, got ({self.m}, {self.n})")

    @property
    def value(self) -> float:
        a, b = self.domain
        return (self.m * self.m * (np.pi / a) ** 2
                + self.n * self.n * (np.pi / b) ** 2)

    @property
    def amp(self) -> float:
        a, b = self.domain
        return 2.0 / np.sqrt(a * b)

    @property
    def kx(self) -> np.float64:
        return np.float64(self.m) * np.pi / self.domain[0]

    @property
    def ky(self) -> np.float64:
        return np.float64(self.n) * np.pi / self.domain[1]

    def factors(self, x, y, dx=0, dy=0):
        """The x and y factors of the (dx, dy) partial derivative of u,
        0 <= dx, dy <= 2: amp times the dx-th derivative of sin(kx x) at
        the points x, and the dy-th derivative of sin(ky y) at the points y."""
        return (self.amp * _factor(self.kx, np.asarray(x), dx),
                _factor(self.ky, np.asarray(y), dy))

    def strip_integrals_k2_du_sq(self, node_x, node_y):
        """Closed-form integrals of kx^2 u_x^2 over each x-strip
        [node_x[i], node_x[i+1]] x [node_y[0], node_y[-1]] and of
        ky^2 u_y^2 over each y-strip [node_x[0], node_x[-1]] x [node_y[j],
        node_y[j+1]], arrays of len(node_x) - 1 and len(node_y) - 1: a
        cos^2 integral along the strip's own axis and a sin^2 one across."""
        kx, ky = self.kx, self.ky
        nx, ny = np.asarray(node_x), np.asarray(node_y)
        out_x = (kx**2 * kx**2 * _int_sq(kx, nx[:-1], nx[1:], cos=True)
                 * _int_sq(ky, ny[0], ny[-1]))
        out_y = (ky**2 * ky**2 * _int_sq(kx, nx[0], nx[-1])
                 * _int_sq(ky, ny[:-1], ny[1:], cos=True))
        return self.amp**2 * out_x, self.amp**2 * out_y


# ---------------------------------------------------------------------------
# discrete images of exact fields
# ---------------------------------------------------------------------------

def cell_mean_factors(mesh: TensorMesh, fld: FieldSample):
    """The x and y factors (amp px, py) of the cell means of u, px and py
    the 1-D cell means of the two sines: the mean of u over cell (i, j) is
    amp px[i] py[j]."""
    nx, ny = mesh.node_x, mesh.node_y
    return (fld.amp * _int_sin(fld.kx, nx[:-1], nx[1:]) / mesh.hx,
            _int_sin(fld.ky, ny[:-1], ny[1:]) / mesh.hy)
