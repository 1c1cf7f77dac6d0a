"""Closed-form exact eigenpairs on rectangles and their 1-D tables.

Every discrete pair carries its mode label (m, n), so the exact partner
of every pair, cluster members included, is one mode, a product of
sine waves and so a tensor product as the pair is: label (m, n) reads
row m - 1 of an x and row n - 1 of a y ModeTable, as the pair reads its
table columns.  The 1-D integrals come from analytic
antiderivatives, with no quadrature error; tests check them against
Gauss quadrature independently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .eigensolve import _smallest_sums
from .errors import InvalidConfig, LayoutMismatch
from .mesh import TensorMesh

_EQ_TOL = 1e-9
# the largest side ratio r = a / b >= 1 (or b / a) of a domain: the two
# smallest values of its lowest row, kx^2 + ky^2 and 4 kx^2 + ky^2, differ
# by 3 / (1 + r^2) relative, which must stay above 2 _EQ_TOL (so r is below
# about 3.9e4), or the grouping merges distinct eigenvalues
_MAX_SIDE_RATIO = math.sqrt(1.5 / _EQ_TOL)


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


def _checked_domain(domain):
    """``domain`` if a (hashable) tuple of two real sides finite > 0."""
    if not (isinstance(domain, tuple) and len(domain) == 2 and all(
            isinstance(s, numbers.Real) and s is not True
            and 0.0 < s < math.inf for s in domain)):
        raise InvalidConfig(f"sides {domain}: no real pair, or not finite > 0")
    return domain


def enumerate_exact(domain=(np.pi, np.pi), count=6) -> list[ExactEigenpair]:
    """First ``count`` >= 1 exact eigenvalues (with multiplicity), ascending.

    The smallest sums of the 1-D spectra m^2 (pi/a)^2 and n^2 (pi/b)^2,
    ties by (m, n), selected as in the discrete solve.  The L x L lowest
    modes, L = ceil(sqrt(count)), hold count values at most top = ((pi/a)^2
    + (pi/b)^2) L^2, so the first count eigenspaces need m^2 (pi/a)^2 <= top
    (up to _EQ_TOL) and m <= count, and alike n.  Values within _EQ_TOL
    of a group's first form one eigenspace; a domain whose side ratio
    exceeds _MAX_SIDE_RATIO, where that would merge distinct values of one
    row, raises InvalidConfig.
    """
    if not isinstance(count, (int, np.integer)) or count is True or count < 1:
        raise InvalidConfig(f"count must be >= 1 and integral, got {count!r}")
    a, b = _checked_domain(domain)
    ratio = max(a / b, b / a)
    if ratio > _MAX_SIDE_RATIO:
        raise InvalidConfig(
            f"domain {a:.17g} x {b:.17g}: side ratio {ratio:.3g} exceeds "
            f"{_MAX_SIDE_RATIO:.3g}, beyond which distinct eigenvalues lie "
            f"within the grouping tolerance {_EQ_TOL:g}")
    kx2, ky2 = (np.pi / a) ** 2, (np.pi / b) ** 2
    top = (kx2 + ky2) * (math.isqrt(count - 1) + 1) ** 2
    m, n = (np.arange(1, int(min(count - 1, np.sqrt(top / k2))) + 2)
            for k2 in (kx2, ky2))
    vals, ii, jj = _smallest_sums(m * m * kx2, n * n * ky2, m.size * n.size)
    last = vals[count - 1]  # the values up to the end of its group
    end = np.count_nonzero(vals - last <= _EQ_TOL * last)
    modes = list(zip((ii[:end] + 1).tolist(), (jj[:end] + 1).tolist()))
    # one pass: a group runs while values stay within _EQ_TOL of its first
    starts = []
    for t, v in enumerate(vals[:end].tolist()):
        if not starts or v - first > _EQ_TOL * first:
            starts.append(t)
            first = v
    pairs: list[ExactEigenpair] = []
    for s, e in zip(starts, starts[1:] + [end]):
        pairs += [ExactEigenpair(vals[s], tuple(modes[s:e]), (a, b))] * (e - s)
    return pairs[:count]


# ---------------------------------------------------------------------------
# exact 1-D mode tables, from analytic integrals of sines
# ---------------------------------------------------------------------------

def _cos_sq_integrals(k, nodes):
    """The integrals of cos(k x)^2 over each cell of the nodes, one row per
    entry of the column k, from x / 2 + sin(2 k x) / (4 k) at each node."""
    prim = nodes / 2.0 + np.sin(2.0 * k * nodes) / (4.0 * k)
    return prim[:, 1:] - prim[:, :-1]


class ModeTable:
    """The exact 1-D modes amp sin(k x), k = m pi / s, m = 1..p, on the
    nodes of a side s, a row per mode: eigenvalues m^2 (pi / s)^2, the
    expansion sums (k^4 / 6 s) sum_i h_i^2 int_I_i cos(k x)^2 and, when
    first read, cell means and node slopes.  Each row is reduced alone, so
    its bits are those of any table that holds its mode.  x.sums[m - 1] +
    y.sums[n - 1] is the h^2 term of mode (m, n)'s eigenvalue error, derived
    and verified numerically (rate 4 of the remainder), not proved."""

    def __init__(self, nodes, side, p, amp=1.0):
        m = np.arange(1, p + 1)
        self.nodes, self.amp = nodes, amp
        self.k, self.values = m * np.pi / side, m * m * (np.pi / side) ** 2
        cells = np.diff(nodes) ** 2 * _cos_sq_integrals(self.k[:, None], nodes)
        self.sums = (self.k ** 2) ** 2 / (6.0 * side) * cells.sum(axis=1)

    @cached_property
    def nodal(self):
        """amp times each sine's cell means (p, n) and its derivative k cos(k
        x) at the nodes (p, n + 1), both from one cosine per node."""
        k, c = self.k[:, None], np.cos(self.k[:, None] * self.nodes)
        return (self.amp * ((c[:, :-1] - c[:, 1:]) / k) / np.diff(self.nodes),
                self.amp * (k * c))

    def _row(self, m):
        """Row m - 1 of mode m, an integer in 1..p (below 1, m - 1 would wrap
        to the last rows), else InvalidConfig."""
        p = len(self.k)
        if not isinstance(m, (int, np.integer)) or m is True or not 0 < m <= p:
            raise InvalidConfig(f"mode {m!r} is no integer in 1..{p}")
        return m - 1

    def factors(self, pts, m):
        """amp times the sine of mode m and its first two derivatives at the
        points pts, (3, *pts.shape), from one sine and one cosine."""
        k = self.k[self._row(m)]
        kp = k * pts
        s = np.sin(kp)
        return self.amp * np.array([s, k * np.cos(kp), -k * k * s])


def mode_tables(mesh: TensorMesh, domain, px, py):
    """The ModeTables of modes 1..px on the mesh's x nodes and 1..py on its
    y nodes, the amplitude 2 / sqrt(ab) of a unit mode on [0, a] x [0, b]
    on x.  A malformed domain raises InvalidConfig, and one that is not the
    mesh's, its end nodes to 1e-12 relative, LayoutMismatch."""
    a, b = _checked_domain(domain)
    (x0, x1), (y0, y1) = (mesh.node_x[::mesh.n1].tolist(),  # the end nodes
                          mesh.node_y[::mesh.n2].tolist())
    if not (max(abs(x0), abs(x1 - a)) <= 1e-12 * a
            and max(abs(y0), abs(y1 - b)) <= 1e-12 * b):
        raise LayoutMismatch(
            f"a field on [0, {a:.17g}] x [0, {b:.17g}] does not fit the "
            f"mesh of [{x0:.17g}, {x1:.17g}] x [{y0:.17g}, {y1:.17g}]")
    return (ModeTable(mesh.node_x, a, px, 2.0 / np.sqrt(a * b)),
            ModeTable(mesh.node_y, b, py))
