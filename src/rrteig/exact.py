"""Closed-form exact eigenpairs on rectangles and their discrete images.

Eigenfunctions on [0,a] x [0,b] are products of sine waves.  Every
discrete pair carries its mode label (m, n), so the exact partner of
every pair, cluster members included, is one mode (FieldSample), and its
point values and cell means on a tensor mesh are outer products of 1-D
tables.  The 1-D integrals (cell means of sin(k x), cell integrals of
cos(k x)^2, which the h^2 expansion term sums per direction) come from
analytic antiderivatives, so they carry no quadrature error; tests check
them against Gauss quadrature independently.  FieldSample refuses a mode
or domain that these 1-D forms would mis-evaluate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

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
    FieldSample(1, 1, domain)  # refuses all but two real sides finite > 0
    a, b = domain
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
# analytic 1-D integrals of trigonometric products
# ---------------------------------------------------------------------------

def _int_sin(k, nodes):
    """The integrals of sin(k x) over each cell of the nodes."""
    c = np.cos(k * nodes)
    return (c[:-1] - c[1:]) / k


def _cos_sq_integrals(k, nodes):
    """The integrals of cos(k x)^2 over each cell of the nodes, one row per
    entry of the column k, from x / 2 + sin(2 k x) / (4 k) at each node."""
    prim = nodes / 2.0 + np.sin(2.0 * k * nodes) / (4.0 * k)
    return prim[:, 1:] - prim[:, :-1]


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
        # integers m, n >= 1 and a tuple (the analyses hash it) of two real
        # sides finite > 0 make u a mode whose sin^2 integrates to half a side
        for q in (self.m, self.n):
            if not isinstance(q, (int, np.integer)) or q is True or q < 1:
                raise InvalidConfig(
                    f"mode {self.m, self.n} needs integers m, n >= 1")
        if not (isinstance(d := self.domain, tuple) and len(d) == 2 and all(
                isinstance(s, numbers.Real) and s is not True
                and 0.0 < s < math.inf for s in d)):
            raise InvalidConfig(f"sides {d}: no real pair, or not finite > 0")

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

    def factors(self, x, y):
        """The x and y factors of the partial derivatives of u of orders 0,
        1 and 2 in each direction, arrays (3, *shape): row d holds amp
        times the d-th derivative of sin(kx x) at the points x, and the
        d-th derivative of sin(ky y) at the points y, by the cycle sin ->
        k cos -> -k^2 sin from one sine and one cosine."""
        out = []
        for k, pts in ((self.kx, x), (self.ky, y)):
            kp = k * np.asarray(pts)
            s = np.sin(kp)
            out.append(np.array([s, k * np.cos(kp), -k * k * s]))
        return self.amp * out[0], out[1]


# ---------------------------------------------------------------------------
# discrete images of exact fields
# ---------------------------------------------------------------------------

def cell_mean_factors(mesh: TensorMesh, fld: FieldSample):
    """The x and y factors (amp px, py) of the cell means of u, px and py
    the 1-D cell means of the two sines: the mean of u over cell (i, j) is
    amp px[i] py[j]."""
    return (fld.amp * _int_sin(fld.kx, mesh.node_x) / mesh.hx,
            _int_sin(fld.ky, mesh.node_y) / mesh.hy)


def _require_domain(mesh: TensorMesh, fields):
    """Each field's domain [0, a] x [0, b] must be the mesh's, its end
    nodes to 1e-12 relative: the analyses read a field at the mesh's
    coordinates, and on another domain its numbers are wrong."""
    (x0, x1), (y0, y1) = (mesh.node_x[::mesh.n1].tolist(),  # the end nodes
                          mesh.node_y[::mesh.n2].tolist())
    for a, b in {f.domain for f in fields}:
        if not (max(abs(x0), abs(x1 - a)) <= 1e-12 * a
                and max(abs(y0), abs(y1 - b)) <= 1e-12 * b):
            raise LayoutMismatch(
                f"a field on [0, {a:.17g}] x [0, {b:.17g}] does not fit the "
                f"mesh of [{x0:.17g}, {x1:.17g}] x [{y0:.17g}, {y1:.17g}]")
