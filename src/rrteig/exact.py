"""Closed-form exact eigenpairs on rectangles and their discrete images.

Eigenfunctions on [0,a] x [0,b] are products of sine waves, so point
values and cell and edge means on a tensor mesh are sums over modes of
outer products of 1-D tables (FieldSample._mode_sum).  Everything
integral-shaped here (edge flux means, cell means, strip integrals of
squared second derivatives) is evaluated from analytic antiderivatives,
so these quantities carry no quadrature error; tests check them against
Gauss quadrature independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import TensorMesh

_EQ_TOL = 1e-9


@dataclass(frozen=True)
class Frequency:
    """Unordered wave-number pair (m, n) of an eigenfunction family."""

    m: int
    n: int

    @property
    def shift_weight(self) -> int:
        """m^4 + n^4, the weight of the h^2 eigenvalue shift on uniform meshes."""
        return self.m**4 + self.n**4

    @property
    def multiplicity(self) -> int:
        return 1 if self.m == self.n else 2

    @classmethod
    def of_mode(cls, m, n, domain) -> Frequency:
        """The family of mode (m, n): unordered on a square domain, where
        (m, n) and (n, m) share one eigenvalue, else ordered."""
        if abs(domain[0] - domain[1]) <= 1e-12 * max(domain):
            return cls(min(m, n), max(m, n))
        return cls(m, n)


@dataclass(frozen=True)
class ExactEigenpair:
    """One exact eigenvalue with its frequency decomposition.

    ``frequencies`` lists every decomposition pair of the eigenvalue,
    sorted ascending by m^4 + n^4; ``multiplicity`` is the eigenspace
    dimension (2 per pair with m != n, 1 otherwise).
    """

    value: float
    frequencies: tuple[Frequency, ...]
    multiplicity: int
    domain: tuple[float, float] = (np.pi, np.pi)

    def modes(self) -> list[tuple[int, int]]:
        """Ordered (m, n) wave numbers spanning the eigenspace.

        On square domains an unordered pair with m != n contributes both
        orderings; on rectangles the stored pairs are already ordered.
        """
        a, b = self.domain
        square = abs(a - b) <= 1e-12 * max(a, b)
        out = []
        for f in self.frequencies:
            out.append((f.m, f.n))
            if square and f.m != f.n:
                out.append((f.n, f.m))
        return out


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
                vals.append((m * m * kx2 + n * n * ky2, m, n))
        # complete prefix: any eigenvalue below this bound needs m, n <= L
        safe = (L * L + 1) * min(kx2, ky2)
        vals = [v for v in vals if v[0] <= safe]
        vals.sort()
        if len(vals) >= count:
            break
        L *= 2

    pairs: list[ExactEigenpair] = []
    i = 0
    while i < len(vals) and len(pairs) < count:
        lam = vals[i][0]
        group = [v for v in vals if abs(v[0] - lam) <= _EQ_TOL * lam]
        i += len(group)
        square = abs(a - b) <= 1e-12 * max(a, b)
        if square:
            freqs = sorted(
                {Frequency(min(m, n), max(m, n)) for _, m, n in group},
                key=lambda f: f.shift_weight,
            )
            mult = sum(f.multiplicity for f in freqs)
        else:
            # orderings are inequivalent on a rectangle: one mode each
            freqs = sorted(
                {Frequency(m, n) for _, m, n in group},
                key=lambda f: f.shift_weight,
            )
            mult = len(freqs)
        pair = ExactEigenpair(
            value=lam, frequencies=tuple(freqs), multiplicity=mult,
            domain=(a, b),
        )
        pairs.extend([pair] * mult)
    return pairs[:count]


# ---------------------------------------------------------------------------
# analytic 1-D integrals of trigonometric products
# ---------------------------------------------------------------------------

def _int_sin(k, x0, x1):
    return (np.cos(k * x0) - np.cos(k * x1)) / k


def _int_sin_sin(k1, k2, x0, x1):
    if abs(k1 - k2) < 1e-12 * max(abs(k1), abs(k2)):
        k = k1

        def F(x):
            return x / 2.0 - np.sin(2.0 * k * x) / (4.0 * k)
    else:
        d, s = k1 - k2, k1 + k2

        def F(x):
            return np.sin(d * x) / (2.0 * d) - np.sin(s * x) / (2.0 * s)
    return F(x1) - F(x0)


def _factor(k, x, order):
    """Derivative of order 0, 1 or 2 of sin(k x): the cycle
    sin -> k cos -> -k^2 sin."""
    if order == 0:
        return np.sin(k * x)
    if order == 1:
        return k * np.cos(k * x)
    return -k * k * np.sin(k * x)


@dataclass(frozen=True)
class FieldSample:
    """A unit-norm element of an exact eigenspace with derivative access.

    The field is u = amp * sum_t c_t sin(kx_t x) sin(ky_t y) with
    amp = 2/sqrt(ab); the mode list comes from an ExactEigenpair and the
    coefficients satisfy sum c_t^2 = 1.
    """

    exact: ExactEigenpair
    coeffs: np.ndarray

    @property
    def value(self) -> float:
        return self.exact.value

    @property
    def amp(self) -> float:
        a, b = self.exact.domain
        return 2.0 / np.sqrt(a * b)

    @cached_property
    def _wavenumbers(self):
        a, b = self.exact.domain
        modes = np.array(self.exact.modes(), dtype=float)
        return modes[:, 0] * np.pi / a, modes[:, 1] * np.pi / b

    def _mode_sum(self, fx, fy):
        """amp * sum_t (c_t fx(kx_t)) * fy(ky_t), where fx and fy map a
        wave number to a 1-D table that the caller shapes to broadcast."""
        kx, ky = self._wavenumbers
        out = 0.0
        for c, k1, k2 in zip(self.coeffs, kx, ky):
            out = out + (c * fx(k1)) * fy(k2)
        return self.amp * out

    def derivative(self, x, y, dx=0, dy=0):
        """The (dx, dy) partial derivative of u at the points (x, y),
        0 <= dx, dy <= 2; x and y broadcast, so x[:, None] and y give the
        tensor grid.  The flux is sigma = -grad u."""
        x, y = np.asarray(x), np.asarray(y)
        return self._mode_sum(lambda k: _factor(k, x, dx),
                              lambda k: _factor(k, y, dy))

    def strip_integrals_dd_sq(self, node_x, node_y):
        """Closed-form integrals of u_xx^2 over each x-strip
        [node_x[i], node_x[i+1]] x [node_y[0], node_y[-1]] and of u_yy^2
        over each y-strip [node_x[0], node_x[-1]] x [node_y[j], node_y[j+1]],
        arrays of len(node_x) - 1 and len(node_y) - 1."""
        kx, ky = self._wavenumbers
        c = self.coeffs
        nx, ny = np.asarray(node_x), np.asarray(node_y)
        out_x = out_y = 0.0
        for s in range(len(c)):
            for t in range(len(c)):
                wx = kx[s] ** 2 * kx[t] ** 2
                wy = ky[s] ** 2 * ky[t] ** 2
                out_x = out_x + (
                    c[s] * c[t] * wx
                    * _int_sin_sin(kx[s], kx[t], nx[:-1], nx[1:])
                    * _int_sin_sin(ky[s], ky[t], ny[0], ny[-1])
                )
                out_y = out_y + (
                    c[s] * c[t] * wy
                    * _int_sin_sin(kx[s], kx[t], nx[0], nx[-1])
                    * _int_sin_sin(ky[s], ky[t], ny[:-1], ny[1:])
                )
        return self.amp**2 * out_x, self.amp**2 * out_y


def field_for_mode(m, n, domain=(np.pi, np.pi)) -> FieldSample:
    """FieldSample of the single mode u_{m,n}."""
    freq = Frequency.of_mode(m, n, domain)
    pair = ExactEigenpair(
        value=(m * np.pi / domain[0]) ** 2 + (n * np.pi / domain[1]) ** 2,
        frequencies=(freq,),
        multiplicity=freq.multiplicity,
        domain=tuple(domain),
    )
    coeffs = np.zeros(len(pair.modes()))
    coeffs[pair.modes().index((m, n))] = 1.0
    return FieldSample(pair, coeffs)


# ---------------------------------------------------------------------------
# discrete images of exact fields
# ---------------------------------------------------------------------------

def rt_interpolate_exact(mesh: TensorMesh, fld: FieldSample) -> np.ndarray:
    """Edge-DOF vector of the flux interpolant: exact mean normal fluxes.

    Each mode adds k cos(k x) on the node lines times the 1-D antiderivative
    differences across the cells, an outer product per edge family; x-edges
    (grid [cell row j, line i]) come before y-edges ([line j, cell column i])."""
    nx, ny = mesh.node_x, mesh.node_y
    sx = fld._mode_sum(lambda k: _factor(k, nx, 1),
                       lambda k: _int_sin(k, ny[:-1, None], ny[1:, None]))
    sy = fld._mode_sum(lambda k: _int_sin(k, nx[:-1], nx[1:]),
                       lambda k: _factor(k, ny[:, None], 1))
    sx = -sx / mesh.hy[:, None]
    sy = -sy / mesh.hx
    return np.concatenate([sx.ravel(), sy.ravel()])


def l2_project_exact(mesh: TensorMesh, fld: FieldSample) -> np.ndarray:
    """Cell-mean vector (1/|K|) integral_K u, row-major cell order: each
    mode adds the outer product of its 1-D antiderivative differences."""
    nx, ny = mesh.node_x, mesh.node_y
    out = fld._mode_sum(lambda k: _int_sin(k, nx[:-1], nx[1:]),
                        lambda k: _int_sin(k, ny[:-1, None], ny[1:, None]))
    return out.ravel() / mesh.cell_areas
