"""Closed-form exact eigenpairs on rectangles and their discrete images.

Eigenfunctions on [0,a] x [0,b] are products of sine waves.  Everything
integral-shaped here (edge flux means, cell means, cell integrals of
squared derivatives) is evaluated from analytic antiderivatives, so these
quantities carry no quadrature error; tests check them against Gauss
quadrature independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AmbiguousCluster
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

    # pointwise evaluators -------------------------------------------------

    def _sum(self, x, y, dx, dy, combine=np.multiply):
        """amp * sum_t c_t combine(X_t, Y_t) with X_t the dx-th derivative
        of sin(kx_t x) and Y_t the dy-th of sin(ky_t y)."""
        kx, ky = self._wavenumbers
        out = 0.0
        for c, k1, k2 in zip(self.coeffs, kx, ky):
            out = out + combine(c * _factor(k1, x, dx), _factor(k2, y, dy))
        return self.amp * out

    def u(self, x, y):
        return self._sum(np.asarray(x), np.asarray(y), 0, 0)

    def ux(self, x, y):
        return self._sum(np.asarray(x), np.asarray(y), 1, 0)

    def uy(self, x, y):
        return self._sum(np.asarray(x), np.asarray(y), 0, 1)

    def uxx(self, x, y):
        return self._sum(np.asarray(x), np.asarray(y), 2, 0)

    def uyy(self, x, y):
        return self._sum(np.asarray(x), np.asarray(y), 0, 2)

    def uxy(self, x, y):
        return self._sum(np.asarray(x), np.asarray(y), 1, 1)

    def on_grid(self, x, y, dx=0, dy=0):
        """The (dx, dy) partial derivative on the tensor grid of the point
        arrays x and y, shape x.shape + y.shape; 0 <= dx, dy <= 2."""
        return self._sum(np.asarray(x), np.asarray(y), dx, dy,
                         np.multiply.outer)

    def sigma(self, x, y):
        """Flux sigma = -grad u as a pair of arrays."""
        return -self.ux(x, y), -self.uy(x, y)

    # analytic integrals ---------------------------------------------------

    def cell_integral_u(self, x0, x1, y0, y1):
        kx, ky = self._wavenumbers
        out = 0.0
        for c, k1, k2 in zip(self.coeffs, kx, ky):
            out += c * _int_sin(k1, x0, x1) * _int_sin(k2, y0, y1)
        return self.amp * out

    def _cell_integral_dd_sq(self, x0, x1, y0, y1, which):
        """Integral over the cell of u_xx^2 (which='x') or u_yy^2."""
        kx, ky = self._wavenumbers
        c = self.coeffs
        out = 0.0
        for s in range(len(c)):
            for t in range(len(c)):
                if which == "x":
                    w = kx[s] ** 2 * kx[t] ** 2
                else:
                    w = ky[s] ** 2 * ky[t] ** 2
                out += (
                    c[s] * c[t] * w
                    * _int_sin_sin(kx[s], kx[t], x0, x1)
                    * _int_sin_sin(ky[s], ky[t], y0, y1)
                )
        return self.amp**2 * out

    def cell_integral_uxx_sq(self, x0, x1, y0, y1):
        return self._cell_integral_dd_sq(x0, x1, y0, y1, "x")

    def cell_integral_uyy_sq(self, x0, x1, y0, y1):
        return self._cell_integral_dd_sq(x0, x1, y0, y1, "y")

    def mean_flux_x(self, xi, y0, y1):
        """Mean of sigma_x = -u_x over the vertical edge {xi} x [y0, y1]."""
        kx, ky = self._wavenumbers
        out = 0.0
        for c, k1, k2 in zip(self.coeffs, kx, ky):
            out += c * k1 * np.cos(k1 * xi) * _int_sin(k2, y0, y1)
        return -self.amp * out / (y1 - y0)

    def mean_flux_y(self, yj, x0, x1):
        """Mean of sigma_y = -u_y over the horizontal edge [x0, x1] x {yj}."""
        kx, ky = self._wavenumbers
        out = 0.0
        for c, k1, k2 in zip(self.coeffs, kx, ky):
            out += c * k2 * np.cos(k2 * yj) * _int_sin(k1, x0, x1)
        return -self.amp * out / (x1 - x0)


def field_for_mode(m, n, domain=(np.pi, np.pi)) -> FieldSample:
    """FieldSample of the single mode u_{m,n}."""
    if abs(domain[0] - domain[1]) <= 1e-12 * max(domain):
        freq = Frequency(min(m, n), max(m, n))
    else:
        freq = Frequency(m, n)
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
    kx, ky = fld._wavenumbers
    sx = sy = 0.0
    for c, k1, k2 in zip(fld.coeffs, kx, ky):
        sx = sx + np.outer(_int_sin(k2, ny[:-1], ny[1:]),
                           c * k1 * np.cos(k1 * nx))
        sy = sy + np.outer(c * k2 * np.cos(k2 * ny),
                           _int_sin(k1, nx[:-1], nx[1:]))
    sx = -fld.amp * sx / mesh.hy[:, None]
    sy = -fld.amp * sy / mesh.hx
    return np.concatenate([sx.ravel(), sy.ravel()])


def l2_project_exact(mesh: TensorMesh, fld: FieldSample) -> np.ndarray:
    """Cell-mean vector (1/|K|) integral_K u, row-major cell order: each
    mode adds the outer product of its 1-D antiderivative differences."""
    nx, ny = mesh.node_x, mesh.node_y
    kx, ky = fld._wavenumbers
    out = 0.0
    for c, k1, k2 in zip(fld.coeffs, kx, ky):
        out = out + np.outer(_int_sin(k2, ny[:-1], ny[1:]),
                             c * _int_sin(k1, nx[:-1], nx[1:]))
    return (fld.amp * out).ravel() / mesh.cell_areas


def align_exact_representative(
    pair, exact: ExactEigenpair, mesh: TensorMesh
) -> FieldSample:
    """L2-nearest unit element of the exact eigenspace to a discrete pair.

    Maximizes (Pi0 u*, u_h) over unit-norm u* in the eigenspace; raises
    AmbiguousCluster when the projection of u_h onto the eigenspace is too
    small, which signals a mismatch between lambda_h and the eigenvalue.
    """
    modes = exact.modes()
    areas = mesh.cell_areas
    g = np.empty(len(modes))
    for t, (m, n) in enumerate(modes):
        p = l2_project_exact(mesh, field_for_mode(m, n, exact.domain))
        g[t] = float(np.sum(areas * p * pair.u_coeffs))
    norm = np.linalg.norm(g)
    if norm < 0.5:
        raise AmbiguousCluster(
            f"projection norm {norm:.3f} < 0.5 for lambda_h={pair.lambda_h}"
        )
    return FieldSample(exact, g / norm)
