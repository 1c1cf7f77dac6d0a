"""Supercloseness norms and macro-element postprocessing.

The postprocessing operators act on 2x2 blocks of cells of a mesh obtained
by uniform refinement.  The flux x component is rebuilt as a polynomial of
degree (2, 1) per macro-element interpolating the six vertical-edge DOF
values at (x-line, cell-row midpoint) nodes; the y component swaps roles;
the scalar is the bilinear through the four cell values at centroids.
All three reproduce global Q11 data exactly, which is the property the
superconvergence theory rests on.  A discrete pair is rank one, and so is
each reconstructed component: the product of an x and a y 1-D
interpolant, whose error norms reduce to 1-D Gauss sums.  Each 1-D
interpolant is evaluated in Newton form, from the divided differences of
each macro-element, with no per-cell basis.  The supercloseness norms
reduce alike, to 1-D sums of the pair's factors and of the exact field's
cell means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolve import MixedEigenpair, _a1_bands, _a1_times
from .errors import LayoutMismatch, OddMeshDimensions
from .exact import FieldSample, cell_mean_factors
from .mesh import TensorMesh

_GAUSS_N = 5
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(_GAUSS_N)


@dataclass(frozen=True)
class SuperclosenessReport:
    """Distances of the discrete pair to the interpolated exact pair."""

    norm_sigma: float
    norm_div: float
    norm_u: float


def supercloseness_norms(
    mesh: TensorMesh, pair: MixedEigenpair, fld: FieldSample
) -> SuperclosenessReport:
    """Exact norms of sigma_I - sigma_h in A, of its divergence and of
    Pi0 u - u_h in M, from 1-D factors.  With (X, Y) the cell-mean factors
    of the field and f the negative first derivatives of its sines on the
    node lines, Pi0 u = Y (x) X and sigma_I = [Y (x) fx; fy (x) X]; A_xx =
    diag(h_y) (x) A1x, A_yy = A1y (x) diag(h_x), M = diag(h_y) (x)
    diag(h_x), so each squared norm is a balanced 1-D distance.

    div sigma_I = lambda Pi0 u, and div sigma_h = (mu + nu) w (x) v + w (x)
    rx + ry (x) v, with mu v the D-projection of gx = G flux_x / h_x on v
    and rx the remainder (alike in y): the main part is one balanced
    distance, the remainder terms come from the 4x4 Gram matrices of (X,
    v, rx, v) and (Y, w, w, ry).  Expanding all four rank-one terms
    instead cancels, to 2.2e-5 of the value at 1024^2."""
    _require_fit(mesh, pair, "v", "w", "flux_x", "flux_y")
    v, w, hx, hy = pair.v, pair.w, mesh.hx, mesh.hy
    X, Y = cell_mean_factors(mesh, fld)
    fx, fy = (-f for f in fld.factors(mesh.node_x, mesh.node_y, 1, 1))
    dx, dy = _weights(hx), _weights(hy)
    sigma_sq = (_tensor_distance_sq(pair.flux_x, w, fx, Y, _a1(hx), dy)
                + _tensor_distance_sq(pair.flux_y, v, fy, X, _a1(hy), dx))
    gx, gy = np.diff(pair.flux_x) / hx, np.diff(pair.flux_y) / hy
    mu, nu = _dot(v, gx, dx) / _dot(v, v, dx), _dot(w, gy, dy) / _dot(w, w, dy)
    xs, ys = np.stack([X, v, gx - mu * v, v]), np.stack([Y, w, w, gy - nu * w])
    coef = np.array([fld.value, -(mu + nu), -1.0, -1.0])
    gram = np.outer(coef, coef) * ((xs * hx) @ xs.T) * ((ys * hy) @ ys.T)
    gram[:2, :2] = 0.0  # the main part, taken balanced
    div_sq = _tensor_distance_sq((mu + nu) * v, w, fld.value * X, Y, dx, dy)
    return SuperclosenessReport(
        norm_sigma=float(np.sqrt(sigma_sq)),
        norm_div=float(np.sqrt(div_sq + gram.sum())),
        norm_u=float(np.sqrt(_tensor_distance_sq(v, w, X, Y, dx, dy))),
    )


@dataclass(frozen=True)
class PostprocessedField:
    """Macro-element reconstruction of a rank-one pair: per component (sx,
    sy for kind 'sigma'; u for kind 'u') the (x values, y values) data of
    its two 1-D interpolants.  A factor of n + 1 values sits on the node
    lines and is interpolated by the quadratic through the three lines of
    each macro-element; one of n values sits at the cell midpoints and is
    interpolated by the linear through the two of each macro-element."""

    mesh: TensorMesh
    kind: str
    components: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        if self.mesh.n1 % 2 or self.mesh.n2 % 2:
            raise OddMeshDimensions("macro-elements need even cell counts, "
                                    f"got {self.mesh.n1} x {self.mesh.n2}")


def _require_fit(mesh, pair, *names):
    """Each named factor of the pair must have its length on the mesh."""
    want = {"v": mesh.n1, "w": mesh.n2,
            "flux_x": mesh.n1 + 1, "flux_y": mesh.n2 + 1}
    got = {name: len(getattr(pair, name)) for name in names}
    if any(got[name] != want[name] for name in names):
        raise LayoutMismatch(
            f"factor lengths {got} do not fit {mesh.n1} x {mesh.n2} cells")


def i2h_sigma(mesh: TensorMesh, pair: MixedEigenpair) -> PostprocessedField:
    """Macro-element flux reconstruction from the pair's edge DOF values:
    sx interpolates the x data flux_x and the y data w, sy the x data v
    and the y data flux_y."""
    _require_fit(mesh, pair, "v", "w", "flux_x", "flux_y")
    return PostprocessedField(mesh=mesh, kind="sigma", components=(
        (pair.flux_x, pair.w), (pair.v, pair.flux_y)))


def j2h_u(mesh: TensorMesh, pair: MixedEigenpair) -> PostprocessedField:
    """Bilinear reconstruction of the scalar from the pair's cell values at
    centroids: the x data v and the y data w."""
    _require_fit(mesh, pair, "v", "w")
    return PostprocessedField(mesh=mesh, kind="u",
                              components=((pair.v, pair.w),))


def _gauss_table(nodes):
    """5-point Gauss points and weights of every cell, arrays (n, 5)."""
    mid = (nodes[:-1] + nodes[1:]) / 2.0
    half = (nodes[1:] - nodes[:-1]) / 2.0
    return mid[:, None] + half[:, None] * _GAUSS_X, half[:, None] * _GAUSS_W


def _interpolant(nodes, vals, pts, deriv):
    """The 1-D macro-element interpolant of ``vals`` (or its derivative)
    at the fine cells' points pts (n, g), in Newton form.  pts is viewed
    as (n / 2, 2g), one row per macro-element, cells 2e and 2e + 1, which
    the even cell count of a PostprocessedField allows.  Values on the
    n + 1 ``nodes`` take the quadratic through the element's three lines
    w0, w1, w2, f0 + (x - w0) (d1 + d2 (x - w1)), with derivative d1 +
    d2 ((x - w0) + (x - w1)) and the divided differences d1 = f[w0, w1]
    and d2 = f[w0, w1, w2]; values at the n cell midpoints take the
    linear through its two, d2 = 0."""
    quadratic = len(vals) == len(nodes)
    at = nodes if quadratic else (nodes[:-1] + nodes[1:]) / 2.0
    w, f = at[:, None], vals[:, None]
    d1 = (f[1::2] - f[:-1:2]) / (w[1::2] - w[:-1:2])
    d2 = ((f[2::2] - f[1::2]) / (w[2::2] - w[1::2]) - d1) / (
        w[2::2] - w[:-1:2]) if quadratic else 0.0
    x = pts.reshape(len(pts) // 2, -1)
    x0, x1 = x - w[:-1:2], x - w[1::2]
    out = d1 + d2 * (x0 + x1) if deriv else f[:-1:2] + x0 * (d1 + d2 * x1)
    return out.reshape(pts.shape)


# per component of a field kind: (sign, dx, dy), the component
# approximates sign times the (dx, dy) derivative of u
_TARGETS = {"u": ((1.0, 0, 0),), "sigma": ((-1.0, 1, 0), (-1.0, 0, 1))}


def _weights(w):
    """The diagonal metric of the weights w."""
    return lambda a: w * a


def _a1(h):
    """The metric of the 1-D flux mass A1 on the cell widths h."""
    diag, off = _a1_bands(h)
    return lambda a: _a1_times(diag, off, a[:, None])[:, 0]


def _dot(a, b, metric):
    return float((metric(a) * b).sum())


def _tensor_distance_sq(x, y, f, g, mx, my):
    """Squared distance of x (x) y to f (x) g in the tensor product of the
    1-D metrics mx, my (each maps a factor to the metric times it), by the
    split

        x (x) y - f (x) g = x (x) (y - g) + (x - f) (x) g.

    The factors are balanced first, x c and y / c with c = <x, f> / <x, x>:
    then x - f is orthogonal to x, the cross term 2 <x, x - f> <y - g, g>
    is at roundoff level and no term cancels another.  Without balancing
    the cross terms cancel and lose about 1e-6 relative at 512^2."""
    c = _dot(x, f, mx)
    c = c / _dot(x, x, mx) if c else 1.0
    x, y = x * c, y / c
    ex, ey = x - f, y - g
    return (_dot(x, x, mx) * _dot(ey, ey, my)
            + 2.0 * _dot(x, ex, mx) * _dot(ey, g, my)
            + _dot(ex, ex, mx) * _dot(g, g, my))


def error_norms_postprocessed(
    field: PostprocessedField, exact: FieldSample, order: int = 0
) -> float:
    """L2 (order 0) or broken H1-seminorm (order 1) distance to the exact
    field, by 5x5 Gauss quadrature per fine cell.

    Each reconstructed component and the exact field are tensor products
    of 1-D factors, and so is each derivative, so every squared distance
    is a combination of 1-D Gauss sums over the (n1, 5) and (n2, 5)
    tables."""
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    mesh = field.mesh
    xq, wx = _gauss_table(mesh.node_x)
    yq, wy = _gauss_table(mesh.node_y)
    total = 0.0
    for (xv, yv), (sign, ex, ey) in zip(field.components, _TARGETS[field.kind]):
        for dx, dy in ((0, 0),) if order == 0 else ((1, 0), (0, 1)):
            f, g = exact.factors(xq, yq, ex + dx, ey + dy)
            total += _tensor_distance_sq(
                _interpolant(mesh.node_x, xv, xq, dx),
                _interpolant(mesh.node_y, yv, yq, dy),
                sign * f, g, _weights(wx), _weights(wy))
    return float(np.sqrt(total))
