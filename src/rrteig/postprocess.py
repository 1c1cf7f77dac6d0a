"""Supercloseness norms and macro-element postprocessing.

The postprocessing acts on 2x2 blocks of cells of a mesh obtained by
uniform refinement.  The flux x component is rebuilt as a polynomial of
degree (2, 1) per macro-element interpolating the six vertical-edge DOF
values at (x-line, cell-row midpoint) nodes; the y component swaps roles;
the scalar is the bilinear through the four cell values at centroids.
All three reproduce global Q11 data exactly, which is the property the
superconvergence theory rests on.  A discrete pair is rank one, and so is
each reconstructed component: the product of an x and a y 1-D
interpolant, whose error norms reduce to 1-D Gauss sums.  One call,
postprocessing_norms, gives all four error norms of a level and takes
each 1-D interpolant once per derivative order, in Newton form from the
divided differences of each macro-element, with no per-cell basis.  The
supercloseness norms reduce alike, to 1-D sums of the pair's factors and
of the exact field's cell means.
"""

from __future__ import annotations

import numpy as np

from .eigensolve import MixedEigenpair, _a1_bands, _a1_times
from .errors import LayoutMismatch, OddMeshDimensions
from .exact import FieldSample, cell_mean_factors
from .mesh import TensorMesh

_GAUSS_N = 5
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(_GAUSS_N)


def supercloseness_norms(
    mesh: TensorMesh, pair: MixedEigenpair, fld: FieldSample
) -> dict[str, float]:
    """Exact norms of sigma_I - sigma_h in A (norm_sigma), of its
    divergence (norm_div) and of Pi0 u - u_h in M (norm_u), the
    supercloseness entry of a level's report, from 1-D factors.  With
    (X, Y) the cell-mean factors of the field and f the negative first
    derivatives of its sines on the node lines, Pi0 u = Y (x) X and
    sigma_I = [Y (x) fx; fy (x) X]; A_xx = diag(h_y) (x) A1x, A_yy = A1y
    (x) diag(h_x), M = diag(h_y) (x) diag(h_x), so each squared norm is a
    balanced 1-D distance.

    div sigma_I = lambda Pi0 u, and div sigma_h = (mu + nu) w (x) v + w (x)
    rx + ry (x) v, with mu v the D-projection of gx = G flux_x / h_x on v
    and rx the remainder (alike in y): the main part is one balanced
    distance, the remainder terms come from the 4x4 Gram matrices of (X,
    v, rx, v) and (Y, w, w, ry).  Expanding all four rank-one terms
    instead cancels, to 2.2e-5 of the value at 1024^2."""
    _require_fit(mesh, pair)
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
    return {
        "norm_sigma": float(np.sqrt(sigma_sq)),
        "norm_div": float(np.sqrt(div_sq + gram.sum())),
        "norm_u": float(np.sqrt(_tensor_distance_sq(v, w, X, Y, dx, dy))),
    }


def _require_fit(mesh, pair):
    """Each of the pair's four 1-D factors must have its length on the
    mesh."""
    want = {"v": mesh.n1, "w": mesh.n2,
            "flux_x": mesh.n1 + 1, "flux_y": mesh.n2 + 1}
    got = {name: len(getattr(pair, name)) for name in want}
    if got != want:
        raise LayoutMismatch(
            f"factor lengths {got} do not fit {mesh.n1} x {mesh.n2} cells")


def _gauss_table(nodes):
    """5-point Gauss points and weights of every cell, arrays (n, 5)."""
    mid = (nodes[:-1] + nodes[1:]) / 2.0
    half = (nodes[1:] - nodes[:-1]) / 2.0
    return mid[:, None] + half[:, None] * _GAUSS_X, half[:, None] * _GAUSS_W


def _interpolant(nodes, vals, pts, deriv):
    """The 1-D macro-element interpolant of ``vals`` (or its derivative)
    at the fine cells' points pts (n, g), in Newton form.  pts is viewed
    as (n / 2, 2g), one row per macro-element, cells 2e and 2e + 1, which
    needs the even n that postprocessing_norms checks.  Values on the
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


def postprocessing_norms(
    mesh: TensorMesh, pair: MixedEigenpair, fld: FieldSample
) -> dict[str, float]:
    """L2 (sigma_l2, u_l2) and broken H1-seminorm (sigma_h1, u_h1)
    distances of the macro-element reconstructions of the pair to the
    exact field, by 5x5 Gauss quadrature per fine cell.  The flux's x
    component interpolates flux_x in x and w in y, its y component v in x
    and flux_y in y; the scalar interpolates v in x and w in y.

    Each component, the exact field and each of their derivatives is a
    tensor product of 1-D factors, so every squared distance is a
    balanced 1-D distance over the (n1, 5) and (n2, 5) Gauss tables.  Each
    1-D interpolant and exact factor is taken once per derivative order
    and shared by the terms that read it."""
    _require_fit(mesh, pair)
    if mesh.n1 % 2 or mesh.n2 % 2:
        raise OddMeshDimensions("macro-elements need even cell counts, "
                                f"got {mesh.n1} x {mesh.n2}")
    xq, wx = _gauss_table(mesh.node_x)
    yq, wy = _gauss_table(mesh.node_y)
    # [value, derivative] of each 1-D interpolant
    sx, v = ([_interpolant(mesh.node_x, a, xq, d) for d in (0, 1)]
             for a in (pair.flux_x, pair.v))
    w, sy = ([_interpolant(mesh.node_y, a, yq, d) for d in (0, 1)]
             for a in (pair.w, pair.flux_y))
    # the exact factors, derivative orders 0, 1 and 2
    ex, ey = zip(*(fld.factors(xq, yq, d, d) for d in (0, 1, 2)))

    def dist_sq(x, y, f, g):
        return _tensor_distance_sq(x, y, f, g, _weights(wx), _weights(wy))

    # sigma = -grad u: sx against -u_x, sy against -u_y
    total = {
        "sigma_l2": dist_sq(sx[0], w[0], -ex[1], ey[0])
        + dist_sq(v[0], sy[0], -ex[0], ey[1]),
        "sigma_h1": dist_sq(sx[1], w[0], -ex[2], ey[0])
        + dist_sq(sx[0], w[1], -ex[1], ey[1])
        + dist_sq(v[1], sy[0], -ex[1], ey[1])
        + dist_sq(v[0], sy[1], -ex[0], ey[2]),
        "u_l2": dist_sq(v[0], w[0], ex[0], ey[0]),
        "u_h1": dist_sq(v[1], w[0], ex[1], ey[0])
        + dist_sq(v[0], w[1], ex[0], ey[1]),
    }
    return {key: float(np.sqrt(sq)) for key, sq in total.items()}
