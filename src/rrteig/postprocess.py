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
postprocessing_norms, gives all four error norms of a level: each 1-D
interpolant is taken once, value and derivative from the divided
differences of each macro-element, and the nine distances are one
stacked pass (_distance_sq).  The supercloseness norms reduce alike, to
1-D sums of the pair's factors and of the exact field's cell means.
"""

from __future__ import annotations

import numpy as np

from .eigensolve import MixedEigenpair, _a1_bands, _a1_times
from .errors import DegenerateFactor, LayoutMismatch, OddMeshDimensions
from .exact import FieldSample, _require_domain, cell_mean_factors
from .mesh import TensorMesh

_GAUSS_N = 5
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(_GAUSS_N)
# the nine squared distances of postprocessing_norms: key and rows (x, y, f,
# g) of the x table [sx, sx', v, v', e, e', e'', -e, -e', -e''] and the y
# table [w, w', sy, sy', g, g', g''], e and g the exact factors (sigma: -e)
_TERMS = (("sigma_l2", 0, 0, 8, 4), ("sigma_l2", 2, 2, 7, 5),
          ("sigma_h1", 1, 0, 9, 4), ("sigma_h1", 0, 1, 8, 5),
          ("sigma_h1", 3, 2, 8, 5), ("sigma_h1", 2, 3, 7, 6),
          ("u_l2", 2, 0, 4, 4), ("u_h1", 3, 0, 5, 4), ("u_h1", 2, 1, 4, 5))
_KEYS = [t[0] for t in _TERMS]
_X, _Y, _F, _G = np.array([t[1:] for t in _TERMS]).T


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
    _require_fit(mesh, pair.v, pair.w, pair.flux_x, pair.flux_y)
    _require_domain(mesh, [fld])
    v, w, hx, hy = pair.v, pair.w, mesh.hx, mesh.hy
    X, Y = cell_mean_factors(mesh, fld)
    fx, fy = (-f[1] for f in fld.factors(mesh.node_x, mesh.node_y))
    dx, dy = (lambda a: hx * a), (lambda a: hy * a)
    a1x, a1y = ((lambda a, d=_a1_bands(h): _a1_times(*d, a))  # on rows
                for h in (hx, hy))
    sigma_sq = (_distance_sq(pair.flux_x[None], w[None], fx[None], Y[None],
                             a1x, dy)
                + _distance_sq(pair.flux_y[None], v[None], fy[None], X[None],
                               a1y, dx))[0]
    gx = (pair.flux_x[1:] - pair.flux_x[:-1]) / hx
    gy = (pair.flux_y[1:] - pair.flux_y[:-1]) / hy
    hv, hw = hx * v, hy * w
    mu, nu = (hv * gx).sum() / (hv * v).sum(), (hw * gy).sum() / (hw * w).sum()
    xs, ys = np.array([X, v, gx - mu * v, v]), np.array([Y, w, w, gy - nu * w])
    coef = np.array([fld.value, -(mu + nu), -1.0, -1.0])
    gram = np.outer(coef, coef) * ((xs * hx) @ xs.T) * ((ys * hy) @ ys.T)
    gram[:2, :2] = 0.0  # the main part, taken balanced
    # the main part of the divergence and Pi0 u - u_h, stacked
    div_sq, u_sq = _distance_sq(
        np.array([(mu + nu) * v, v]), np.array([w, w]),
        np.array([fld.value * X, X]), np.array([Y, Y]), dx, dy)
    return {"norm_sigma": float(np.sqrt(sigma_sq)),
            "norm_div": float(np.sqrt(div_sq + gram.sum())),
            "norm_u": float(np.sqrt(u_sq))}


def _require_fit(mesh, v, w, flux_x, flux_y, normed=True):
    """A pair's four 1-D factors, or tables of them (a column per pair or
    mode), must fit the mesh, and with ``normed`` no v or w be all zeros,
    as a pair's norms divide by theirs: the column maxima of |v| and |w|,
    which are returned, hold that test."""
    got = (len(v), len(w), len(flux_x), len(flux_y))
    if got != (mesh.n1, mesh.n2, mesh.n1 + 1, mesh.n2 + 1):
        raise LayoutMismatch(f"factor lengths (v, w, flux_x, flux_y) {got} "
                             f"do not fit {mesh.n1} x {mesh.n2} cells")
    peaks = (np.abs(v).max(axis=0), np.abs(w).max(axis=0)) if normed else ()
    for name, peak in zip("vw", peaks):
        if not peak.all():
            col = np.ravel(peak).tolist().index(0.0)
            raise DegenerateFactor(f"{name} factor {col} is all zeros")
    return peaks


def _gauss_table(nodes):
    """5-point Gauss points and weights of every cell, arrays (n, 5)."""
    mid = (nodes[:-1] + nodes[1:]) / 2.0
    half = (nodes[1:] - nodes[:-1]) / 2.0
    return mid[:, None] + half[:, None] * _GAUSS_X, half[:, None] * _GAUSS_W


def _interpolant(nodes, vals, pts):
    """The 1-D macro-element interpolant of ``vals`` and its derivative at
    the fine cells' points pts (n, g), in Newton form, a pair of arrays.
    pts is viewed as (n / 2, 2g), one row per macro-element, cells 2e and
    2e + 1, which needs the even n that postprocessing_norms checks.
    Values on the n + 1 ``nodes`` take the quadratic through the element's
    lines w0, w1, w2, f0 + (x - w0) (d1 + d2 (x - w1)), derivative d1 + d2
    ((x - w0) + (x - w1)), with d1 = f[w0, w1] and d2 = f[w0, w1, w2];
    values at the n cell midpoints take the linear through two, d2 = 0."""
    quadratic = len(vals) == len(nodes)
    w, f = nodes if quadratic else (nodes[:-1] + nodes[1:]) / 2.0, vals
    d1 = (f[1::2] - f[:-1:2]) / (w[1::2] - w[:-1:2])
    d2 = (((f[2::2] - f[1::2]) / (w[2::2] - w[1::2]) - d1)
          / (w[2::2] - w[:-1:2]))[:, None] if quadratic else 0.0
    x = pts.reshape(len(pts) // 2, -1)
    x0, x1, d1 = x - w[:-1:2, None], x - w[1::2, None], d1[:, None]
    return (np.reshape(f[:-1:2, None] + x0 * (d1 + d2 * x1), pts.shape),
            np.reshape(d1 + d2 * (x0 + x1), pts.shape))


def _distance_sq(x, y, f, g, mx, my):
    """Squared distances of x_t (x) y_t to f_t (x) g_t, one per row t of
    the stacks x, f in the 1-D metric mx and y, g in my (each maps a
    stack to the metric times each row), by the split

        x (x) y - f (x) g = x (x) (y - g) + (x - f) (x) g.

    The factors are balanced first, x c and y / c with c = <x, f> / <x, x>:
    then x - f is orthogonal to x, the cross term 2 <x, x - f> <y - g, g>
    is at roundoff level and no term cancels another.  Without balancing
    the cross terms cancel and lose about 1e-6 relative at 512^2.  Each
    metric is applied once per stack, each inner product is one sum per
    row, and each stack is dropped after its last use."""
    dots = lambda ma, *bs: [np.add.reduce(ma * b, axis=1) for b in bs]
    c = np.array([[a / b if a else 1.0] for a, b in zip(*dots(mx(x), f, x))])
    x, y = x * c, y / c
    ex, ey = x - f, y - g
    del f, y
    (xx, x_ex), (ex_ex,) = dots(mx(x), x, ex), dots(mx(ex), ex)
    (ey_ey, ey_g), (gg,) = dots(my(ey), ey, g), dots(my(g), g)
    return xx * ey_ey + 2.0 * x_ex * ey_g + ex_ex * gg


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
    balanced 1-D distance over the (n1, 5) and (n2, 5) Gauss tables.  One
    table per direction holds each 1-D interpolant and exact factor of
    each derivative order once, and the nine distances (_TERMS) read
    their rows from it in one stacked pass, in O(n1 + n2) memory."""
    _require_fit(mesh, pair.v, pair.w, pair.flux_x, pair.flux_y, normed=False)
    if mesh.n1 % 2 or mesh.n2 % 2:
        raise OddMeshDimensions("macro-elements need even cell counts, "
                                f"got {mesh.n1} x {mesh.n2}")
    _require_domain(mesh, [fld])
    (xq, wx), (yq, wy) = _gauss_table(mesh.node_x), _gauss_table(mesh.node_y)
    ex, ey = fld.factors(xq, yq)
    xs = np.array([*_interpolant(mesh.node_x, pair.flux_x, xq),
                   *_interpolant(mesh.node_x, pair.v, xq), *ex, *-ex])
    ys = np.array([*_interpolant(mesh.node_y, pair.w, yq),
                   *_interpolant(mesh.node_y, pair.flux_y, yq), *ey])
    xs, ys = xs.reshape(len(xs), -1), ys.reshape(len(ys), -1)
    wx, wy = wx.ravel(), wy.ravel()
    del ex, ey, xq, yq  # only the tables and stacks are alive at the peak
    sq = _distance_sq(xs[_X], ys[_Y], xs[_F], ys[_G],
                      lambda a: wx * a, lambda a: wy * a)
    total = dict.fromkeys(_KEYS, 0.0)
    for key, term in zip(_KEYS, sq.tolist()):
        total[key] += term
    return {key: float(np.sqrt(sq)) for key, sq in total.items()}
