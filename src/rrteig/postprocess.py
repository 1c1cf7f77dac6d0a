"""Supercloseness norms and macro-element postprocessing.

The postprocessing operators act on 2x2 blocks of cells of a mesh obtained
by uniform refinement.  The flux x component is rebuilt as a polynomial of
degree (2, 1) per macro-element interpolating the six vertical-edge DOF
values at (x-line, cell-row midpoint) nodes; the y component swaps roles;
the scalar is the bilinear through the four cell values at centroids.
All three reproduce global Q11 data exactly, which is the property the
superconvergence theory rests on.  A discrete pair is rank one, and so is
each reconstructed component: the product of an x and a y 1-D
interpolant, whose error norms reduce to 1-D Gauss sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import MixedSystem
from .eigensolve import MixedEigenpair
from .errors import LayoutMismatch, OddMeshDimensions
from .exact import FieldSample
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
    system: MixedSystem,
    pair: MixedEigenpair,
    sigma_I: np.ndarray,
    pi0_u: np.ndarray,
) -> SuperclosenessReport:
    """Exact norms of sigma_I - sigma_h, its divergence, and Pi0 u - u_h."""
    lay = system.layout
    if len(sigma_I) != lay.n_sigma or len(pi0_u) != lay.n_cell:
        raise LayoutMismatch(
            f"expected ({lay.n_sigma}, {lay.n_cell}) coefficients, got "
            f"({len(sigma_I)}, {len(pi0_u)})"
        )
    d = sigma_I - pair.sigma_coeffs
    e = pi0_u - pair.u_coeffs
    bd = system.B @ d
    return SuperclosenessReport(
        norm_sigma=float(np.sqrt(d @ (system.A @ d))),
        norm_div=float(np.sqrt(np.sum(bd * bd / system.M))),
        norm_u=float(np.sqrt(e @ (system.M * e))),
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


def _require_fit(mesh, pair, *names):
    """Macro-elements need even cell counts, and each named factor of the
    pair must have its length on the mesh."""
    if mesh.n1 % 2 or mesh.n2 % 2:
        raise OddMeshDimensions(
            f"macro-elements need even cell counts, got {mesh.n1} x {mesh.n2}"
        )
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


def _macro_basis(win, pts, deriv):
    """Closed-form 2- or 3-node Lagrange basis (deriv False) or its
    derivative over each fine cell's macro-element window nodes win (n, p),
    at that cell's points pts (n, g); returns (n, g, p)."""
    p = win.shape[1]
    out = np.empty(pts.shape + (p,))
    for a in range(p):
        # one linear factor (x - o) / (w_a - o) per other window node o
        others = [win[:, r, None] for r in range(p) if r != a]
        gaps = [win[:, a, None] - o for o in others]
        lin = [(pts - o) / g for o, g in zip(others, gaps)]
        if not deriv:
            out[..., a] = lin[0] if p == 2 else lin[0] * lin[1]
        elif p == 2:
            out[..., a] = np.broadcast_to(1.0 / gaps[0], pts.shape)
        else:
            out[..., a] = lin[1] / gaps[0] + lin[0] / gaps[1]
    return out


def _interpolant(nodes, vals, pts, deriv):
    """The 1-D macro-element interpolant of ``vals`` (or its derivative)
    at each fine cell's points pts (n, g), over the cell's window
    2 (i // 2) + arange(p): quadratic (p = 3) when the values sit on the
    n + 1 ``nodes``, linear (p = 2) when they sit at the n cell midpoints."""
    if len(vals) == len(nodes):
        at, p = nodes, 3
    else:
        at, p = (nodes[:-1] + nodes[1:]) / 2.0, 2
    win = 2 * (np.arange(len(pts)) // 2)[:, None] + np.arange(p)
    return np.einsum("iap,ip->ia", _macro_basis(at[win], pts, deriv), vals[win])


# per component of a field kind: (sign, dx, dy), the component
# approximates sign times the (dx, dy) derivative of u
_TARGETS = {"u": ((1.0, 0, 0),), "sigma": ((-1.0, 1, 0), (-1.0, 0, 1))}


def _dot(a, b, w):
    return float(np.sum(w * a * b))


def _tensor_distance_sq(x, y, f, g, wx, wy):
    """Squared distance of x (x) y to f (x) g in the tensor quadrature rule
    with 1-D weights wx, wy, by the split

        x (x) y - f (x) g = x (x) (y - g) + (x - f) (x) g.

    The factors are balanced first, x c and y / c with c = <x, f> / <x, x>:
    then x - f is orthogonal to x, the cross term 2 <x, x - f> <y - g, g>
    is at roundoff level and no term cancels another.  Without balancing
    the cross terms cancel and lose about 1e-6 relative at 512^2."""
    c = _dot(x, f, wx)
    c = c / _dot(x, x, wx) if c else 1.0
    x, y = x * c, y / c
    ex, ey = x - f, y - g
    return (_dot(x, x, wx) * _dot(ey, ey, wy)
            + 2.0 * _dot(x, ex, wx) * _dot(ey, g, wy)
            + _dot(ex, ex, wx) * _dot(g, g, wy))


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
                sign * f, g, wx, wy)
    return float(np.sqrt(total))
