"""Supercloseness norms and macro-element postprocessing.

The postprocessing operators act on 2x2 blocks of cells of a mesh obtained
by uniform refinement.  The flux x component is rebuilt as a polynomial of
degree (2, 1) per macro-element interpolating the six vertical-edge DOF
values at (x-line, cell-row midpoint) nodes; the y component swaps roles;
the scalar is the bilinear through the four cell values at centroids.
All three reproduce global Q11 data exactly, which is the property the
superconvergence theory rests on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import MixedSystem, layout
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
    """Per-macro-element polynomial reconstruction.

    kind 'sigma': component values sx_vals (mx, my, 3, 2) on the x-line /
    row-midpoint grid and sy_vals (mx, my, 2, 3) on the column-midpoint /
    y-line grid.  kind 'u': u_vals (mx, my, 2, 2) at cell centroids.
    The interpolation nodes are recovered from the mesh.
    """

    mesh: TensorMesh
    kind: str
    sx_vals: np.ndarray | None = None
    sy_vals: np.ndarray | None = None
    u_vals: np.ndarray | None = None

    def _macro_nodes(self):
        nx, ny = self.mesh.node_x, self.mesh.node_y
        xc = (nx[:-1] + nx[1:]) / 2.0  # cell column midpoints
        yc = (ny[:-1] + ny[1:]) / 2.0  # cell row midpoints
        return nx, ny, xc, yc


def _require_even(mesh):
    if mesh.n1 % 2 or mesh.n2 % 2:
        raise OddMeshDimensions(
            f"macro-elements need even cell counts, got {mesh.n1} x {mesh.n2}"
        )


def i2h_sigma(mesh: TensorMesh, sigma_h: np.ndarray) -> PostprocessedField:
    """Macro-element flux reconstruction from edge DOF values."""
    _require_even(mesh)
    lay = layout(mesh)
    if len(sigma_h) != lay.n_sigma:
        raise LayoutMismatch("sigma coefficient length mismatch")
    n1, n2 = mesh.n1, mesh.n2
    mx, my = n1 // 2, n2 // 2
    sx_grid = sigma_h[: lay.n_xedge].reshape(n2, n1 + 1)  # [row j, line i]
    sy_grid = sigma_h[lay.n_xedge :].reshape(n2 + 1, n1)  # [line j, col i]

    sx_vals = np.empty((mx, my, 3, 2))
    for p in range(3):
        for q in range(2):
            sx_vals[:, :, p, q] = sx_grid[q::2, p::2][:my, :mx].T
    sy_vals = np.empty((mx, my, 2, 3))
    for p in range(2):
        for q in range(3):
            sy_vals[:, :, p, q] = sy_grid[q::2, p::2][:my, :mx].T
    return PostprocessedField(mesh=mesh, kind="sigma", sx_vals=sx_vals,
                              sy_vals=sy_vals)


def j2h_u(mesh: TensorMesh, u_h: np.ndarray) -> PostprocessedField:
    """Bilinear reconstruction of the scalar from cell values at centroids."""
    _require_even(mesh)
    if len(u_h) != mesh.n_cells:
        raise LayoutMismatch("u coefficient length mismatch")
    n1, n2 = mesh.n1, mesh.n2
    mx, my = n1 // 2, n2 // 2
    grid = u_h.reshape(n2, n1)
    u_vals = np.empty((mx, my, 2, 2))
    for p in range(2):
        for q in range(2):
            u_vals[:, :, p, q] = grid[q::2, p::2].T
    return PostprocessedField(mesh=mesh, kind="u", u_vals=u_vals)


def _gauss_table(nodes):
    """5-point Gauss points and weights of every cell, arrays (n, 5)."""
    mid = (nodes[:-1] + nodes[1:]) / 2.0
    half = (nodes[1:] - nodes[:-1]) / 2.0
    return mid[:, None] + half[:, None] * _GAUSS_X, half[:, None] * _GAUSS_W


def _macro_basis(nodes, p, pts, deriv):
    """Closed-form 2- or 3-node Lagrange basis (deriv False) or its
    derivative, over each fine cell's macro-element window
    nodes[2 (i // 2) + arange(p)], at that cell's points pts (n, g);
    returns (n, g, p)."""
    start = 2 * (np.arange(len(pts)) // 2)
    win = nodes[start[:, None] + np.arange(p)]  # (n, p)
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


def _components(field):
    """(macro values, x nodes, y nodes, sign, dx, dy) per reconstructed
    component: it approximates sign times the (dx, dy) derivative of u."""
    nx, ny, xc, yc = field._macro_nodes()
    if field.kind == "u":
        return [(field.u_vals, xc, yc, 1.0, 0, 0)]
    return [(field.sx_vals, nx, yc, -1.0, 1, 0),
            (field.sy_vals, xc, ny, -1.0, 0, 1)]


def error_norms_postprocessed(
    field: PostprocessedField, exact: FieldSample, order: int = 0
) -> float:
    """L2 (order 0) or broken H1-seminorm (order 1) distance to the exact
    field, by 5x5 Gauss quadrature per fine cell.

    The mesh and the exact field are tensor products, so every term is
    evaluated on the whole (n1, 5) x (n2, 5) Gauss grid at once."""
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    mesh = field.mesh
    xq, wx = _gauss_table(mesh.node_x)
    yq, wy = _gauss_table(mesh.node_y)
    total = 0.0
    for vals, xn, yn, sign, ex, ey in _components(field):
        fine = vals.repeat(2, axis=0).repeat(2, axis=1)  # (n1, n2, p, q)
        for dx, dy in ((0, 0),) if order == 0 else ((1, 0), (0, 1)):
            bx = _macro_basis(xn, vals.shape[2], xq, dx)
            by = _macro_basis(yn, vals.shape[3], yq, dy)
            # not optimize=True: its BLAS path reorders the (p, q) sums and
            # moved the 128^2 norms of preset a by 1e-13; this pass sums the
            # (p, q) terms of each point in turn and builds no intermediate
            diff = np.einsum("iap,jbq,ijpq->iajb", bx, by, fine)
            diff -= sign * exact.derivative(xq[:, :, None, None], yq,
                                            ex + dx, ey + dy)
            total += np.einsum("ia,iajb,jb->", wx, diff * diff, wy,
                               optimize=True)
    return float(np.sqrt(total))
