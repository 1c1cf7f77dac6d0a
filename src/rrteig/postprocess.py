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
    level: int
    h: float


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
    from .mesh import mesh_size

    return SuperclosenessReport(
        norm_sigma=float(np.sqrt(d @ (system.A @ d))),
        norm_div=float(np.sqrt(np.sum(bd * bd / system.M))),
        norm_u=float(np.sqrt(e @ (system.M * e))),
        level=system.mesh.level,
        h=mesh_size(system.mesh),
    )


def _lagrange_basis(nodes, x):
    """Values of the Lagrange basis over 1-D ``nodes`` at points ``x``;
    returns shape x.shape + (len(nodes),)."""
    nodes = np.asarray(nodes, dtype=float)
    x = np.asarray(x, dtype=float)
    p = len(nodes)
    out = np.ones(x.shape + (p,))
    for a in range(p):
        for r in range(p):
            if r != a:
                out[..., a] *= (x - nodes[r]) / (nodes[a] - nodes[r])
    return out


def _lagrange_basis_deriv(nodes, x):
    """Derivatives of the Lagrange basis over 1-D ``nodes`` at ``x``."""
    nodes = np.asarray(nodes, dtype=float)
    x = np.asarray(x, dtype=float)
    p = len(nodes)
    out = np.zeros(x.shape + (p,))
    for a in range(p):
        for r in range(p):
            if r == a:
                continue
            term = np.full(x.shape, 1.0 / (nodes[a] - nodes[r]))
            for s in range(p):
                if s not in (a, r):
                    term *= (x - nodes[s]) / (nodes[a] - nodes[s])
            out[..., a] += term
    return out


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

    def eval_cell(self, i, j, x, y, deriv=None):
        """Evaluate on fine cell (i, j) at points x, y (arrays).

        deriv None -> values; 'x' or 'y' -> that partial derivative.
        For kind 'sigma' returns (sx, sy); for 'u' a single array.
        """
        I, J = i // 2, j // 2
        nx, ny, xc, yc = self._macro_nodes()

        def basis(nodes, pts, d):
            if d:
                return _lagrange_basis_deriv(nodes, pts)
            return _lagrange_basis(nodes, pts)

        if self.kind == "u":
            bx = basis(xc[2 * I : 2 * I + 2], x, deriv == "x")
            by = basis(yc[2 * J : 2 * J + 2], y, deriv == "y")
            return np.einsum("...p,...q,pq->...", bx, by, self.u_vals[I, J])
        bx = basis(nx[2 * I : 2 * I + 3], x, deriv == "x")
        by = basis(yc[2 * J : 2 * J + 2], y, deriv == "y")
        sx = np.einsum("...p,...q,pq->...", bx, by, self.sx_vals[I, J])
        bx2 = basis(xc[2 * I : 2 * I + 2], x, deriv == "x")
        by2 = basis(ny[2 * J : 2 * J + 3], y, deriv == "y")
        sy = np.einsum("...p,...q,pq->...", bx2, by2, self.sy_vals[I, J])
        return sx, sy


def _require_even(mesh):
    if mesh.n1 % 2 or mesh.n2 % 2:
        raise OddMeshDimensions(
            f"macro-elements need even cell counts, got {mesh.n1} x {mesh.n2}"
        )


def i2h_sigma(mesh: TensorMesh, sigma_h: np.ndarray) -> PostprocessedField:
    """Macro-element flux reconstruction from edge DOF values."""
    _require_even(mesh)
    from .assembly import layout

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


def _quad_points(x0, x1):
    mid, half = (x0 + x1) / 2.0, (x1 - x0) / 2.0
    return mid + half * _GAUSS_X, half * _GAUSS_W


def error_norms_postprocessed(
    field: PostprocessedField, exact: FieldSample, order: int = 0
) -> float:
    """L2 (order 0) or broken H1-seminorm (order 1) distance to the exact
    field, by 5x5 Gauss quadrature per fine cell."""
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    mesh = field.mesh
    nx, ny = mesh.node_x, mesh.node_y
    total = 0.0
    for j in range(mesh.n2):
        yq, wy = _quad_points(ny[j], ny[j + 1])
        for i in range(mesh.n1):
            xq, wx = _quad_points(nx[i], nx[i + 1])
            xg, yg = np.meshgrid(xq, yq)
            w = np.outer(wy, wx)
            if order == 0:
                if field.kind == "sigma":
                    sx, sy = field.eval_cell(i, j, xg, yg)
                    ex, ey = exact.sigma(xg, yg)
                    total += np.sum(w * ((sx - ex) ** 2 + (sy - ey) ** 2))
                else:
                    v = field.eval_cell(i, j, xg, yg)
                    total += np.sum(w * (v - exact.u(xg, yg)) ** 2)
            else:
                if field.kind == "sigma":
                    sxdx, sydx = field.eval_cell(i, j, xg, yg, deriv="x")
                    sxdy, sydy = field.eval_cell(i, j, xg, yg, deriv="y")
                    exdx, eydx = -exact.uxx(xg, yg), -exact.uxy(xg, yg)
                    exdy, eydy = -exact.uxy(xg, yg), -exact.uyy(xg, yg)
                    total += np.sum(
                        w * (
                            (sxdx - exdx) ** 2 + (sxdy - exdy) ** 2
                            + (sydx - eydx) ** 2 + (sydy - eydy) ** 2
                        )
                    )
                else:
                    vdx = field.eval_cell(i, j, xg, yg, deriv="x")
                    vdy = field.eval_cell(i, j, xg, yg, deriv="y")
                    total += np.sum(
                        w * (
                            (vdx - exact.ux(xg, yg)) ** 2
                            + (vdy - exact.uy(xg, yg)) ** 2
                        )
                    )
    return float(np.sqrt(total))
