"""DOF enumeration and exact sparse assembly for the mixed and enriched
rotated-bilinear discretizations.

All element matrices are hard-coded closed forms; no runtime quadrature is
involved, so assembly introduces no integration error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import TensorMesh


@dataclass(frozen=True)
class DofLayout:
    """Degree-of-freedom enumeration shared by the flux and edge spaces.

    Vertical (x-normal) edge DOFs come first, ordered like the node grid
    (line index i fast, cell row j slow); horizontal (y-normal) edge DOFs
    follow; cell DOFs are row-major over cells.
    """

    n1: int
    n2: int

    @property
    def n_xedge(self) -> int:
        return (self.n1 + 1) * self.n2

    @property
    def n_yedge(self) -> int:
        return self.n1 * (self.n2 + 1)

    @property
    def n_sigma(self) -> int:
        return self.n_xedge + self.n_yedge

    @property
    def n_cell(self) -> int:
        return self.n1 * self.n2

    def xedge_index(self, i, j):
        """DOF index of the vertical edge on line x_i in cell row j."""
        return j * (self.n1 + 1) + i

    def yedge_index(self, i, j):
        """DOF index of the horizontal edge on line y_j in cell column i."""
        return self.n_xedge + j * self.n1 + i

    def cell_index(self, i, j):
        return j * self.n1 + i


def layout(mesh: TensorMesh) -> DofLayout:
    return DofLayout(mesh.n1, mesh.n2)


@dataclass(frozen=True)
class MixedSystem:
    """Assembled matrices of the mixed discretization.

    A : flux mass matrix (sigma, tau), SPD, size n_sigma.
    B : integrated divergence, n_cell x n_sigma; entry (K, j) is the
        integral over K of div phi_j.  The pointwise divergence on K is
        (B tau)_K / |K|.
    M : diagonal of cell areas |K| (1-D array).
    """

    A: sp.csr_matrix
    B: sp.csr_matrix
    M: np.ndarray
    layout: DofLayout
    mesh: TensorMesh


def _cell_arrays(mesh: TensorMesh):
    n1, n2 = mesh.n1, mesh.n2
    ii, jj = np.meshgrid(np.arange(n1), np.arange(n2))
    ii, jj = ii.ravel(), jj.ravel()  # row-major: i fast
    hx = mesh.hx[ii]
    hy = mesh.hy[jj]
    return ii, jj, hx, hy


def assemble_mixed(mesh: TensorMesh) -> MixedSystem:
    """Assemble A, B, M from closed-form element matrices.

    Local shape functions on K = [x_l, x_r] x [y_b, y_t] for the x
    component are (x_r - x)/h_x and (x - x_l)/h_x attached to the left and
    right vertical edges; the DOF is the (constant) normal component with
    the normal pointing in +x.  Analogously in y.
    """
    lay = layout(mesh)
    ii, jj, hx, hy = _cell_arrays(mesh)
    area = mesh.cell_areas

    left = lay.xedge_index(ii, jj)
    right = lay.xedge_index(ii + 1, jj)
    bottom = lay.yedge_index(ii, jj)
    top = lay.yedge_index(ii, jj + 1)

    # A: per cell, block [[|K|/3, |K|/6], [|K|/6, |K|/3]] in each direction.
    a3 = area / 3.0
    a6 = area / 6.0
    rows = np.concatenate(
        [left, left, right, right, bottom, bottom, top, top]
    )
    cols = np.concatenate(
        [left, right, left, right, bottom, top, bottom, top]
    )
    vals = np.concatenate([a3, a6, a6, a3, a3, a6, a6, a3])
    n_sig = lay.n_sigma
    A = sp.coo_matrix((vals, (rows, cols)), shape=(n_sig, n_sig)).tocsr()

    # B: integrated divergence, +/- edge length per edge DOF.
    cell = lay.cell_index(ii, jj)
    b_rows = np.concatenate([cell, cell, cell, cell])
    b_cols = np.concatenate([right, left, top, bottom])
    b_vals = np.concatenate([hy, -hy, hx, -hx])
    B = sp.coo_matrix((b_vals, (b_rows, b_cols)), shape=(lay.n_cell, n_sig)).tocsr()

    return MixedSystem(A=A, B=B, M=area, layout=lay, mesh=mesh)


# ---------------------------------------------------------------------------
# Enriched rotated-bilinear (edge-mean continuous) space.
#
# Local space on each cell is span{1, x, y, x^2, y^2}.  The local basis is
# dual to five integral DOFs: the integral over each of the four edges and
# the integral over the cell.  On the reference cell [-1,1]^2 the DOF
# matrix of the monomial basis (rows: left, right, bottom, top, cell) is
# inverted once; physical basis functions are the mapped reference ones
# scaled so that the physical integrals stay unit.
# ---------------------------------------------------------------------------

_DOF_MONOMIAL = np.array(
    [
        # 1     x     y     x^2      y^2
        [2.0, -2.0, 0.0, 2.0, 2.0 / 3.0],  # integral over left edge
        [2.0, 2.0, 0.0, 2.0, 2.0 / 3.0],   # right edge
        [2.0, 0.0, -2.0, 2.0 / 3.0, 2.0],  # bottom edge
        [2.0, 0.0, 2.0, 2.0 / 3.0, 2.0],   # top edge
        [4.0, 0.0, 0.0, 4.0 / 3.0, 4.0 / 3.0],  # cell
    ]
)
# columns = dual basis functions in the monomial basis
_REF_COEFFS = np.linalg.inv(_DOF_MONOMIAL)

# reference gradient Gram matrices of the monomials over [-1,1]^2
_GXX_MONO = np.zeros((5, 5))
_GXX_MONO[1, 1] = 4.0
_GXX_MONO[3, 3] = 16.0 / 3.0
_GYY_MONO = np.zeros((5, 5))
_GYY_MONO[2, 2] = 4.0
_GYY_MONO[4, 4] = 16.0 / 3.0

_GXX_REF = _REF_COEFFS.T @ _GXX_MONO @ _REF_COEFFS
_GYY_REF = _REF_COEFFS.T @ _GYY_MONO @ _REF_COEFFS

# d/dxi of the dual basis at xi = -1 and xi = +1 (constant in eta), and
# d/deta at eta = -/+1; used to read off the cellwise gradient.
_DXI_AT = {
    -1: _REF_COEFFS[1] - 2.0 * _REF_COEFFS[3],
    +1: _REF_COEFFS[1] + 2.0 * _REF_COEFFS[3],
}
_DETA_AT = {
    -1: _REF_COEFFS[2] - 2.0 * _REF_COEFFS[4],
    +1: _REF_COEFFS[2] + 2.0 * _REF_COEFFS[4],
}


@dataclass(frozen=True)
class PeqSystem:
    """Assembled matrices of the projected enriched rotated-bilinear scheme.

    DOFs are the edge integrals (same enumeration as the flux edge DOFs)
    followed by the cell integrals; boundary edge DOFs are eliminated.

    K       : stiffness (grad_h u, grad_h v) on the free DOFs, SPD.
    M0_diag : diagonal of the projected mass (Pi0 u, Pi0 v) on the free
              DOFs: zero on edge DOFs, 1/|K| on cell DOFs.
    free    : global DOF indices of the free unknowns (edges first, cells
              after); ``n_edge_free`` of them are edges.
    """

    K: sp.csr_matrix
    M0_diag: np.ndarray
    layout: DofLayout
    mesh: TensorMesh
    free: np.ndarray
    n_edge_free: int

    @property
    def n_cell(self) -> int:
        return self.layout.n_cell


def peq_local_matrices(hx, hy):
    """Local stiffness in the physical integral-DOF basis.

    ``hx``/``hy`` may be arrays (one entry per cell); returns an array of
    shape (..., 5, 5).
    """
    hx = np.asarray(hx, dtype=float)
    hy = np.asarray(hy, dtype=float)
    # scaling of the physical dual basis: integral DOFs stay unit
    alpha = np.stack(
        [2.0 / hy, 2.0 / hy, 2.0 / hx, 2.0 / hx, 4.0 / (hx * hy)], axis=-1
    )
    gxx = _GXX_REF * (hy / hx)[..., None, None]
    gyy = _GYY_REF * (hx / hy)[..., None, None]
    return alpha[..., :, None] * (gxx + gyy) * alpha[..., None, :]


def assemble_peq(mesh: TensorMesh) -> PeqSystem:
    """Assemble stiffness and projected mass of the enriched space."""
    lay = layout(mesh)
    ii, jj, hx, hy = _cell_arrays(mesh)
    area = mesh.cell_areas
    n1, n2 = lay.n1, lay.n2

    cell_dofs = lay.n_sigma + lay.cell_index(ii, jj)
    loc_dofs = np.stack(
        [
            lay.xedge_index(ii, jj),      # left
            lay.xedge_index(ii + 1, jj),  # right
            lay.yedge_index(ii, jj),      # bottom
            lay.yedge_index(ii, jj + 1),  # top
            cell_dofs,
        ],
        axis=-1,
    )  # (n_cell, 5)

    k_loc = peq_local_matrices(hx, hy)  # (n_cell, 5, 5)
    rows = np.repeat(loc_dofs, 5, axis=1).ravel()
    cols = np.tile(loc_dofs, (1, 5)).ravel()
    n_tot = lay.n_sigma + lay.n_cell
    K_full = sp.coo_matrix(
        (k_loc.ravel(), (rows, cols)), shape=(n_tot, n_tot)
    ).tocsr()

    # free DOFs: interior edges + all cells
    interior = np.ones(n_tot, dtype=bool)
    rows_j = np.arange(n2)
    interior[lay.xedge_index(0, rows_j)] = False
    interior[lay.xedge_index(n1, rows_j)] = False
    cols_i = np.arange(n1)
    interior[lay.yedge_index(cols_i, 0)] = False
    interior[lay.yedge_index(cols_i, n2)] = False
    free = np.flatnonzero(interior)
    n_edge_free = int(np.count_nonzero(free < lay.n_sigma))

    K = K_full[free][:, free].tocsr()
    m0 = np.zeros(len(free))
    m0[n_edge_free:] = 1.0 / area  # cell DOFs keep row-major order
    return PeqSystem(
        K=K, M0_diag=m0, layout=lay, mesh=mesh, free=free,
        n_edge_free=n_edge_free,
    )


def peq_cell_gradient(mesh: TensorMesh, coeffs_full: np.ndarray):
    """Edge values of the cellwise gradient of an enriched-space function.

    ``coeffs_full`` holds all integral DOFs (edges then cells, boundary
    included).  The x component of the gradient is linear in x and constant
    in y, so it is determined by its values on the left and right edges of
    each cell; analogously in y.  Returns (gxL, gxR, gyB, gyT), each of
    length n_cell in row-major cell order.
    """
    lay = layout(mesh)
    ii, jj, hx, hy = _cell_arrays(mesh)
    loc = np.stack(
        [
            coeffs_full[lay.xedge_index(ii, jj)],
            coeffs_full[lay.xedge_index(ii + 1, jj)],
            coeffs_full[lay.yedge_index(ii, jj)],
            coeffs_full[lay.yedge_index(ii, jj + 1)],
            coeffs_full[lay.n_sigma + lay.cell_index(ii, jj)],
        ],
        axis=-1,
    )  # (n_cell, 5)
    alpha = np.stack(
        [2.0 / hy, 2.0 / hy, 2.0 / hx, 2.0 / hx, 4.0 / (hx * hy)], axis=-1
    )
    w = loc * alpha
    gxL = (2.0 / hx) * (w @ _DXI_AT[-1])
    gxR = (2.0 / hx) * (w @ _DXI_AT[+1])
    gyB = (2.0 / hy) * (w @ _DETA_AT[-1])
    gyT = (2.0 / hy) * (w @ _DETA_AT[+1])
    return gxL, gxR, gyB, gyT

