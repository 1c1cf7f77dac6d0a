"""DOF enumeration and exact sparse assembly for the mixed
discretization.

All element matrices are hard-coded closed forms; no runtime quadrature is
involved, so assembly introduces no integration error.  On a tensor mesh
the DOF layout fixes the sparsity pattern of the mixed matrices, so
``assemble_mixed`` writes them straight into CSR arrays, row by row, with
no scatter, sort or duplicate summing.
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


def _put(data: np.ndarray, cols: np.ndarray, *slots) -> None:
    """Fill CSR rows of ``len(slots)`` entries each, in row order: slot s
    of every row takes the next value and column of ``slots[s]``, a pair
    of arrays."""
    w = len(slots)
    for s, (v, c) in enumerate(slots):
        data[s::w] = v.ravel()
        cols[s::w] = c.ravel()


def assemble_mixed(mesh: TensorMesh) -> MixedSystem:
    """Assemble A, B, M from closed-form element matrices.

    Local shape functions on K = [x_l, x_r] x [y_b, y_t] for the x
    component are (x_r - x)/h_x and (x - x_l)/h_x attached to the left and
    right vertical edges; the DOF is the (constant) normal component with
    the normal pointing in +x.  Analogously in y.

    The layout fixes the sparsity pattern, so A and B are written straight
    into CSR arrays, with sorted column indices and no duplicates.  Row r
    of A couples an x-edge to r - 1, r, r + 1 and a y-edge to r - n1, r,
    r + n1; a boundary edge has one neighbour only.  Its diagonal is |K|/3
    summed over the one or two cells on the edge, the couplings are |K|/6
    of the cell between.  Row K of B holds the left, right, bottom and top
    edges of K.
    """
    lay = layout(mesh)
    n1, n2 = lay.n1, lay.n2
    n_x, n_sig = lay.n_xedge, lay.n_sigma
    area = mesh.cell_areas

    # A: per cell, block [[|K|/3, |K|/6], [|K|/6, |K|/3]] in each direction.
    a3 = (area / 3.0).reshape(n2, n1)
    a6 = (area / 6.0).reshape(n2, n1)
    nnz_x = n2 * (3 * n1 + 1)
    nnz = nnz_x + n1 * (3 * n2 + 1)
    # scipy's own index dtype for this size, so the CSR constructor takes
    # the arrays as they are, and A and B match a COO-built matrix.
    idx = np.int32 if max(nnz, n_sig) <= np.iinfo(np.int32).max else np.int64
    data = np.empty(nnz)
    cols = np.empty(nnz, dtype=idx)

    # x-edges, one cell row at a time: [d, u], [l, d, u] ..., [l, d];
    # edge i's upper and edge i + 1's lower are both cell i's |K|/6.
    xd = data[:nnz_x].reshape(n2, 3 * n1 + 1)
    xc = cols[:nnz_x].reshape(n2, 3 * n1 + 1)
    r = np.arange(n_x, dtype=idx).reshape(n2, n1 + 1)
    diag = np.zeros((n2, n1 + 1))
    diag[:, :-1] = a3
    diag[:, 1:] += a3
    xd[:, 0::3] = diag
    xd[:, 1::3] = a6
    xd[:, 2::3] = a6
    xc[:, 0::3] = r
    xc[:, 1::3] = r[:, 1:]
    xc[:, 2::3] = r[:, :-1]

    # y-edges, row-major: the rows of the bottom line hold [d, u], those
    # of the interior lines [l, d, u] and those of the top line [l, d];
    # l and u are |K|/6 of the cell below and above.
    yd, yc = data[nnz_x:], cols[nnz_x:]
    diag = np.zeros((n2 + 1, n1))
    diag[:-1] = a3
    diag[1:] += a3
    r = np.arange(n_x, n_sig, dtype=idx).reshape(n2 + 1, n1)
    head, tail = slice(0, 2 * n1), slice(len(yd) - 2 * n1, None)
    body = slice(2 * n1, len(yd) - 2 * n1)
    _put(yd[head], yc[head], (diag[0], r[0]), (a6[0], r[0] + n1))
    _put(
        yd[body], yc[body],
        (a6[:-1], r[1:-1] - n1), (diag[1:-1], r[1:-1]), (a6[1:], r[1:-1] + n1),
    )
    _put(yd[tail], yc[tail], (a6[-1], r[-1] - n1), (diag[-1], r[-1]))

    # three entries a row, two in the rows of boundary edges
    indptr = np.full(n_sig + 1, 3, dtype=idx)
    indptr[0] = 0
    indptr[1:n_x + 1].reshape(n2, n1 + 1)[:, [0, -1]] = 2
    indptr[n_x + 1:n_x + 1 + n1] = 2
    indptr[n_sig + 1 - n1:] = 2
    np.cumsum(indptr, out=indptr)
    A = sp.csr_matrix((data, cols, indptr), shape=(n_sig, n_sig))

    # B: integrated divergence, +/- edge length per edge DOF.
    hx, hy = mesh.hx, mesh.hy
    b_data = np.empty((n2, n1, 4))
    b_data[..., 0] = -hy[:, None]
    b_data[..., 1] = hy[:, None]
    b_data[..., 2] = -hx
    b_data[..., 3] = hx
    i, j = np.arange(n1, dtype=idx), np.arange(n2, dtype=idx)[:, None]
    left = lay.xedge_index(i, j)
    bottom = lay.yedge_index(i, j)
    b_cols = np.stack([left, left + 1, bottom, bottom + n1], axis=-1)
    b_indptr = np.arange(0, 4 * lay.n_cell + 1, 4, dtype=idx)
    B = sp.csr_matrix(
        (b_data.ravel(), b_cols.ravel(), b_indptr), shape=(lay.n_cell, n_sig)
    )

    return MixedSystem(A=A, B=B, M=area, layout=lay, mesh=mesh)

