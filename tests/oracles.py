"""Independent oracles the tests compare the library against.

Each oracle takes the slow, direct route and shares no code with the
library path it checks.  The library forms no 2-D matrix and numbers no
2-D DOF; the oracles number the edge and cell DOFs (``DofNumbering``) and
hold the assembled A, B and M of the mixed pencil (``assembled``, A and
B from a per-cell COO scatter, M the cell areas) and take from them a
dense 2-D eigensolve for the tensor-product solver, 1-D
pencils sliced from the assembled matrices and inverted through a sparse
saddle LU for the cumulative-sum 1-D modes, the same cumulative sums in
new arrays at each step (``k_product``) for the block product that
the inverse iteration takes each pass, the 2-D enriched element and
its equivalence certificate for the 1-D lift of the equivalence check,
per-cell Lagrange evaluation for the batched postprocessing norms, and
scalar analytic integrals per cell or edge for the batched cell and edge
means, the 2-D interpolants and the assembled A, B and M for the 1-D
supercloseness norms (``supercloseness_norms_2d``), and every width pair
for the 1-D regularity constant, and the scalar algebra of one field at
a time, from 2-D strip integrals (``expansion_term_per_mode``), for the
1-D sums of the h^2 expansion term, to roundoff, and each balanced
distance, inner product and 1-D interpolant on its own
(``supercloseness_norms_per_term``, ``postprocessing_norms_per_term``)
for the stacked supercloseness and postprocessing norms, bit for bit;
``exact_derivative`` evaluates an exact field pointwise from its 1-D
factors, and ``enumerate_exact_search`` finds the exact spectrum by a
brute-force search over the modes (m, n).
The 2-D enriched element is held twice: in closed form (``assemble_peq``,
one 3x3 block per direction per cell, and ``peq_cell_gradient``) and from
the reference-element dual basis (the inverse of the monomial DOF matrix,
a 25-triplet scatter per cell and a slice of the free DOFs), each checked
against the other.  The certificate (``verify_equivalence_2d``) factors
K - s M0 once, counts the enriched eigenvalues below s by its inertia,
lifts every mixed pair by one block solve and compares clusters through
``eigenspace_gap``; a shift-invert Lanczos solve of the enriched pencil
checks its count and lifted eigenvalues.  ``verify_equivalence_per_pair``
holds the equivalence check as it was before it read a spectrum's 1-D
mode tables: factors stacked one column per pair, both directions lifted
and every entry built, for the table path, bit for bit.
``full_table_pairs`` chooses the k smallest pairs as the solver did
before it sized each 1-D table from the data: the k smallest sums over
tables of min(k, n) modes, for the data-sized tables, bit for bit.
They use public rrteig names only; the per-pair check takes the 1-D lift,
and ``full_table_pairs`` the 1-D modes and residuals, as arguments.
``factor_pair`` builds a pair from
1-D factors the solver does not produce, to feed the postprocessing with
chosen or random data; ``reconstruction`` packs a pair's factors per
reconstructed component, for ``eval_cell``; ``u_coeffs`` and
``sigma_coeffs`` form a pair's 2-D cell and edge vectors from its 1-D
factors, for the 2-D oracles; and ``sign_matched`` flips a pair whose
cell means correlate negatively with those of an exact field.
``report_json`` is the report as the library writes it, taken the long
way: a copy with NaN as null and no ``time_seconds`` key (``stored``),
written by ``json.dumps``.
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rrteig.eigensolve import MixedEigenpair
from rrteig.equivalence import EquivalenceEntry
from rrteig.errors import (
    DimensionMismatch, KTooLarge, LayoutMismatch, RRTError)
from rrteig.exact import ExactEigenpair, FieldSample, cell_mean_factors
from rrteig.mesh import TensorMesh

# relative tolerance within which enumerate_exact_search groups values
_EQ_TOL = 1e-9
# Lanczos start-vector seed and iteration cap of solve_peq_eigs
_LANCZOS_SEED = 0
_LANCZOS_MAX_ITERATIONS = 20000


@dataclass(frozen=True)
class DofNumbering:
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


def numbering(mesh: TensorMesh) -> DofNumbering:
    return DofNumbering(mesh.n1, mesh.n2)


def cell_areas(mesh):
    """Row-major cell areas |K_{i,j}| = h_{x_i} h_{y_j}, length n_cells."""
    return np.outer(mesh.hy, mesh.hx).ravel()


@dataclass(frozen=True)
class AssembledSystem:
    """The assembled 2-D matrices of the mixed discretization.

    A : flux mass matrix (sigma, tau), SPD, size n_sigma.
    B : integrated divergence, n_cell x n_sigma; entry (K, j) is the
        integral over K of div phi_j.  The pointwise divergence on K is
        (B tau)_K / |K|.
    M : diagonal of cell areas |K| (1-D array).
    """

    A: sp.csr_matrix
    B: sp.csr_matrix
    M: np.ndarray
    layout: DofNumbering
    mesh: TensorMesh


def assembled(mesh) -> AssembledSystem:
    """A, B and M of ``mesh``, A and B from the COO scatter."""
    a, b = assemble_mixed_coo(mesh)
    return AssembledSystem(a, b, cell_areas(mesh), numbering(mesh), mesh)


def assemble_mixed_coo(mesh):
    """(A, B) of the mixed discretization, scattered cell by cell.

    Every cell adds its 2x2 flux-mass blocks [[|K|/3, |K|/6], [|K|/6,
    |K|/3]] in x and in y and its four +/- edge lengths of B as COO
    triplets; scipy sorts the indices and sums the duplicates on the way
    to CSR.
    """
    lay = numbering(mesh)
    ii, jj = np.meshgrid(np.arange(mesh.n1), np.arange(mesh.n2))
    ii, jj = ii.ravel(), jj.ravel()  # row-major: i fast
    hx = mesh.hx[ii]
    hy = mesh.hy[jj]
    area = cell_areas(mesh)

    left = lay.xedge_index(ii, jj)
    right = lay.xedge_index(ii + 1, jj)
    bottom = lay.yedge_index(ii, jj)
    top = lay.yedge_index(ii, jj + 1)

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

    cell = lay.cell_index(ii, jj)
    b_rows = np.concatenate([cell, cell, cell, cell])
    b_cols = np.concatenate([right, left, top, bottom])
    b_vals = np.concatenate([hy, -hy, hx, -hx])
    B = sp.coo_matrix((b_vals, (b_rows, b_cols)), shape=(lay.n_cell, n_sig)).tocsr()
    return A, B


# ---------------------------------------------------------------------------
# Enriched rotated-bilinear (edge-mean continuous) space.
#
# The local space on each cell is span{1, x, y, x^2, y^2}: u = f(x) + g(y),
# f and g quadratic.  Its DOFs are the integrals over the four edges and the
# cell.  In the means L, R of the left and right edge and C of the cell, f
# is the 1-D quadratic whose edge values are L and R and whose mean is C,
# each less the mean of g, so u_x is linear in x and constant in y:
#     u_x = (6C - 4L - 2R) / h_x on the left edge, (2L + 4R - 6C) / h_x on
#     the right,
# and its part of the stiffness, the integral of u_x^2, is
#     h_y / h_x [L R C] S [L R C]^T,  S = [[4, 2, -6], [2, 4, -6], [-6, -6, 12]].
# The y part is alike in the bottom and top means B, T and C.  No x-edge
# meets a y-edge in the stiffness; in the integral DOFs the block of one
# direction is S_ab w_a w_b / |K|, w = (1, 1, 1 / h) with h the cell width
# in that direction.
# ---------------------------------------------------------------------------

_S = np.array([[4.0, 2.0, -6.0], [2.0, 4.0, -6.0], [-6.0, -6.0, 12.0]])


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
    layout: DofNumbering
    mesh: TensorMesh
    free: np.ndarray
    n_edge_free: int

    @property
    def n_cell(self) -> int:
        return self.layout.n_cell


def assemble_peq(mesh: TensorMesh) -> PeqSystem:
    """Assemble stiffness and projected mass of the enriched space: each
    cell adds its x block on (left, right, cell) and its y block on
    (bottom, top, cell) straight onto the free DOFs."""
    lay = numbering(mesh)
    n1, n2 = lay.n1, lay.n2
    n_x, n_sig = lay.n_xedge, lay.n_sigma
    n_tot = n_sig + lay.n_cell

    # free DOFs: interior edges + all cells; pos maps a DOF to its free
    # index, -1 on the boundary
    interior = np.ones(n_tot, dtype=bool)
    interior[:n_x].reshape(n2, n1 + 1)[:, [0, -1]] = False
    interior[n_x:n_x + n1] = False
    interior[n_sig - n1:n_sig] = False
    free = np.flatnonzero(interior)
    pos = np.full(n_tot, -1)
    pos[free] = np.arange(len(free))
    xpos = pos[:n_x].reshape(n2, n1 + 1)
    ypos = pos[n_x:n_sig].reshape(n2 + 1, n1)
    cpos = pos[n_sig:].reshape(n2, n1)

    area = cell_areas(mesh).reshape(n2, n1)
    ones = np.ones_like(area)
    rows, cols, vals = [], [], []
    for dofs, h in (((xpos[:, :-1], xpos[:, 1:], cpos), mesh.hx),
                    ((ypos[:-1], ypos[1:], cpos), mesh.hy[:, None])):
        idx = np.stack(dofs)  # (3, n2, n1)
        w = np.stack([ones, ones, ones / h])
        block = _S[:, :, None, None] * w[:, None] * w[None] / area
        r = np.broadcast_to(idx[:, None], block.shape)
        c = np.broadcast_to(idx[None], block.shape)
        keep = (r >= 0) & (c >= 0)
        rows.append(r[keep])
        cols.append(c[keep])
        vals.append(block[keep])
    n_free = len(free)
    K = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_free, n_free),
    ).tocsr()

    n_edge_free = n_free - lay.n_cell
    m0 = np.zeros(n_free)
    m0[n_edge_free:] = 1.0 / cell_areas(mesh)  # cell DOFs keep row-major order
    return PeqSystem(
        K=K, M0_diag=m0, layout=lay, mesh=mesh, free=free,
        n_edge_free=n_edge_free,
    )


def peq_cell_gradient(mesh: TensorMesh, coeffs_full: np.ndarray):
    """Edge values of the cellwise gradient of enriched-space functions.

    ``coeffs_full`` holds all integral DOFs (edges then cells, boundary
    included) in its rows, one function or one column per function.  The
    x component of the gradient is linear in x and constant in y, so it is
    determined by its values on the left and right edges of each cell;
    analogously in y.  Returns (gxL, gxR, gyB, gyT), each on the cell grid
    (n2, n1) followed by the columns of ``coeffs_full``.
    """
    lay = numbering(mesh)
    n1, n2 = lay.n1, lay.n2
    cols = coeffs_full.shape[1:]
    ones = (1,) * len(cols)
    hx = mesh.hx.reshape(n1, *ones)
    hy = mesh.hy.reshape(n2, 1, *ones)
    # edge and cell means on their grids
    xm = coeffs_full[:lay.n_xedge].reshape(n2, n1 + 1, *cols) / hy
    ym = coeffs_full[lay.n_xedge:lay.n_sigma].reshape(n2 + 1, n1, *cols) / hx
    c6 = 6.0 * coeffs_full[lay.n_sigma:].reshape(n2, n1, *cols) / (hx * hy)
    left, right, bottom, top = xm[:, :-1], xm[:, 1:], ym[:-1], ym[1:]
    return ((c6 - 4.0 * left - 2.0 * right) / hx,
            (2.0 * left + 4.0 * right - c6) / hx,
            (c6 - 4.0 * bottom - 2.0 * top) / hy,
            (2.0 * bottom + 4.0 * top - c6) / hy)


# The enriched element on the reference cell [-1, 1]^2: the local space
# span{1, x, y, x^2, y^2} with the dual basis of the five integral DOFs
# (left, right, bottom, top edge and cell), from the inverse of the DOF
# matrix of the monomials.  Physical basis functions are the mapped
# reference ones scaled so that the physical integrals stay unit.
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
REF_COEFFS = np.linalg.inv(_DOF_MONOMIAL)

# reference gradient Gram matrices of the monomials over [-1,1]^2
_GXX_MONO = np.zeros((5, 5))
_GXX_MONO[1, 1] = 4.0
_GXX_MONO[3, 3] = 16.0 / 3.0
_GYY_MONO = np.zeros((5, 5))
_GYY_MONO[2, 2] = 4.0
_GYY_MONO[4, 4] = 16.0 / 3.0

_GXX_REF = REF_COEFFS.T @ _GXX_MONO @ REF_COEFFS
_GYY_REF = REF_COEFFS.T @ _GYY_MONO @ REF_COEFFS

# d/dxi of the dual basis at xi = -1 and xi = +1 (constant in eta), and
# d/deta at eta = -/+1; used to read off the cellwise gradient.
_DXI_AT = {
    -1: REF_COEFFS[1] - 2.0 * REF_COEFFS[3],
    +1: REF_COEFFS[1] + 2.0 * REF_COEFFS[3],
}
_DETA_AT = {
    -1: REF_COEFFS[2] - 2.0 * REF_COEFFS[4],
    +1: REF_COEFFS[2] + 2.0 * REF_COEFFS[4],
}


def _cell_arrays(mesh):
    ii, jj = np.meshgrid(np.arange(mesh.n1), np.arange(mesh.n2))
    ii, jj = ii.ravel(), jj.ravel()  # row-major: i fast
    return ii, jj, mesh.hx[ii], mesh.hy[jj]


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


def assemble_peq_coo(mesh):
    """The enriched system of assemble_peq from the reference element:
    every cell scatters its 5x5 local stiffness as 25 COO triplets onto
    all DOFs, boundary edges included, and the free rows and columns are
    sliced out afterwards."""
    lay = numbering(mesh)
    ii, jj, hx, hy = _cell_arrays(mesh)
    area = cell_areas(mesh)
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


def peq_cell_gradient_dual(mesh, coeffs_full):
    """(gxL, gxR, gyB, gyT) of peq_cell_gradient from the reference dual
    basis, each with n_cell rows in row-major cell order and the columns
    of ``coeffs_full``: per cell, the five DOFs are gathered, scaled to
    the reference basis and dotted with its edge derivatives."""
    lay = numbering(mesh)
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
    )  # (n_cell, [k,] 5)
    # per-cell factors broadcast over the columns
    cells = (len(hx),) + (1,) * (coeffs_full.ndim - 1)
    hx, hy = hx.reshape(cells), hy.reshape(cells)
    alpha = np.stack(
        [2.0 / hy, 2.0 / hy, 2.0 / hx, 2.0 / hx, 4.0 / (hx * hy)], axis=-1
    )
    w = loc * alpha
    gxL = (2.0 / hx) * (w @ _DXI_AT[-1])
    gxR = (2.0 / hx) * (w @ _DXI_AT[+1])
    gyB = (2.0 / hy) * (w @ _DETA_AT[-1])
    gyT = (2.0 / hy) * (w @ _DETA_AT[+1])
    return gxL, gxR, gyB, gyT


def exact_derivative(fld, x, y, dx=0, dy=0):
    """The (dx, dy) partial derivative of the exact field at the points
    (x, y): the product of its two 1-D factors (``_field_factors``); x
    and y broadcast."""
    fx, fy = _field_factors(fld, x, y, dx, dy)
    return fx * fy


def factor_pair(v, w, flux_x, flux_y, scale=1.0):
    """A pair with the given 1-D factors, the scale folded into the x
    ones: u = w (x) v / scale, sx = w (x) flux_x / scale and sy = flux_y
    (x) v / scale."""
    return MixedEigenpair(lambda_h=0.0, v=np.asarray(v, float) / scale,
                          w=np.asarray(w, float),
                          flux_x=np.asarray(flux_x, float) / scale,
                          flux_y=np.asarray(flux_y, float),
                          residual_norm=0.0, mode=(1, 1))


def u_coeffs(pair):
    """The pair's 2-D cell values, row-major: cell j * n1 + i holds
    w[j] v[i]."""
    return np.outer(pair.w, pair.v).ravel()


def sigma_coeffs(pair):
    """The pair's 2-D edge DOFs: x-edge j * (n1 + 1) + i holds w[j]
    flux_x[i], then y-edge n_xedge + j * n1 + i holds flux_y[j] v[i]."""
    return np.concatenate([np.outer(pair.w, pair.flux_x).ravel(),
                           np.outer(pair.flux_y, pair.v).ravel()])


def sign_matched(mesh, pair, fld):
    """Flip the discrete pair, by negating v and flux_x, so its cell means
    correlate positively with those of the exact field; the M-product of
    two rank-one cell vectors is the product of two 1-D sums.  The sweep
    measures the first pair as it is: it is the (1, 1) pair, which never
    needs the flip."""
    px, py = cell_mean_factors(mesh, fld)
    if np.sum(mesh.hx * pair.v * px) * np.sum(mesh.hy * pair.w * py) >= 0:
        return pair
    return replace(pair, v=-pair.v, flux_x=-pair.flux_x)


def residual_2d(system, pair):
    """Relative residual of a pair against the assembled 2-D pencil, the
    larger of |A sigma - B^T u| / |A sigma| and |B sigma - lambda M u| /
    (lambda |M u|): one sparse product each with A, B and B^T."""
    sigma, u = sigma_coeffs(pair), u_coeffs(pair)
    a_sigma = system.A @ sigma
    r1 = np.linalg.norm(a_sigma - system.B.T @ u)
    r1 /= max(np.linalg.norm(a_sigma), 1e-300)
    m_u = system.M * u
    r2 = np.linalg.norm(system.B @ sigma - pair.lambda_h * m_u)
    r2 /= max(abs(pair.lambda_h) * np.linalg.norm(m_u), 1e-300)
    return float(max(r1, r2))


def supercloseness_norms_2d(system, pair, sigma_I, pi0_u):
    """Exact norms of sigma_I - sigma_h, its divergence, and Pi0 u - u_h,
    from the 2-D coefficient vectors and the assembled A, B and M, under
    the keys of supercloseness_norms."""
    lay = system.layout
    if len(sigma_I) != lay.n_sigma or len(pi0_u) != lay.n_cell:
        raise LayoutMismatch(
            f"expected ({lay.n_sigma}, {lay.n_cell}) coefficients, got "
            f"({len(sigma_I)}, {len(pi0_u)})"
        )
    d = sigma_I - sigma_coeffs(pair)
    e = pi0_u - u_coeffs(pair)
    bd = system.B @ d
    return {
        "norm_sigma": float(np.sqrt(d @ (system.A @ d))),
        "norm_div": float(np.sqrt(np.sum(bd * bd / system.M))),
        "norm_u": float(np.sqrt(e @ (system.M * e))),
    }


def dense_eigenvalues(system, k, cap=5000):
    """The k smallest eigenvalues of the pencil (B A^-1 B^T, M).

    Forms the 2-D reduced matrix S = B A^-1 B^T column by column with
    direct inner solves, reduces the pencil with the trivial Cholesky
    factor of the diagonal M, and calls a dense symmetric eigensolver.
    """
    n_cell = system.layout.n_cell
    if not k <= n_cell <= cap:
        raise ValueError(f"k={k} and n_cell={n_cell} need k <= n_cell <= {cap}")
    z = spla.splu(system.A.tocsc()).solve(system.B.T.toarray())
    s = system.B.toarray() @ z
    d_inv_sqrt = 1.0 / np.sqrt(system.M)
    c = d_inv_sqrt[:, None] * (s + s.T) / 2.0 * d_inv_sqrt[None, :]
    return np.linalg.eigvalsh(c)[:k]


def _strip_pencil(system, axis):
    """1-D pencil of one direction: the normal-flux block of the first cell
    row (axis 0, x) or column (axis 1, y).  It is the 1-D RT0 pencil scaled
    by the strip's cross width, which leaves its eigenvalues unchanged."""
    lay = system.layout
    if axis == 0:
        edges = lay.xedge_index(np.arange(lay.n1 + 1), 0)
        cells = lay.cell_index(np.arange(lay.n1), 0)
    else:
        edges = lay.yedge_index(0, np.arange(lay.n2 + 1))
        cells = lay.cell_index(0, np.arange(lay.n2))
    return system.A[edges][:, edges], system.B[cells][:, edges], system.M[cells]


def modes_1d_saddle(system, axis, k):
    """k smallest eigenpairs (mu, v) of the strip pencil (G A1^-1 G^T,
    diag d) of one direction, read from the assembled matrices, and their
    fluxes A1^-1 G^T v.

    The pairs are taken from the top of the inverse D^1/2 S^-1 D^1/2 by a
    dense symmetric eigendecomposition; S^-1 is applied through one sparse
    LU of the saddle matrix [[A1, G^T], [G, 0]].  Columns of v are
    d-orthonormal, so v and the fluxes carry the factor 1/sqrt(c) of the
    strip's cross width c against the 1-D pencil's modes.
    """
    a1, g, d = _strip_pencil(system, axis)
    n_edge, n = a1.shape[0], len(d)
    lu = spla.splu(sp.bmat([[a1, g.T], [g, None]], format="csc"))
    d_sqrt = np.sqrt(d)
    rhs = np.zeros((n_edge + n, n))
    rhs[n_edge:] = np.diag(d_sqrt)
    inv = -lu.solve(rhs)[n_edge:] * d_sqrt[:, None]
    theta, vec = np.linalg.eigh((inv + inv.T) / 2.0)
    top = np.arange(n - 1, n - 1 - k, -1)  # largest theta = smallest mu
    v = vec[:, top] / d_sqrt[:, None]
    bands = np.zeros((2, n_edge))  # upper banded storage of the SPD A1
    bands[0, 1:] = a1.diagonal(1)
    bands[1] = a1.diagonal()
    return 1.0 / theta[top], v, sla.solveh_banded(bands, g.T @ v)


def k_product(h, x):
    """K x for K = D^1/2 S^-1 D^1/2 of the 1-D RT0 pencil on the widths h,
    by the cumulative sums of the saddle system A1 s = G^T y, G s = D^1/2
    x, each step in a new array: the running sum s of D^1/2 x, shifted so
    that 1^T A1 s = 0, then K x = -D^1/2 (running sum of A1 s).  The
    library's block product must give these bits, row by row."""
    n = len(h)
    h_pad = np.concatenate([[0.0], h, [0.0]])
    diag, off = h_pad[:-1] / 3.0 + h_pad[1:] / 3.0, h / 6.0
    d_sqrt = np.sqrt(h)
    row = 1.5 * diag / h.sum()
    s = np.zeros(n + 1)
    np.cumsum(d_sqrt * x.ravel(), out=s[1:])
    s -= np.sum(row * s)
    a1s = diag * s
    a1s[:-1] += off * s[1:]
    a1s[1:] += off * s[:-1]
    return -np.cumsum(a1s[:-1]) * d_sqrt


@dataclass
class PeqSolution:
    """Enriched-space solution with its piecewise-constant shadow.

    cell_means : Pi0 u per cell (row-major).
    grad_edges : (gxL, gxR, gyB, gyT) edge values of the cellwise gradient.
    """

    cell_means: np.ndarray
    grad_edges: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _solution(peq, reduced):
    """The solution whose free integral DOFs are ``reduced``; boundary
    edge DOFs are 0."""
    full = np.zeros(peq.layout.n_sigma + peq.layout.n_cell)
    full[peq.free] = reduced
    cell_means = full[peq.layout.n_sigma :] / cell_areas(peq.mesh)
    return PeqSolution(cell_means=cell_means,
                       grad_edges=peq_cell_gradient(peq.mesh, full))


def solve_peq_eigs(peq, k):
    """k smallest finite eigenvalues of the pencil (K, M0), ascending,
    each with its PeqSolution.

    The semidefinite mass acts on cell DOFs only; the kernel directions
    (edge components) are condensed through the stiffness, which reduces
    the pencil to an SPD problem of size n_cell.  Its inverse is applied
    through one factorization of K: densely up to 40 cells (or k + 4),
    by shift-invert Lanczos beyond.
    """
    n_cell = peq.n_cell
    if k > n_cell:
        raise KTooLarge(f"k={k} exceeds finite spectrum size {n_cell}")
    lu = spla.splu(peq.K.tocsc())

    mc = peq.M0_diag[peq.n_edge_free :]
    mc_sqrt = np.sqrt(mc)
    ne = peq.n_edge_free

    def inv_apply(y):
        rhs = np.zeros(len(peq.free))
        rhs[ne:] = mc_sqrt * y
        sol = lu.solve(rhs)
        return mc_sqrt * sol[ne:]

    k_int = min(k + 2, n_cell)
    if n_cell <= max(40, k_int + 2):
        mat = np.column_stack([inv_apply(col) for col in np.eye(n_cell)])
        mat = (mat + mat.T) / 2.0
        mu, vec = np.linalg.eigh(mat)
    else:
        op = spla.LinearOperator((n_cell, n_cell), matvec=inv_apply, dtype=float)
        rng = np.random.default_rng(_LANCZOS_SEED)
        v0 = rng.standard_normal(n_cell)
        mu, vec = spla.eigsh(
            op, k=k_int, which="LM", v0=v0, tol=0.0,
            maxiter=_LANCZOS_MAX_ITERATIONS,
        )
    order = np.argsort(mu)[::-1][:k]

    out = []
    for idx in order:
        lam = 1.0 / mu[idx]
        vc = vec[:, idx] / mc_sqrt
        # normalize ||Pi0 u|| = 1 and fix the sign on the largest cell mean
        nrm = np.sqrt(float(vc @ (mc * vc)))
        vc = vc / nrm
        means = vc * mc  # integral DOF -> mean is  c_K / |K| = c_K * (1/|K|)
        if means[int(np.argmax(np.abs(means)))] < 0:
            vc = -vc
        rhs = np.zeros(len(peq.free))
        rhs[ne:] = lam * mc * vc
        reduced = lu.solve(rhs)
        # replace the cell block by the normalized eigenvector for exactness
        reduced[ne:] = vc
        out.append((float(lam), _solution(peq, reduced)))
    out.sort(key=lambda t: t[0])
    return out


# ---------------------------------------------------------------------------
# The 2-D equivalence certificate: one shifted factorisation of the
# enriched system of assemble_peq, whose inertia counts the enriched
# eigenvalues below the shift and whose block solve lifts every mixed
# pair; verify_equivalence checks the same identity one direction at a
# time.
# ---------------------------------------------------------------------------


class SingularSystem(RRTError):
    """A linear system expected to be definite is singular."""


# relative gap below which consecutive eigenvalues are compared as one
# cluster: a vector-by-vector comparison of two pairs a relative gap g
# apart loses about roundoff / g, so near ties are compared through the
# subspace they span
_CLUSTER_REL_TOL = 1e-3


def interior_flux_jumps(mesh: TensorMesh, grad_edges) -> float:
    """Maximal jump of the normal gradient component across interior
    edges, over every column of the peq_cell_gradient edge values."""
    gxL, gxR, gyB, gyT = grad_edges
    jump_x = np.abs(gxR[:, :-1] - gxL[:, 1:]).max() if mesh.n1 > 1 else 0.0
    jump_y = np.abs(gyT[:-1] - gyB[1:]).max() if mesh.n2 > 1 else 0.0
    return float(max(jump_x, jump_y))


def gradient_to_sigma_coeffs(mesh: TensorMesh, grad_edges) -> np.ndarray:
    """Negative gradient as flux DOFs (averaging shared edges), one column
    per column of the peq_cell_gradient edge values.

    The theory makes the normal component continuous across interior
    edges, so the average is exact up to solver tolerance; the actual jump
    is available from interior_flux_jumps.  The x-edges form the grid
    [cell row j, line i] and the y-edges [line j, cell column i], in the
    DOF layout's order.
    """
    n1, n2 = mesh.n1, mesh.n2
    gxL, gxR, gyB, gyT = grad_edges
    cols = gxL.shape[2:]
    sx = np.zeros((n2, n1 + 1, *cols))
    sx[:, :-1] -= gxL
    sx[:, 1:] -= gxR
    sx[:, 1:-1] /= 2
    sy = np.zeros((n2 + 1, n1, *cols))
    sy[:-1] -= gyB
    sy[1:] -= gyT
    sy[1:-1] /= 2
    return np.concatenate([sx.reshape(-1, *cols), sy.reshape(-1, *cols)])


@dataclass(frozen=True)
class CertificateEntry:
    lambda_rrt: float
    lambda_peq: float
    eig_rel_diff: float
    sigma_discrepancy: float
    u_discrepancy: float
    cluster_size: int


@dataclass(frozen=True)
class CertificateReport:
    entries: tuple[CertificateEntry, ...]
    max_flux_jump: float

    @property
    def max_eig_rel_diff(self) -> float:
        return max(e.eig_rel_diff for e in self.entries)

    @property
    def max_sigma_discrepancy(self) -> float:
        return max(e.sigma_discrepancy for e in self.entries)

    @property
    def max_u_discrepancy(self) -> float:
        return max(e.u_discrepancy for e in self.entries)


def full_table_pairs(mesh, k, modes_1d, residuals):
    """The k smallest pairs over 1-D tables of min(k, n) modes each,
    ``modes_1d([h], min(k, n))`` per direction, each a stack of one:
    every sum of the two tables sorted at once, stably, so that ties go by
    their (y, x) columns, and the ``residuals`` of each pair's columns.
    Returns the tables x and y and per pair its eigenvalue, x and y
    columns, residual and label."""
    x = modes_1d([mesh.hx], min(k, mesh.n1))[0]
    y = modes_1d([mesh.hy], min(k, mesh.n2))[0]
    sums = y[0][:, None] + x[0][None, :]
    jj, ii = np.divmod(np.argsort(sums.ravel(), kind="stable")[:k],
                       len(x[0]))
    lams = sums[jj, ii]
    return (x, y, lams, ii, jj, residuals(lams, x[3][:, ii], y[3][:, jj]),
            list(zip((ii + 1).tolist(), (jj + 1).tolist())))


def verify_equivalence_per_pair(mesh, pairs, lift):
    """verify_equivalence one pair at a time: each factor of every pair
    stacked into a table of one column per pair (np.column_stack), the x
    and y tables lifted by ``lift`` (the library's 1-D lift, which the 2-D
    certificate checks), and an EquivalenceEntry built for every pair.
    Returns the entries, the per-pair arrays (lambda_h, lambda_peq,
    eig_rel_diff, sigma_discrepancy), the two maxima of the entries and
    the largest flux jump; a pair beyond 16 eps N^2 raises
    DimensionMismatch."""
    cols = lambda name: np.column_stack([getattr(p, name) for p in pairs])
    v, w = cols("v"), cols("w")
    q_x, d_x, jump_x = lift(mesh.hx, v, cols("flux_x"))
    q_y, d_y, jump_y = lift(mesh.hy, w, cols("flux_y"))
    nv = np.sum(mesh.hx[:, None] * v**2, axis=0)
    nw = np.sum(mesh.hy[:, None] * w**2, axis=0)
    lam = np.array([p.lambda_h for p in pairs])
    lam_peq = (q_x * nw + q_y * nv) / (nv * nw)
    rel_diff = np.abs(lam - lam_peq) / np.abs(lam)
    s_disc = np.sqrt(nw * d_x + nv * d_y)
    n_eff = max(mesh.hx.sum() / mesh.hx.min(), mesh.hy.sum() / mesh.hy.min())
    bound = 16.0 * np.finfo(float).eps * n_eff**2
    if not np.all((rel_diff <= bound) & (s_disc <= bound * np.sqrt(lam))):
        raise DimensionMismatch("a pair is not its enriched lift")
    jump = float(max((np.abs(w).max(axis=0) * jump_x).max(),
                     (np.abs(v).max(axis=0) * jump_y).max()))
    entries = tuple(
        EquivalenceEntry(lambda_rrt=float(lam[i]), lambda_peq=float(lam_peq[i]),
                         eig_rel_diff=float(rel_diff[i]),
                         sigma_discrepancy=float(s_disc[i]),
                         mode=pairs[i].mode)
        for i in range(len(pairs)))
    return (entries, (lam, lam_peq, rel_diff, s_disc),
            max(e.eig_rel_diff for e in entries),
            max(e.sigma_discrepancy for e in entries), jump)


def _clusters(lambdas):
    groups, start = [], 0
    for i in range(1, len(lambdas) + 1):
        if i == len(lambdas) or abs(
            lambdas[i] - lambdas[i - 1]
        ) > _CLUSTER_REL_TOL * abs(lambdas[i]):
            groups.append(list(range(start, i)))
            start = i
    return groups


def _shifted_factor(peq, shift):
    """SuperLU factor of K - shift M0 and the number of enriched
    eigenvalues below ``shift``.

    The factorisation pivots on the diagonal only, under one symmetric
    permutation P, so P (K - shift M0) P^T = L U with U = D L^T.  K is SPD
    and M0 vanishes on the edge block, so by Sylvester's law of inertia
    the negative pivots of D count the finite eigenvalues of (K, M0) below
    the shift (the Sturm sequence check of shift-invert eigensolvers).  A
    zero pivot forces an off-diagonal one and breaks the symmetry, which
    raises SingularSystem, as does an exactly singular matrix."""
    shifted = (peq.K - sp.diags(shift * peq.M0_diag)).tocsc()
    try:
        lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularSystem(f"K - {shift:.17g} M0: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SingularSystem(
            f"K - {shift:.17g} M0: pivoting left the diagonal, so its "
            "inertia is unknown")
    return lu, int(np.count_nonzero(lu.U.diagonal() < 0))


def verify_equivalence_2d(system, pairs, k) -> CertificateReport:
    """Certify that the first k mixed pairs are the first k enriched-element
    pairs, and measure how closely each coincides.

    ``pairs`` are the ascending mixed eigenpairs already solved on
    ``system``.  Clusters (consecutive eigenvalues within a relative gap
    of _CLUSTER_REL_TOL) are compared whole, so pairs past index k serve
    to complete a cluster that straddles k and to show the gap after it:
    pass a few more than k where the spectrum holds them.  The shift s is
    the middle of that gap, or twice the top eigenvalue when ``pairs``
    holds the whole spectrum.  Two checks certify the equivalence, each
    raising DimensionMismatch when it fails:

    - count: the inertia of K - s M0 (``_shifted_factor``) finds as many
      enriched eigenvalues below s as there are compared mixed pairs;
    - lift: each compared pair (lambda, u) lifts to the enriched solution
      x of (K - s M0) x = (lambda - s) M0 u~, u~ the cell integrals of u,
      all in one block solve.  x has the enriched residual
      (lambda - s) M0 (u~ - x_cells), so an enriched eigenvalue lies
      within |lambda - s| ||u - Pi0 x|| / ||Pi0 x|| of lambda (M-norms),
      and that radius must stay below the cluster tolerance.

    A gap that the solved pairs do not reach raises DimensionMismatch too.
    The report compares each lift with its pair: eigenvalue (Rayleigh
    quotient), flux (negative cellwise gradient, A-norm) and cell means
    (M-norm); clusters through the subspaces they span."""
    mesh = system.mesh
    peq = assemble_peq(mesh)
    lambdas = np.array([p.lambda_h for p in pairs])
    groups = [g for g in _clusters(lambdas) if g[0] < k]
    n = groups[-1][-1] + 1  # compared pairs: all below the shift
    if n < len(pairs):
        shift = 0.5 * (lambdas[n - 1] + lambdas[n])
    elif n == peq.n_cell:
        shift = 2.0 * lambdas[-1]
    else:
        raise DimensionMismatch(
            f"no gap after the {n} solved pairs: the cluster at "
            f"{lambdas[-1]:.17g} may continue past them")
    lu, count = _shifted_factor(peq, shift)
    if count != n:
        raise DimensionMismatch(
            f"{count} enriched and {n} mixed eigenvalues lie below "
            f"{shift:.17g}")

    u = np.column_stack([u_coeffs(p) for p in pairs[:n]])
    ne = peq.n_edge_free
    rhs = np.zeros((len(peq.free), n))
    rhs[ne:] = u * (lambdas[:n] - shift)  # M0 u~ is u on the cell rows
    x = lu.solve(rhs)
    full = np.zeros((peq.layout.n_sigma + peq.n_cell, n))
    full[peq.free] = x
    means = x[ne:] / cell_areas(mesh)[:, None]
    grads = peq_cell_gradient(mesh, full)
    sig_peq = gradient_to_sigma_coeffs(mesh, grads)
    sig_rrt = np.column_stack([sigma_coeffs(p) for p in pairs[:n]])

    m_norm = lambda d: np.sqrt(np.einsum("ij,ij->j", d, system.M[:, None] * d))
    norm_means = m_norm(means)  # x^T M0 x = ||Pi0 x||^2
    lam_peq = np.einsum("ij,ij->j", x, peq.K @ x) / norm_means**2
    u_disc = m_norm(u - means)
    radius = np.abs(lambdas[:n] - shift) * u_disc / norm_means
    bad = np.flatnonzero(radius > _CLUSTER_REL_TOL * lambdas[:n])
    if len(bad):
        i = int(bad[0])
        raise DimensionMismatch(
            f"pair {i} at {lambdas[i]:.17g} lifts to no enriched pair of "
            f"its cluster (residual radius {radius[i]:.3e})")
    d_sig = sig_rrt - sig_peq
    s_disc = np.sqrt(np.einsum("ij,ij->j", d_sig, system.A @ d_sig))

    m_diag = sp.diags(system.M)
    entries = []
    for group in groups:
        if len(group) == 1:
            disc = [(s_disc[group[0]], u_disc[group[0]])]
        else:
            gap_sigma = eigenspace_gap(sig_rrt[:, group], sig_peq[:, group],
                                       system.A)
            gap_u = eigenspace_gap(u[:, group], means[:, group], m_diag)
            # ||sigma||_A of a unit pair is sqrt(lambda)
            disc = [(gap_sigma * np.sqrt(lambdas[i]), gap_u) for i in group]
        for i, (sd, ud) in zip(group, disc):
            entries.append(CertificateEntry(
                lambda_rrt=float(lambdas[i]), lambda_peq=float(lam_peq[i]),
                eig_rel_diff=float(abs(lambdas[i] - lam_peq[i])
                                   / abs(lambdas[i])),
                sigma_discrepancy=float(sd), u_discrepancy=float(ud),
                cluster_size=len(group),
            ))
    return CertificateReport(entries=tuple(entries[:k]),
                             max_flux_jump=interior_flux_jumps(mesh, grads))


def eigenspace_gap(vr: np.ndarray, vs: np.ndarray, metric) -> float:
    """Gap sup over unit x in span(vr) of ||x - P_S x||, S = span(vs), via
    principal angles; the columns of vr and vs span the two subspaces and
    the sparse SPD ``metric`` measures both (A for fluxes, diags(M) for
    cell functions)."""
    if vr.shape != vs.shape:
        raise DimensionMismatch(
            f"basis shapes {vr.shape} and {vs.shape} differ"
        )
    gram_r = vr.T @ (metric @ vr)
    gram_s = vs.T @ (metric @ vs)
    for g in (gram_r, gram_s):
        if np.linalg.cond(g) > 1e8:
            raise DimensionMismatch("basis Gram matrix is ill-conditioned")
    lr = np.linalg.cholesky(gram_r)
    ls = np.linalg.cholesky(gram_s)
    # metric-orthonormal bases Q = V L^-T
    qr = np.linalg.solve(lr, vr.T).T
    qs = np.linalg.solve(ls, vs.T).T
    # residual of projecting Q_R onto span(Q_S); forming it directly keeps
    # the result accurate near zero (no 1 - cos^2 cancellation)
    cross = qs.T @ (metric @ qr)
    resid = qr - qs @ cross
    gram_e = resid.T @ (metric @ resid)
    ev = np.linalg.eigvalsh((gram_e + gram_e.T) / 2.0)
    return float(np.sqrt(max(0.0, float(ev.max()))))


def _basis(nodes, x, deriv):
    """Lagrange basis over ``nodes`` (or its derivative) at ``x``, shape
    x.shape + (len(nodes),): monomial coefficients from the inverse
    Vandermonde matrix, in coordinates local to nodes[0]."""
    t = np.asarray(x, dtype=float) - nodes[0]
    coeffs = np.linalg.inv(np.vander(nodes - nodes[0]))  # column a: basis a
    return np.stack([np.polyval(np.polyder(c) if deriv else c, t)
                     for c in coeffs.T], axis=-1)


@dataclass(frozen=True)
class Reconstruction:
    """The macro-element reconstruction of a rank-one pair on a mesh: per
    component (sx, sy for kind 'sigma'; u for kind 'u') the (x values, y
    values) data of its two 1-D interpolants."""

    mesh: TensorMesh
    kind: str
    components: tuple


def reconstruction(mesh, pair, kind):
    """The reconstruction of ``kind`` from the pair's 1-D factors, as
    eval_cell reads it: sx interpolates the x data flux_x and the y data
    w, sy the x data v and the y data flux_y, u the x data v and the y
    data w."""
    components = {"sigma": ((pair.flux_x, pair.w), (pair.v, pair.flux_y)),
                  "u": ((pair.v, pair.w),)}[kind]
    return Reconstruction(mesh, kind, components)


def eval_cell(field, i, j, x, y, deriv=None):
    """A postprocessed field on fine cell (i, j) at the points (x, y).

    ``deriv`` None gives values, 'x' or 'y' that partial derivative.  A
    'sigma' field gives (sx, sy), a 'u' field one array.  The macro-element
    of the cell holds cells 2I, 2I + 1 by 2J, 2J + 1.  Each component is
    interpolated from its window of the outer product of its two 1-D
    factors; a factor of n + 1 values sits on the x- or y-lines, one of n
    values at the cell-column or cell-row midpoints.
    """
    nx, ny = field.mesh.node_x, field.mesh.node_y
    I, J = i // 2, j // 2

    def nodes(lines, vals):
        return lines if len(vals) == len(lines) else (lines[:-1] + lines[1:]) / 2.0

    def interp(xv, yv):
        xn, yn = nodes(nx, xv), nodes(ny, yv)
        p, q = len(xn) - len(nx) + 3, len(yn) - len(ny) + 3  # 3 or 2 nodes
        vals = np.outer(xv[2 * I : 2 * I + p], yv[2 * J : 2 * J + q])
        bx = _basis(xn[2 * I : 2 * I + p], x, deriv == "x")
        by = _basis(yn[2 * J : 2 * J + q], y, deriv == "y")
        return np.einsum("...p,...q,pq->...", bx, by, vals)

    out = tuple(interp(xv, yv) for xv, yv in field.components)
    return out[0] if field.kind == "u" else out


def enumerate_exact_search(domain=(np.pi, np.pi), count=6):
    """First ``count`` exact eigenvalues (with multiplicity), ascending.

    Brute-force search over (m, n); the scan bound L is grown until every
    value below L-dependent threshold is guaranteed enumerated.  The
    library selects the smallest sums of the two 1-D spectra instead.
    """
    a, b = domain
    kx2 = (np.pi / a) ** 2
    ky2 = (np.pi / b) ** 2
    L = 4
    while True:
        vals = []
        for m in range(1, L + 1):
            for n in range(1, L + 1):
                vals.append((FieldSample(m, n, domain).value, m, n))
        # complete prefix: any eigenvalue below this bound needs m, n <= L
        safe = (L * L + 1) * min(kx2, ky2)
        vals = [v for v in vals if v[0] <= safe]
        vals.sort()
        if len(vals) >= count:
            break
        L *= 2

    # one pass: a group runs while values stay within _EQ_TOL of its first
    groups: list[list] = []
    for v in vals:
        if groups and v[0] - groups[-1][0][0] <= _EQ_TOL * groups[-1][0][0]:
            groups[-1].append(v)
        else:
            groups.append([v])
    pairs: list[ExactEigenpair] = []
    for group in groups:
        modes = tuple((m, n) for _, m, n in group)
        pairs += [ExactEigenpair(group[0][0], modes, (a, b))] * len(group)
    return pairs[:count]


def _mode(fld):
    """(amp, kx, ky) of the exact field, from its label (m, n) and domain."""
    a, b = fld.domain
    return 2.0 / np.sqrt(a * b), fld.m * np.pi / a, fld.n * np.pi / b


def _int_sin(k, x0, x1):
    """The integral of sin(k x) over [x0, x1]."""
    return (np.cos(k * x0) - np.cos(k * x1)) / k


def _int_sq(k, x0, x1, cos=False):
    """The integral of sin(k x)^2, or of cos(k x)^2 when ``cos``, over
    [x0, x1]."""
    sign = 1.0 if cos else -1.0
    def F(x):
        return x / 2.0 + sign * np.sin(2.0 * k * x) / (4.0 * k)
    return F(x1) - F(x0)


def expansion_term_per_mode(mesh: TensorMesh, fld) -> float:
    """The h^2 expansion term of one field by scalar algebra in 2-D: the
    closed-form integrals of kx^2 u_x^2 over each x-strip and of ky^2
    u_y^2 over each y-strip, each a cos^2 integral along the strip and a
    sin^2 one across the domain, with the scalars fld.kx, fld.ky and
    fld.amp, each times the squared strip width, added one by one by
    Python's sum, x-strips first.  expansion_term's two 1-D sums match it
    to roundoff."""
    kx, ky = fld.kx, fld.ky
    nx, ny = mesh.node_x, mesh.node_y
    ix = fld.amp**2 * (kx**2 * kx**2 * _int_sq(kx, nx[:-1], nx[1:], cos=True)
                       * _int_sq(ky, ny[0], ny[-1]))
    iy = fld.amp**2 * (ky**2 * ky**2 * _int_sq(kx, nx[0], nx[-1])
                       * _int_sq(ky, ny[:-1], ny[1:], cos=True))
    terms = np.concatenate([np.float_power(np.diff(nx), 2) * ix,
                            np.float_power(np.diff(ny), 2) * iy])
    return sum(terms, 0.0) / 12.0


# ---------------------------------------------------------------------------
# the supercloseness and postprocessing norms one distance at a time
# ---------------------------------------------------------------------------

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(5)


def _weights(w):
    """The diagonal metric of the weights w."""
    return lambda a: w * a


def _a1(h):
    """The metric of the 1-D flux mass A1 on the cell widths h: the
    tridiagonal (h / 6, h_(i-1) / 3 + h_i / 3, h / 6) on the edges."""
    pad = np.concatenate([[0.0], h, [0.0]])
    diag, off = pad[:-1] / 3.0 + pad[1:] / 3.0, h / 6.0

    def times(a):
        out = diag * a
        out[:-1] += off * a[1:]
        out[1:] += off * a[:-1]
        return out
    return times


def _dot(a, b, metric):
    return float((metric(a) * b).sum())


def _tensor_distance_sq(x, y, f, g, mx, my):
    """Squared distance of x (x) y to f (x) g in the tensor product of the
    1-D metrics mx, my, split as x (x) (y - g) + (x - f) (x) g after the
    balancing x c, y / c with c = <x, f> / <x, x>, each inner product
    taken on its own."""
    c = _dot(x, f, mx)
    c = c / _dot(x, x, mx) if c else 1.0
    x, y = x * c, y / c
    ex, ey = x - f, y - g
    return (_dot(x, x, mx) * _dot(ey, ey, my)
            + 2.0 * _dot(x, ex, mx) * _dot(ey, g, my)
            + _dot(ex, ex, mx) * _dot(g, g, my))


def _sine_derivative(k, x, order):
    """The derivative of order 0, 1 or 2 of sin(k x); other orders raise
    instead of cycling back."""
    if order == 0:
        return np.sin(k * x)
    if order == 1:
        return k * np.cos(k * x)
    if order == 2:
        return -k * k * np.sin(k * x)
    raise ValueError(f"derivative order must be 0, 1 or 2, got {order}")


def _field_factors(fld, x, y, dx, dy):
    """The x and y factors of the (dx, dy) partial derivative of u."""
    return (fld.amp * _sine_derivative(fld.kx, x, dx),
            _sine_derivative(fld.ky, y, dy))


def supercloseness_norms_per_term(mesh, pair, fld):
    """The keys of supercloseness_norms from the same 1-D formulas, each
    balanced distance and inner product on its own, the cell means of
    the field from both ends of every cell."""
    v, w, hx, hy = pair.v, pair.w, mesh.hx, mesh.hy
    nx, ny = mesh.node_x, mesh.node_y
    X = fld.amp * _int_sin(fld.kx, nx[:-1], nx[1:]) / hx
    Y = _int_sin(fld.ky, ny[:-1], ny[1:]) / hy
    fx, fy = (-f for f in _field_factors(fld, nx, ny, 1, 1))
    dx, dy = _weights(hx), _weights(hy)
    sigma_sq = (_tensor_distance_sq(pair.flux_x, w, fx, Y, _a1(hx), dy)
                + _tensor_distance_sq(pair.flux_y, v, fy, X, _a1(hy), dx))
    gx, gy = np.diff(pair.flux_x) / hx, np.diff(pair.flux_y) / hy
    mu, nu = _dot(v, gx, dx) / _dot(v, v, dx), _dot(w, gy, dy) / _dot(w, w, dy)
    xs, ys = np.stack([X, v, gx - mu * v, v]), np.stack([Y, w, w, gy - nu * w])
    coef = np.array([fld.value, -(mu + nu), -1.0, -1.0])
    gram = np.outer(coef, coef) * ((xs * hx) @ xs.T) * ((ys * hy) @ ys.T)
    gram[:2, :2] = 0.0
    div_sq = _tensor_distance_sq((mu + nu) * v, w, fld.value * X, Y, dx, dy)
    return {
        "norm_sigma": float(np.sqrt(sigma_sq)),
        "norm_div": float(np.sqrt(div_sq + gram.sum())),
        "norm_u": float(np.sqrt(_tensor_distance_sq(v, w, X, Y, dx, dy))),
    }


def _gauss_table(nodes):
    """5-point Gauss points and weights of every cell, arrays (n, 5)."""
    mid = (nodes[:-1] + nodes[1:]) / 2.0
    half = (nodes[1:] - nodes[:-1]) / 2.0
    return mid[:, None] + half[:, None] * _GAUSS_X, half[:, None] * _GAUSS_W


def _interpolant(nodes, vals, pts, deriv):
    """The 1-D macro-element interpolant of ``vals`` (or its derivative)
    at the points pts (n, g), in Newton form per macro-element: the
    quadratic through three node values, or the linear through two
    cell-midpoint values."""
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


def postprocessing_norms_per_term(mesh, pair, fld):
    """The keys of postprocessing_norms from the same 1-D formulas: eight
    interpolants, one per factor and derivative order, the exact factors
    one per derivative order, and nine balanced distances each on its
    own."""
    xq, wx = _gauss_table(mesh.node_x)
    yq, wy = _gauss_table(mesh.node_y)
    sx, v = ([_interpolant(mesh.node_x, a, xq, d) for d in (0, 1)]
             for a in (pair.flux_x, pair.v))
    w, sy = ([_interpolant(mesh.node_y, a, yq, d) for d in (0, 1)]
             for a in (pair.w, pair.flux_y))
    ex, ey = zip(*(_field_factors(fld, xq, yq, d, d) for d in (0, 1, 2)))

    def dist_sq(x, y, f, g):
        return _tensor_distance_sq(x, y, f, g, _weights(wx), _weights(wy))

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


def cell_integral_u(fld, x0, x1, y0, y1):
    """The integral of u over [x0, x1] x [y0, y1]."""
    amp, kx, ky = _mode(fld)
    return amp * _int_sin(kx, x0, x1) * _int_sin(ky, y0, y1)


def mean_flux_x(fld, xi, y0, y1):
    """Mean of sigma_x = -u_x over the vertical edge {xi} x [y0, y1]."""
    amp, kx, ky = _mode(fld)
    return -amp * kx * np.cos(kx * xi) * _int_sin(ky, y0, y1) / (y1 - y0)


def mean_flux_y(fld, yj, x0, x1):
    """Mean of sigma_y = -u_y over the horizontal edge [x0, x1] x {yj}."""
    amp, kx, ky = _mode(fld)
    return -amp * ky * np.cos(ky * yj) * _int_sin(kx, x0, x1) / (x1 - x0)


def rt_interpolate_exact(mesh: TensorMesh, fld) -> np.ndarray:
    """Edge-DOF vector of the flux interpolant: exact mean normal fluxes.

    Each edge family is one outer product: kx cos(kx x) on the node lines
    times the 1-D antiderivative differences across the cells; x-edges
    (grid [cell row j, line i]) come before y-edges ([line j, cell column i])."""
    nx, ny = mesh.node_x, mesh.node_y
    sx = fld.amp * (fld.kx * np.cos(fld.kx * nx)
                    * _int_sin(fld.ky, ny[:-1, None], ny[1:, None]))
    sy = fld.amp * (_int_sin(fld.kx, nx[:-1], nx[1:])
                    * (fld.ky * np.cos(fld.ky * ny[:, None])))
    sx = -sx / mesh.hy[:, None]
    sy = -sy / mesh.hx
    return np.concatenate([sx.ravel(), sy.ravel()])


def l2_project_exact(mesh: TensorMesh, fld) -> np.ndarray:
    """Cell-mean vector (1/|K|) integral_K u, row-major cell order: the
    outer product of the 1-D antiderivative differences."""
    nx, ny = mesh.node_x, mesh.node_y
    out = fld.amp * (_int_sin(fld.kx, nx[:-1], nx[1:])
                     * _int_sin(fld.ky, ny[:-1, None], ny[1:, None]))
    return out.ravel() / cell_areas(mesh)


def regularity_constant_2d(mesh: TensorMesh) -> float:
    """Smallest a >= 1 with a^-1 h_y <= h_x <= a h_y, from the ratio of
    every (h_x, h_y) pair of cell widths."""
    ratio = mesh.hx[:, None] / mesh.hy[None, :]
    return float(np.maximum(ratio, 1.0 / ratio).max())


def stored(obj):
    """A copy of a report with every NaN as None, every time_seconds key
    dropped at any depth and every tuple as a list."""
    if isinstance(obj, float):
        return None if math.isnan(obj) else obj
    if isinstance(obj, dict):
        return {key: stored(val) for key, val in obj.items()
                if key != "time_seconds"}
    if isinstance(obj, (list, tuple)):
        return [stored(val) for val in obj]
    return obj


def report_json(obj) -> str:
    """The text of a report as written, without its final line break."""
    return json.dumps(stored(obj), sort_keys=True, indent=2, allow_nan=False)
