"""Independent oracles the tests compare the library against.

Each oracle takes the slow, direct route and shares no code with the
library path it checks: a per-cell COO scatter for the direct CSR
assembly, the reference-element dual basis (the inverse of the monomial
DOF matrix, a 25-triplet scatter per cell and a slice of the free DOFs)
for the closed-form enriched stiffness and cell gradients, a dense 2-D
eigensolve for the tensor-product solver, 1-D
pencils sliced from the assembled matrices and inverted through a sparse
saddle LU for the cumulative-sum 1-D modes, a
shift-invert Lanczos solve of the enriched pencil for the inertia count
and the lifted pairs of the equivalence check, per-cell Lagrange
evaluation for the batched postprocessing norms, and scalar analytic
integrals per cell or edge for the batched cell and edge means;
``exact_derivative`` evaluates an exact field pointwise from its 1-D
factors.
They use public rrteig names only.  ``factor_pair`` builds a pair from
1-D factors the solver does not produce, to feed the postprocessing with
chosen or random data.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rrteig.assembly import PeqSystem, layout, peq_cell_gradient
from rrteig.eigensolve import MixedEigenpair
from rrteig.errors import KTooLarge

# Lanczos start-vector seed and iteration cap of solve_peq_eigs
_LANCZOS_SEED = 0
_LANCZOS_MAX_ITERATIONS = 20000


def assemble_mixed_coo(mesh):
    """(A, B) of the mixed discretization, scattered cell by cell.

    Every cell adds its 2x2 flux-mass blocks [[|K|/3, |K|/6], [|K|/6,
    |K|/3]] in x and in y and its four +/- edge lengths of B as COO
    triplets; scipy sorts the indices and sums the duplicates on the way
    to CSR.
    """
    lay = layout(mesh)
    ii, jj = np.meshgrid(np.arange(mesh.n1), np.arange(mesh.n2))
    ii, jj = ii.ravel(), jj.ravel()  # row-major: i fast
    hx = mesh.hx[ii]
    hy = mesh.hy[jj]
    area = mesh.cell_areas

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


def peq_cell_gradient_dual(mesh, coeffs_full):
    """(gxL, gxR, gyB, gyT) of peq_cell_gradient from the reference dual
    basis, each with n_cell rows in row-major cell order and the columns
    of ``coeffs_full``: per cell, the five DOFs are gathered, scaled to
    the reference basis and dotted with its edge derivatives."""
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
    (x, y): the product of the two 1-D factors of FieldSample.factors; x
    and y broadcast."""
    fx, fy = fld.factors(x, y, dx, dy)
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


def residual_2d(system, pair):
    """Relative residual of a pair against the assembled 2-D pencil, the
    larger of |A sigma - B^T u| / |A sigma| and |B sigma - lambda M u| /
    lambda: one sparse product each with A, B and B^T."""
    sigma, u = pair.sigma_coeffs, pair.u_coeffs
    a_sigma = system.A @ sigma
    r1 = np.linalg.norm(a_sigma - system.B.T @ u)
    r1 /= max(np.linalg.norm(a_sigma), 1e-300)
    r2 = np.linalg.norm(system.B @ sigma - pair.lambda_h * (system.M * u))
    r2 /= max(abs(pair.lambda_h), 1e-300)
    return float(max(r1, r2))


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
    cell_means = full[peq.layout.n_sigma :] / peq.mesh.cell_areas
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


def _basis(nodes, x, deriv):
    """Lagrange basis over ``nodes`` (or its derivative) at ``x``, shape
    x.shape + (len(nodes),): monomial coefficients from the inverse
    Vandermonde matrix, in coordinates local to nodes[0]."""
    t = np.asarray(x, dtype=float) - nodes[0]
    coeffs = np.linalg.inv(np.vander(nodes - nodes[0]))  # column a: basis a
    return np.stack([np.polyval(np.polyder(c) if deriv else c, t)
                     for c in coeffs.T], axis=-1)


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


def _mode(fld):
    """(amp, kx, ky) of the exact field, from its label (m, n) and domain."""
    a, b = fld.domain
    return 2.0 / np.sqrt(a * b), fld.m * np.pi / a, fld.n * np.pi / b


def _int_sin(k, x0, x1):
    """The integral of sin(k x) over [x0, x1]."""
    return (np.cos(k * x0) - np.cos(k * x1)) / k


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
