"""Independent oracles the tests compare the library against.

Each oracle takes the slow, direct route and shares no code with the
library path it checks: a per-cell COO scatter for the direct CSR
assembly, a dense 2-D eigensolve for the tensor-product solver, 1-D
pencils sliced from the assembled matrices and inverted through a sparse
saddle LU for the cumulative-sum 1-D modes, a
shift-invert Lanczos solve of the enriched pencil for the inertia count
and the lifted pairs of the equivalence check, per-cell Lagrange
evaluation for the batched postprocessing norms, and scalar analytic
integrals per cell or edge for the batched cell and edge means.
They use public rrteig names only.  ``factor_pair`` builds a pair from
1-D factors the solver does not produce, to feed the postprocessing with
chosen or random data.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rrteig.assembly import layout, peq_cell_gradient
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


def factor_pair(v, w, flux_x, flux_y, scale=1.0):
    """A pair with the given 1-D factors: u = w (x) v / scale, sx = w (x)
    flux_x / scale and sy = flux_y (x) v / scale."""
    return MixedEigenpair(lambda_h=0.0, v=np.asarray(v, float),
                          w=np.asarray(w, float),
                          flux_x=np.asarray(flux_x, float),
                          flux_y=np.asarray(flux_y, float), scale=scale,
                          residual_norm=0.0, mode=(1, 1))


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
