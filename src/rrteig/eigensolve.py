"""Tensor-product and dense solvers for the discrete mixed eigenvalue problem.

The mixed pencil is reduced to the cell space: B A^-1 B^T u = lambda M u.
On a tensor-product mesh the reduced pencil is a Kronecker sum,

    B A^-1 B^T = D_y (x) S_x + S_y (x) D_x,    M = D_y (x) D_x,

where S and D are the reduced operator and the cell-width diagonal of the
1-D RT0 pencil in each direction (fast diagonalisation; Lynch, Rice &
Thomas, Numer. Math. 6, 1964).  The production path solves the two 1-D
pencils and combines their modes, lambda = mu_i + nu_j and u = w_j (x) v_i,
then checks every pair against the assembled 2-D matrices.  The dense
oracle forms the 2-D reduced matrix column by column and is kept strictly
separate for verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import MixedSystem
from .errors import KTooLarge, NotConverged, OracleCapExceeded


@dataclass(frozen=True)
class SolveOptions:
    """Contract of an eigenpair request: the k smallest pairs, each with a
    relative residual against the assembled pencil of at most ``tol``."""

    k: int
    tol: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.tol < 1.0):
            raise ValueError("tol must lie in (0, 1)")
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass
class MixedEigenpair:
    """One discrete eigenpair, normalized by u^T M u = 1."""

    lambda_h: float
    sigma_coeffs: np.ndarray
    u_coeffs: np.ndarray
    residual_norm: float


def _normalize(system, u):
    """M-normalize and fix the sign: the largest-magnitude entry is positive."""
    nrm = np.sqrt(float(u @ (system.M * u)))
    u = u / nrm
    imax = int(np.argmax(np.abs(u)))
    if u[imax] < 0:
        u = -u
    return u


def _finalize(system, a_lu, lam, u):
    """Normalize u, recover sigma = A^-1 B^T u and measure the residual
    of the pair against the assembled 2-D pencil."""
    u = _normalize(system, u)
    sigma = a_lu.solve(system.B.T @ u)
    r1 = system.A @ sigma - system.B.T @ u
    r2 = system.B @ sigma - lam * (system.M * u)
    res = np.linalg.norm(r1) / max(np.linalg.norm(system.A @ sigma), 1e-300)
    res = max(res, np.linalg.norm(r2) / max(abs(lam), 1e-300))
    return MixedEigenpair(
        lambda_h=float(lam), sigma_coeffs=sigma, u_coeffs=u,
        residual_norm=float(res),
    ), res


def _strip_pencil(system: MixedSystem, axis: int):
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


def _modes_1d(a1, g, d, k):
    """k smallest eigenpairs (mu, v) of the 1-D pencil (G A1^-1 G^T, diag d).

    They are taken from the top of the inverse D^1/2 S^-1 D^1/2 by a dense
    symmetric eigendecomposition; S^-1 is applied through one sparse LU of
    the saddle matrix [[A1, G^T], [G, 0]].  Columns of v are d-orthonormal.
    """
    n_edge, n = a1.shape[0], len(d)
    lu = spla.splu(sp.bmat([[a1, g.T], [g, None]], format="csc"))
    d_sqrt = np.sqrt(d)
    rhs = np.zeros((n_edge + n, n))
    rhs[n_edge:] = np.diag(d_sqrt)
    inv = -lu.solve(rhs)[n_edge:] * d_sqrt[:, None]
    theta, vec = np.linalg.eigh((inv + inv.T) / 2.0)
    top = np.arange(n - 1, n - 1 - k, -1)  # largest theta = smallest mu
    return 1.0 / theta[top], vec[:, top] / d_sqrt[:, None]


def solve_mixed_eigs(system: MixedSystem, opts: SolveOptions) -> list[MixedEigenpair]:
    """k smallest eigenpairs of the pencil (B A^-1 B^T, M).

    Deterministic; eigenvalues ascending, tied eigenvalues ordered by
    their (y, x) 1-D mode indices, so a cluster member keeps its place
    whatever k is; u vectors M-orthonormal, each u's largest-magnitude
    entry positive.
    """
    lay = system.layout
    if opts.k > lay.n_cell:
        raise KTooLarge(f"k={opts.k} exceeds spectrum size {lay.n_cell}")

    # the k smallest sums use at most the k smallest modes of each direction
    mu, v = _modes_1d(*_strip_pencil(system, 0), min(opts.k, lay.n1))
    nu, w = _modes_1d(*_strip_pencil(system, 1), min(opts.k, lay.n2))
    sums = np.add.outer(nu, mu)
    order = np.argsort(sums, axis=None, kind="stable")[: opts.k]

    a_lu = spla.splu(system.A.tocsc())
    out, worst = [], 0.0
    for flat in order:
        j, i = divmod(int(flat), len(mu))
        u = np.outer(w[:, j], v[:, i]).ravel()  # cell index j * n1 + i
        pair, res = _finalize(system, a_lu, sums[j, i], u)
        out.append(pair)
        worst = max(worst, res)
    if worst > opts.tol:
        raise NotConverged(
            f"worst residual {worst:.3e} exceeds tol {opts.tol:.1e}",
            residuals=[p.residual_norm for p in out],
        )
    return out


def dense_oracle_eigs(
    system: MixedSystem, k: int, cap: int = 5000
) -> list[MixedEigenpair]:
    """Dense verification oracle, independent of the tensor-product path.

    Forms the 2-D reduced matrix S = B A^-1 B^T column by column with direct
    inner solves, reduces the pencil (S, M) with the trivial Cholesky of
    the diagonal M, and calls a dense symmetric eigendecomposition.
    """
    n_cell = system.layout.n_cell
    if n_cell > cap:
        raise OracleCapExceeded(f"n_cell={n_cell} exceeds oracle cap {cap}")
    if k > n_cell:
        raise KTooLarge(f"k={k} exceeds spectrum size {n_cell}")

    a_lu = spla.splu(system.A.tocsc())
    bt = np.asarray(system.B.T.todense())
    z = a_lu.solve(bt)  # A^-1 B^T, one column per cell DOF
    s_dense = np.asarray(system.B.todense()) @ z
    s_dense = (s_dense + s_dense.T) / 2.0

    d_inv_sqrt = 1.0 / np.sqrt(system.M)
    c = d_inv_sqrt[:, None] * s_dense * d_inv_sqrt[None, :]
    vals, vecs = np.linalg.eigh(c)

    out = []
    for idx in range(k):
        lam = vals[idx]
        u = d_inv_sqrt * vecs[:, idx]
        pair, _ = _finalize(system, a_lu, lam, u)
        out.append(pair)
    return out
