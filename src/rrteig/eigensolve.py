"""Tensor-product solver for the discrete mixed eigenvalue problem.

The mixed pencil is reduced to the cell space: B A^-1 B^T u = lambda M u.
On a tensor-product mesh the reduced pencil is a Kronecker sum,

    B A^-1 B^T = D_y (x) S_x + S_y (x) D_x,    M = D_y (x) D_x,

where S and D are the reduced operator and the cell-width diagonal of the
1-D RT0 pencil in each direction (fast diagonalisation; Lynch, Rice &
Thomas, Numer. Math. 6, 1964).  solve_mixed_eigs solves the two 1-D
pencils and combines their modes, lambda = mu_i + nu_j and u = w_j (x) v_i.
Each 1-D pencil is built from the cell widths of its direction; two
cumulative sums form its inverse, and a dense eigh of it gives the modes.
Each 1-D spectrum is simple and its i-th mode (from 0) has i sign changes
(discrete Sturm oscillation), so pair (i, j) is labelled with the wave
numbers (m, n) = (i + 1, j + 1) of the exact mode it approximates,
sin(m pi x / a) sin(n pi y / b).
The flux follows from the same structure: A and B are Kronecker products
blockwise (A_xx = diag(h_y) (x) A1x, B_x = diag(h_y) (x) Gx, and alike in
y), so sigma = A^-1 B^T u is w_j (x) A1x^-1 Gx^T v_i on the x-edges and
A1y^-1 Gy^T w_j (x) v_i on the y-edges, from two tridiagonal 1-D solves.
No sparse matrix is factored.  Each pair keeps its four 1-D factors and its
normalisation, and forms its 2-D u and sigma vectors on demand; every pair
is checked against the assembled 2-D matrices by sparse products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .assembly import MixedSystem
from .errors import KTooLarge, NotConverged


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
    """One discrete eigenpair, normalized by u^T M u = 1, held as its 1-D
    factors.

    ``mode`` is the ordered wave-number pair (m, n): u = w (x) v / scale is
    the tensor product of the m-th x mode v and the n-th y mode w, with
    m - 1 and n - 1 sign changes; ``flux_x`` = A1x^-1 Gx^T v and
    ``flux_y`` = A1y^-1 Gy^T w are their 1-D fluxes, and ``scale`` is the
    signed normalisation divisor.  Negating ``scale`` flips the pair.
    """

    lambda_h: float
    v: np.ndarray
    w: np.ndarray
    flux_x: np.ndarray
    flux_y: np.ndarray
    scale: float
    residual_norm: float
    mode: tuple[int, int]

    @property
    def u_coeffs(self) -> np.ndarray:
        """Cell values, row-major: cell j * n1 + i holds w[j] v[i] / scale."""
        return np.outer(self.w, self.v).ravel() / self.scale

    @property
    def sigma_coeffs(self) -> np.ndarray:
        """Edge DOFs: x-edge j * (n1 + 1) + i holds w[j] flux_x[i] / scale,
        then y-edge n_xedge + j * n1 + i holds flux_y[j] v[i] / scale."""
        return np.concatenate([np.outer(self.w, self.flux_x).ravel(),
                               np.outer(self.flux_y, self.v).ravel()]) / self.scale


def _scale(system, u):
    """The signed M-norm of u that normalizes it: the largest-magnitude
    entry of u / scale is positive."""
    nrm = float(np.sqrt(u @ (system.M * u)))
    u = u / nrm
    return -nrm if u[int(np.argmax(np.abs(u)))] < 0 else nrm


def _residual(system, bt, pair):
    """Relative residual of a pair against the assembled 2-D pencil: one
    product with A, B and B^T (formed once by the caller)."""
    sigma, u = pair.sigma_coeffs, pair.u_coeffs
    a_sigma = system.A @ sigma
    r1 = np.linalg.norm(a_sigma - bt @ u)
    r1 /= max(np.linalg.norm(a_sigma), 1e-300)
    r2 = np.linalg.norm(system.B @ sigma - pair.lambda_h * (system.M * u))
    r2 /= max(abs(pair.lambda_h), 1e-300)
    return float(max(r1, r2))


def _modes_1d(h, k):
    """k smallest eigenpairs (mu, v) of the 1-D RT0 pencil (S, D) on the
    cell widths h, S = G A1^-1 G^T and D = diag(h), and their fluxes
    A1^-1 G^T v.

    The pairs are taken from the top of the inverse K = D^1/2 S^-1 D^1/2
    by a dense symmetric eigendecomposition.  S^-1 f = x solves the saddle
    system A1 s = G^T x, G s = f, whose two bidiagonal blocks invert by
    cumulative sums: s is the running sum of f, shifted by the constant
    flux that makes 1^T A1 s = 0, so that A1 s lies in the range of G^T,
    and x is minus the running sum of A1 s.  With the columns of D^1/2
    as f this forms K in O(n^2).  Columns of v are D-orthonormal.  The
    fluxes come from a direct tridiagonal solve with A1.
    """
    n = len(h)
    h_pad = np.concatenate([[0.0], h, [0.0]])  # cell widths beside each edge
    diag, off = h_pad[:-1] / 3.0 + h_pad[1:] / 3.0, h / 6.0  # tridiagonal A1
    d_sqrt = np.sqrt(h)
    s = np.zeros((n + 1, n))
    s[1:] = np.tri(n) * d_sqrt  # running sums of the columns of D^1/2
    s -= (1.5 * diag) @ s / h.sum()  # 1.5 diag: the row sums of A1
    a1s = diag[:, None] * s
    a1s[:-1] += off[:, None] * s[1:]
    a1s[1:] += off[:, None] * s[:-1]
    inv = -np.cumsum(a1s[:-1], axis=0) * d_sqrt[:, None]
    theta, vec = np.linalg.eigh((inv + inv.T) / 2.0)
    top = np.arange(n - 1, n - 1 - k, -1)  # largest theta = smallest mu
    v = vec[:, top] / d_sqrt[:, None]
    gtv = -np.diff(v, axis=0, prepend=0.0, append=0.0)  # G^T v
    bands = np.stack([np.r_[0.0, off], diag])  # upper banded storage
    return 1.0 / theta[top], v, sla.solveh_banded(bands, gtv)


def solve_mixed_eigs(system: MixedSystem, opts: SolveOptions) -> list[MixedEigenpair]:
    """k smallest eigenpairs of the pencil (B A^-1 B^T, M).

    Deterministic; eigenvalues ascending, tied eigenvalues ordered by
    their (y, x) 1-D mode indices, so a cluster member keeps its place
    whatever k is; u vectors M-orthonormal, each u's largest-magnitude
    entry positive; sigma = A^-1 B^T u is assembled from the 1-D fluxes;
    each pair carries its mode label (m, n).
    """
    lay = system.layout
    if opts.k > lay.n_cell:
        raise KTooLarge(f"k={opts.k} exceeds spectrum size {lay.n_cell}")

    # the k smallest sums use at most the k smallest modes of each direction
    mu, v, flux_x = _modes_1d(system.mesh.hx, min(opts.k, lay.n1))
    nu, w, flux_y = _modes_1d(system.mesh.hy, min(opts.k, lay.n2))
    sums = np.add.outer(nu, mu)
    order = np.argsort(sums, axis=None, kind="stable")[: opts.k]

    bt = system.B.T
    out = []
    for flat in order:
        j, i = divmod(int(flat), len(mu))
        pair = MixedEigenpair(
            lambda_h=float(sums[j, i]), v=v[:, i].copy(), w=w[:, j].copy(),
            flux_x=flux_x[:, i].copy(), flux_y=flux_y[:, j].copy(),
            scale=_scale(system, np.outer(w[:, j], v[:, i]).ravel()),
            residual_norm=0.0, mode=(i + 1, j + 1),
        )
        pair.residual_norm = _residual(system, bt, pair)
        out.append(pair)
    worst = max(p.residual_norm for p in out)
    if worst > opts.tol:
        raise NotConverged(
            f"worst residual {worst:.3e} exceeds tol {opts.tol:.1e}",
            residuals=[p.residual_norm for p in out],
        )
    return out
