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
A1y^-1 Gy^T w_j (x) v_i on the y-edges, from two tridiagonal 1-D solves,
and a pair's residuals are Kronecker products of 1-D ones (_residuals).  No
2-D matrix is read or factored: each pair is exactly its four 1-D factors.
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
    relative residual in the 2-D mixed pencil of at most ``tol``."""

    k: int
    tol: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.tol < 1.0):
            raise ValueError("tol must lie in (0, 1)")
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass
class MixedEigenpair:
    """One discrete eigenpair, held as its 1-D factors.

    ``mode`` is the ordered wave-number pair (m, n): u = w (x) v is the
    tensor product of the m-th x mode v and the n-th y mode w, with m - 1
    and n - 1 sign changes; ``flux_x`` = A1x^-1 Gx^T v and ``flux_y`` =
    A1y^-1 Gy^T w are their 1-D fluxes.  v and w are D-orthonormal, so
    u^T M u = 1 to roundoff.  Negating v and flux_x flips the pair.
    """

    lambda_h: float
    v: np.ndarray
    w: np.ndarray
    flux_x: np.ndarray
    flux_y: np.ndarray
    residual_norm: float
    mode: tuple[int, int]


def _a1_bands(h):
    """Diagonal and off-diagonal of the 1-D flux mass A1 on the widths h."""
    h_pad = np.concatenate([[0.0], h, [0.0]])  # cell widths beside each edge
    return h_pad[:-1] / 3.0 + h_pad[1:] / 3.0, h / 6.0


def _a1_times(diag, off, s):
    """A1 s, column by column, for the tridiagonal A1 = (off, diag, off)."""
    out = diag[:, None] * s
    out[:-1] += off[:, None] * s[1:]
    out[1:] += off[:, None] * s[:-1]
    return out


def _modes_1d(h, k):
    """k smallest eigenpairs (mu, v) of the 1-D RT0 pencil (S, D) on the
    cell widths h, S = G A1^-1 G^T and D = diag(h), their fluxes
    A1^-1 G^T v and the five 1-D sums per mode that _residuals reads.

    The pairs are taken from the top of the inverse K = D^1/2 S^-1 D^1/2
    by a dense symmetric eigendecomposition.  S^-1 f = x solves the saddle
    system A1 s = G^T x, G s = f, whose two bidiagonal blocks invert by
    cumulative sums: s is the running sum of f, shifted by the constant
    flux that makes 1^T A1 s = 0, so that A1 s lies in the range of G^T,
    and x is minus the running sum of A1 s.  With the columns of D^1/2
    as f this forms K in O(n^2).  Columns of v are D-orthonormal, each
    signed so that its first largest-magnitude entry is positive.  The
    fluxes come from a direct tridiagonal solve with A1.
    """
    n = len(h)
    diag, off = _a1_bands(h)
    d_sqrt = np.sqrt(h)
    s = np.zeros((n + 1, n))
    s[1:] = np.tri(n) * d_sqrt  # running sums of the columns of D^1/2
    s -= (1.5 * diag) @ s / h.sum()  # 1.5 diag: the row sums of A1
    inv = -np.cumsum(_a1_times(diag, off, s)[:-1], axis=0) * d_sqrt[:, None]
    theta, vec = np.linalg.eigh((inv + inv.T) / 2.0)
    top = np.arange(n - 1, n - 1 - k, -1)  # largest theta = smallest mu
    mu = 1.0 / theta[top]
    v = vec[:, top] / d_sqrt[:, None]
    v *= np.sign(v[np.argmax(np.abs(v), axis=0), np.arange(k)])
    gtv = -np.diff(v, axis=0, prepend=0.0, append=0.0)  # G^T v
    bands = np.stack([np.r_[0.0, off], diag])  # upper banded storage
    flux = sla.solveh_banded(bands, gtv)
    a1f, dv = _a1_times(diag, off, flux), h[:, None] * v
    rho1, rho2 = a1f - gtv, np.diff(flux, axis=0) - mu * dv  # G f = diff(f)
    terms = ((dv, dv), (rho1, rho1), (a1f, a1f), (rho2, rho2), (dv, rho2))
    return mu, v, flux, np.array([np.sum(a * b, axis=0) for a, b in terms])


def _residuals(lam, x, y):
    """Relative residuals of pairs u = w (x) v in the 2-D pencil, the larger
    of |A sigma - B^T u| / |A sigma| and |B sigma - lambda M u| / lambda:
    with rho1 = A1 f - G^T v, rho2 = G f - mu D v, they are [(h_y w) (x)
    rho1_x ; rho1_y (x) (h_x v)] and (h_y w) (x) rho2_x + rho2_y (x) (h_x v),
    normed by the rows |D v|^2, |rho1|^2, |A1 f|^2, |rho2|^2, <D v, rho2>
    of the sums x of each v and y of each w (a square clipped at 0)."""
    (dv_x, r1_x, af_x, r2_x, c_x), (dv_y, r1_y, af_y, r2_y, c_y) = x, y
    r1 = np.sqrt(dv_y * r1_x + r1_y * dv_x)
    r1 /= np.maximum(np.sqrt(dv_y * af_x + af_y * dv_x), 1e-300)
    r2 = np.sqrt(np.maximum(dv_y * r2_x + r2_y * dv_x + 2.0 * c_y * c_x, 0.0))
    r2 /= np.maximum(np.abs(lam), 1e-300)
    return np.maximum(r1, r2)


def solve_mixed_eigs(system: MixedSystem, opts: SolveOptions) -> list[MixedEigenpair]:
    """k smallest eigenpairs of the pencil (B A^-1 B^T, M).

    Deterministic; eigenvalues ascending, tied eigenvalues ordered by
    their (y, x) 1-D mode indices, so a cluster member keeps its place
    whatever k is; u vectors M-orthonormal, each u's largest-magnitude
    entry positive at (argmax |w|, argmax |v|); sigma = A^-1 B^T u is
    assembled from the 1-D fluxes; each pair carries its mode label
    (m, n).  Only ``system.mesh`` is read.
    """
    mesh = system.mesh
    if opts.k > mesh.n_cells:
        raise KTooLarge(f"k={opts.k} exceeds spectrum size {mesh.n_cells}")

    # the k smallest sums use at most the k smallest modes of each direction
    mu, v, flux_x, sums_x = _modes_1d(mesh.hx, min(opts.k, mesh.n1))
    nu, w, flux_y, sums_y = _modes_1d(mesh.hy, min(opts.k, mesh.n2))
    lams = np.add.outer(nu, mu)
    order = np.argsort(lams, axis=None, kind="stable")[: opts.k]
    jj, ii = np.unravel_index(order, lams.shape)
    residuals = _residuals(lams[jj, ii], sums_x[:, ii], sums_y[:, jj])
    if not residuals.max() <= opts.tol:  # a NaN residual fails too
        raise NotConverged(
            f"worst residual {residuals.max():.3e} exceeds tol {opts.tol:.1e}",
            residuals=residuals.tolist(),
        )
    return [
        MixedEigenpair(
            lambda_h=float(lams[j, i]), v=v[:, i].copy(), w=w[:, j].copy(),
            flux_x=flux_x[:, i].copy(), flux_y=flux_y[:, j].copy(),
            residual_norm=r, mode=(i + 1, j + 1),
        )
        for j, i, r in zip(jj.tolist(), ii.tolist(), residuals.tolist())
    ]
