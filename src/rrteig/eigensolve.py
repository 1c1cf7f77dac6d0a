"""Tensor-product solver for the discrete mixed eigenvalue problem.

The mixed pencil is reduced to the cell space: B A^-1 B^T u = lambda M u.
On a tensor-product mesh the reduced pencil is a Kronecker sum,

    B A^-1 B^T = D_y (x) S_x + S_y (x) D_x,    M = D_y (x) D_x,

where S and D are the reduced operator and the cell-width diagonal of the
1-D RT0 pencil in each direction (fast diagonalisation; Lynch, Rice &
Thomas, Numer. Math. 6, 1964).  solve_mixed_eigs solves the two 1-D
pencils, or reuses an offered 1-D mode table of bitwise equal widths and
column count (_table; no other state is kept), and combines their modes,
lambda = mu_i + nu_j and u = w_j (x) v_i.
Each 1-D pencil's modes come from one of three sources, chosen by its
cell widths, and one shared finish.
- Widths equal by mesh.uniform_widths (presets a and b) take the closed
  form of the uniform-grid spectrum (_uniform_modes): no eigensolver and
  no BLAS call, and each mode's bits depend on neither k nor the BLAS
  thread count.
- Other widths build the pencil's inverse from two cumulative sums.  Up
  to _DENSE_MAX_CELLS = 128 cells they form it and a dense eigh gives
  the modes (_dense_top).
- Above, a fixed budget of 16 modes (the next multiple of 16 for k > 16)
  comes from implicitly restarted Lanczos (ARPACK; Lehoucq & Sorensen,
  SIAM J. Matrix Anal. Appl. 17, 1996) on the O(n) product (_KProduct),
  which ARPACK calls directly and which writes every step into buffers
  made once per direction.  It starts from the sum of the budget's exact
  modes sin(m pi x / a) (_sine_start), its bits depend on neither k
  within the budget nor the BLAS thread count, and its result is
  certified to be the smallest modes by one Sturm count of the
  tridiagonal flux pencil just above its largest eigenvalue
  (_count_below), with no threshold.
The finish (_modes_1d) signs each mode, solves its flux and takes the
five 1-D sums of its residual, on the widths themselves.  Each 1-D
spectrum is simple and its i-th mode (from 0) approximates the i-th
exact one, so pair (i, j) is labelled with the wave numbers (m, n) =
(i + 1, j + 1) of the exact mode it approximates, sin(m pi x / a)
sin(n pi y / b).
The flux follows from the same structure: A and B are Kronecker products
blockwise (A_xx = diag(h_y) (x) A1x, B_x = diag(h_y) (x) Gx, and alike in
y), so sigma = A^-1 B^T u is w_j (x) A1x^-1 Gx^T v_i on the x-edges and
A1y^-1 Gy^T w_j (x) v_i on the y-edges, from two tridiagonal 1-D solves,
and a pair's residuals are Kronecker products of 1-D ones (_residuals).  No
2-D matrix is read or factored: each pair is exactly its four 1-D factors,
columns of the two 1-D mode tables that the level's Spectrum holds.
Nothing iterates to a tolerance; the residuals must lie below a roundoff
bound that the mesh fixes (_effective_cells, shared with equivalence).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dptsv, dstebz

from .assembly import MixedSystem
from .errors import InvalidConfig, KTooLarge, LayoutMismatch, NotConverged
from .mesh import uniform_widths

# the most 1-D cells whose modes come from the dense eigendecomposition
_DENSE_MAX_CELLS = 128
# c of the bound c eps N^2 on every pair's residual (solve_mixed_eigs)
_RESIDUAL_C = 64.0


@dataclass(frozen=True)
class SolveOptions:
    """Contract of an eigenpair request: the k smallest pairs, each within
    the residual bound of solve_mixed_eigs."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InvalidConfig(f"k must be >= 1, got {self.k}")


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


def _mode_budget(k):
    """Modes solved per direction for a request of k: 16 for every k <= 16,
    else the next multiple of 16, so that the bits of the first k do not
    depend on k within a bracket."""
    return 16 * max(1, -(-k // 16))


def _dense_top(h, k, diag, off):
    """The k largest eigenpairs (theta, y) of K = D^1/2 S^-1 D^1/2, largest
    first, from K formed in O(n^2) and a dense symmetric eigendecomposition;
    diag and off are the bands of A1 on h (_a1_bands).

    S^-1 f = x solves the saddle system A1 s = G^T x, G s = f, whose two
    bidiagonal blocks invert by cumulative sums: s is the running sum of f,
    shifted by the constant flux that makes 1^T A1 s = 0, so that A1 s lies
    in the range of G^T, and x is minus the running sum of A1 s.  With the
    columns of D^1/2 as f this forms K.
    """
    n = len(h)
    d_sqrt = np.sqrt(h)
    s = np.zeros((n + 1, n))
    s[1:] = np.tri(n) * d_sqrt  # running sums of the columns of D^1/2
    s -= (1.5 * diag) @ s / h.sum()  # 1.5 diag: the row sums of A1
    inv = -np.cumsum(_a1_times(diag, off, s)[:-1], axis=0) * d_sqrt[:, None]
    theta, vec = np.linalg.eigh((inv + inv.T) / 2.0)
    top = np.arange(n - 1, n - 1 - k, -1)  # largest theta = smallest mu
    return theta[top], vec[:, top]


class _KProduct(spla.LinearOperator):
    """K = D^1/2 S^-1 D^1/2 on the widths h as the O(n) product of
    _dense_top's cumulative sums with one vector, with no BLAS call and
    no array allocated per call: every step writes into buffers made once
    per operator.  ``matvec`` is the product itself, so ARPACK calls it
    without LinearOperator's per-call checks; its result is a buffer that
    the next call overwrites (ARPACK copies it at once)."""

    def __init__(self, h, diag, off):
        n = len(h)
        super().__init__(float, (n, n))
        self._d_sqrt = np.sqrt(h)
        # negation is exact: c (-d_sqrt) has the bits of -(c d_sqrt)
        self._neg_d_sqrt = -self._d_sqrt
        self._row = 1.5 * diag / h.sum()  # 1.5 diag: the row sums of A1
        self._diag, self._off = diag, off
        s, a1s = np.empty(n + 1), np.empty(n + 1)
        # the buffers, and the views of them that the steps write through
        self._bufs = (s, s[1:], s[:-1], a1s, a1s[:-1], a1s[1:],
                      np.empty(n), np.empty(n))

    def _matvec(self, x):
        s, s_tail, s_head, a1s, a1s_head, a1s_tail, t, y = self._bufs
        s[0] = 0.0  # the running sum starts at 0 on every call
        np.multiply(self._d_sqrt, x, out=t)
        np.add.accumulate(t, out=s_tail)
        np.multiply(self._row, s, out=a1s)
        np.subtract(s, np.add.reduce(a1s), out=s)  # now 1^T A1 s = 0
        np.multiply(self._diag, s, out=a1s)  # A1 s
        np.multiply(self._off, s_tail, out=t)
        np.add(a1s_head, t, out=a1s_head)
        np.multiply(self._off, s_head, out=t)
        np.add(a1s_tail, t, out=a1s_tail)
        np.add.accumulate(a1s_head, out=y)
        return np.multiply(y, self._neg_d_sqrt, out=y)

    matvec = _matvec


def _count_below(h, diag, off, s):
    """1 + the number of 1-D eigenvalues mu below s on the widths h: the
    negative eigenvalues of the tridiagonal C = T - s A1, T = G^T D^-1 G.

    The flux pencil (T, A1) has the mu as its nonzero eigenvalues and the
    constant flux as its null mode, and A1 is SPD, so by Sylvester's law
    of inertia C has 1 + #{mu < s} negative eigenvalues.  LAPACK stebz
    counts them on (-r, 0], r >= C's spectral radius, with a tolerance
    of 2r, wider than that interval, so that it does no bisection beyond
    the two Sturm counts (Barth, Martin & Wilkinson, Numer. Math. 9,
    1967)."""
    g = np.concatenate([[0.0], 1.0 / h, [0.0]])  # 1/h beside each edge
    d = g[:-1] + g[1:] - s * diag
    e = -g[1:-1] - s * off
    r = np.abs(d).max() + 2.0 * np.abs(e).max()
    return dstebz(d, e, 1, -r, 0.0, 0, 0, 2.0 * r, b"B")[0]


def _sine_start(h, p):
    """D^1/2 sum_{m=1..p} sin(m x), x the cell centres of h scaled to
    (0, pi), in closed form: sin(p x/2) sin((p+1) x/2) / sin(x/2)."""
    x = (np.cumsum(h) - h / 2.0) * (np.pi / h.sum())  # never 0 or pi
    return (np.sqrt(h) * np.sin(p * x / 2.0) * np.sin((p + 1) * x / 2.0)
            / np.sin(x / 2.0))


def _lanczos_top(h, p, diag, off):
    """The p largest eigenpairs (theta, y) of K = D^1/2 S^-1 D^1/2, largest
    first, by implicitly restarted Lanczos (ARPACK) on the O(n) product
    with K (_KProduct), so that K is never formed; diag and off are the
    bands of A1 on h.

    The start vector is the sum of the p exact modes (_sine_start): it
    holds every wanted mode, of both parities on a mirror-symmetric mesh,
    and depends on h and p alone.  The result is certified by one Sturm
    count (_count_below) just above mu_p = 1 / theta_p: it must be p + 1,
    so that, with the residual check, the p modes are the p smallest, as
    the mode labels assume; a mode the iteration missed raises
    NotConverged."""
    n = len(h)
    try:
        theta, vec = spla.eigsh(_KProduct(h, diag, off), p, which="LA",
                                tol=0, v0=_sine_start(h, p))
    except spla.ArpackError as exc:  # ArpackNoConvergence included
        raise NotConverged(
            f"1-D Lanczos modes on {n} cells, {p} modes: {exc}") from exc
    theta, vec = theta[::-1], vec[:, ::-1]
    shift = (1.0 + 1e-6) / theta[-1]  # just above mu_p
    below = _count_below(h, diag, off, shift) - 1  # less the null mode
    if below != p:
        raise NotConverged(f"1-D Lanczos modes on {n} cells: {below} "
                           f"eigenvalues lie below {shift:.6g}, just above "
                           f"the largest of the {p} found: a mode was lost")
    return theta, vec


def _uniform_modes(h, k):
    """The k smallest eigenpairs (mu, v) of the 1-D pencil on n equal
    widths, in closed form (the uniform-grid spectrum; Strang & Fix, An
    Analysis of the Finite Element Method, 1973): with hbar = h.sum() / n
    and t = m pi / n, m = 1..k,

        mu_m = 12 sin^2(t/2) / (hbar^2 (2 + cos t)),

    1 - cos t written as 2 sin^2(t/2), so that nothing cancels, and v_m
    proportional to sin(t (i + 1/2)), D-normalised on the widths h.  Every
    sine is read from one table of sin(j pi / 2n), j = 0..4n - 1, built
    from its first quarter by symmetry, at the index j = m (2i + 1) mod 4n
    (cos t at j = n + 2m): the phase is reduced exactly, and the bits of
    each mode depend on n and h alone, not on k.  No BLAS is called."""
    n = len(h)
    m = np.arange(1, k + 1)
    quarter = np.sin(np.arange(n + 1) * (np.pi / (2 * n)))
    half = np.concatenate([quarter, quarter[-2:0:-1]])
    wave = np.concatenate([half, -half])
    rows = wave[np.outer(m, 2 * np.arange(n) + 1) % (4 * n)]  # one per mode
    # a reduction along each contiguous row, whatever the number of rows
    rows /= np.sqrt(np.add.reduce(h * rows * rows, axis=1))[:, None]
    hbar = h.sum() / n
    mu = 12.0 * wave[m] ** 2 / (hbar**2 * (2.0 + wave[n + 2 * m]))
    return mu, np.ascontiguousarray(rows.T)


def _modes_1d(h, k):
    """k smallest eigenpairs (mu, v) of the 1-D RT0 pencil (S, D) on the
    cell widths h, S = G A1^-1 G^T and D = diag(h), their fluxes
    A1^-1 G^T v and the five 1-D sums per mode that _residuals reads.

    The pairs come from one of three sources.  Widths that are equal by
    mesh.uniform_widths take the closed form (_uniform_modes).  Other
    widths take the top of the inverse K = D^1/2 S^-1 D^1/2: up to
    _DENSE_MAX_CELLS cells, or when the budget of p = _mode_budget(k)
    modes exceeds a quarter of the n cells, K is formed in O(n^2) and
    decomposed densely (_dense_top); above, p modes come from Lanczos on
    the O(n) product with K (_lanczos_top), and the first k are kept.
    The closed form's bits depend on neither k nor the BLAS thread count,
    the Lanczos path's on neither k within a budget bracket nor the
    thread count.  The finish is shared: columns of v D-orthonormal, each
    signed so that its first largest-magnitude entry is positive, the
    fluxes from a direct tridiagonal solve with A1 (LAPACK ptsv, as
    solveh_banded calls it) and the five sums, on the widths h
    themselves, so that the residual check also covers the closed form
    on widths that are equal only to roundoff.
    """
    n = len(h)
    diag, off = _a1_bands(h)
    if uniform_widths(h, h.sum()):
        mu, v = _uniform_modes(h, k)
    else:
        p = _mode_budget(k)
        if n > _DENSE_MAX_CELLS and 4 * p <= n:
            theta, vec = _lanczos_top(h, p, diag, off)
            theta, vec = theta[:k], vec[:, :k]
        else:
            theta, vec = _dense_top(h, k, diag, off)
        mu = 1.0 / theta
        v = vec / np.sqrt(h)[:, None]
    v *= np.sign(v[np.argmax(np.abs(v), axis=0), np.arange(k)])
    gtv = np.empty((n + 1, k))  # G^T v, row i = v[i - 1] - v[i], v 0-padded
    np.negative(v[0], out=gtv[0])
    np.subtract(v[:-1], v[1:], out=gtv[1:-1])
    gtv[-1] = v[-1]
    # solveh_banded's LAPACK call without its checks: A1 is SPD on
    # positive widths, and a failed solve fails the residual bound
    flux = dptsv(diag, off, gtv)[2]
    a1f, dv = _a1_times(diag, off, flux), h[:, None] * v
    rho1, rho2 = a1f - gtv, np.diff(flux, axis=0) - mu * dv  # G f = diff(f)
    terms = ((dv, dv), (rho1, rho1), (a1f, a1f), (rho2, rho2), (dv, rho2))
    # each product as contiguous (k, n) rows, reduced along the rows, as in
    # _uniform_modes: a sum's order, and so its bits, do not depend on k
    # C-contiguous tables, the layout of stacked columns: sums down their
    # columns (verify_equivalence) then run in that order
    return mu, np.ascontiguousarray(v), np.ascontiguousarray(flux), np.array([
        np.add.reduce(np.multiply(a.T, b.T, out=np.empty((k, len(a)))),
                      axis=1) for a, b in terms])


class _Table(tuple):
    """A read-only table (mu, v, flux, sums) of _modes_1d on the widths h,
    and the lift of its columns once verify_equivalence has taken it."""

    h = lift = None


def _table(h, k, offered):
    """The first offered _Table of the bitwise widths h and k columns, else
    a fresh one, of the same bits: _modes_1d is deterministic in (h, k)."""
    for t in offered:
        if np.array_equal(getattr(t, "h", None), h) and t[1].shape[1] == k:
            return t
    table = _Table(_modes_1d(h, k))
    for a in table:
        a.flags.writeable = False
    table.h = h
    return table


def _smallest_sums(a, b, count):
    """The count smallest sums a[i] + b[j], ascending, ties by (i, j), and
    their indices i and j: one stable sort of all the sums."""
    sums = np.add.outer(a, b)
    order = np.argsort(sums, axis=None, kind="stable")[:count]
    i, j = np.unravel_index(order, sums.shape)
    return sums[i, j], i, j


def _effective_cells(mesh):
    """N = max(a / min h_x, b / min h_y) on [x0, x0 + a] x [y0, y0 + b],
    max(n1, n2) on a uniform mesh: the roundoff of a pair, and of anything
    computed from it, grows like N^2 with the condition of the 1-D pencils."""
    return max(mesh.hx.sum() / mesh.hx.min(), mesh.hy.sum() / mesh.hy.min())


def _residuals(lam, x, y):
    """Relative residuals of pairs u = w (x) v in the 2-D pencil, the larger
    of |A sigma - B^T u| / |A sigma| and |B sigma - lambda M u| / (lambda
    |M u|), both free of the mesh's length scale: with rho1 = A1 f - G^T v,
    rho2 = G f - mu D v, they are [(h_y w) (x) rho1_x ; rho1_y (x) (h_x v)]
    and (h_y w) (x) rho2_x + rho2_y (x) (h_x v), and M u = (h_y w) (x) (h_x
    v), normed by the rows |D v|^2, |rho1|^2, |A1 f|^2, |rho2|^2, <D v,
    rho2> of the sums x of each v and y of each w (a square clipped at 0)."""
    (dv_x, r1_x, af_x, r2_x, c_x), (dv_y, r1_y, af_y, r2_y, c_y) = x, y
    r1 = np.sqrt(dv_y * r1_x + r1_y * dv_x)
    r1 /= np.maximum(np.sqrt(dv_y * af_x + af_y * dv_x), 1e-300)
    r2 = np.sqrt(np.maximum(dv_y * r2_x + r2_y * dv_x + 2.0 * c_y * c_x, 0.0))
    r2 /= np.maximum(np.abs(lam) * np.sqrt(dv_y * dv_x), 1e-300)
    return np.maximum(r1, r2)


@dataclass(frozen=True, eq=False)
class Spectrum(Sequence):
    """A level's 1-D mode tables x and y, each a _Table that a solve offered
    it may reuse (_table; stack's tables have no widths), per pair its
    eigenvalue, factor columns, residual and label, and the mesh's
    _effective_cells, as the read-only sequence of MixedEigenpair: a pair
    is built when read, its factors copied out of the tables; a slice is
    a list."""

    x: tuple
    y: tuple
    lambdas: np.ndarray
    ii: np.ndarray
    jj: np.ndarray
    residuals: np.ndarray
    modes: list
    n_eff: float

    @classmethod
    def stack(cls, pairs, mesh):
        """A list of pairs on the mesh, one table column per pair."""
        cols = lambda f: np.column_stack([getattr(p, f) for p in pairs])
        try:
            x = (None, cols("v"), cols("flux_x"), None)
            y = (None, cols("w"), cols("flux_y"), None)
        except ValueError as exc:  # no pair, or factors of unequal lengths
            raise LayoutMismatch(f"the factors of {len(pairs)} pairs do not "
                                 f"fit {mesh.n1} x {mesh.n2} cells") from exc
        t = np.arange(len(pairs))
        return cls(x, y, np.array([p.lambda_h for p in pairs]), t, t,
                   np.array([p.residual_norm for p in pairs]),
                   [p.mode for p in pairs], _effective_cells(mesh))

    def __len__(self):
        return len(self.lambdas)

    def _pair(self, lam, i, j, res, mode):
        (v, fx), (w, fy) = self.x[1:3], self.y[1:3]
        return MixedEigenpair(lam, v[:, i].copy(), w[:, j].copy(),
                              fx[:, i].copy(), fy[:, j].copy(), res, mode)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return [self[s] for s in range(len(self))[t]]
        return self._pair(float(self.lambdas[t]), self.ii[t], self.jj[t],
                          float(self.residuals[t]), self.modes[t])

    def __iter__(self):  # each array read as a list once, not per pair
        return map(self._pair, self.lambdas.tolist(), self.ii.tolist(),
                   self.jj.tolist(), self.residuals.tolist(), self.modes)


def solve_mixed_eigs(system: MixedSystem, opts: SolveOptions, *,
                     tables=()) -> Spectrum:
    """k smallest eigenpairs of the pencil (B A^-1 B^T, M), as a Spectrum,
    reusing the offered 1-D mode ``tables`` that fit (_table).

    Deterministic; eigenvalues ascending, tied eigenvalues ordered by
    their (y, x) 1-D mode indices, so a cluster member keeps its place
    whatever k is; u vectors M-orthonormal, each u's largest-magnitude
    entry positive at (argmax |w|, argmax |v|); sigma = A^-1 B^T u is
    assembled from the 1-D fluxes; each pair carries its mode label
    (m, n).  Only ``system.mesh`` is read.

    A residual above c eps N^2 (c = _RESIDUAL_C, N = _effective_cells),
    or a NaN, raises NotConverged with every pair's residual.  Measured on
    48 000 random meshes of up to 8 x 8 cells, the worst residual is at
    most 5.4 eps N^2 on one cell and 2.9 eps N^2 on more, and 0.23 eps N^2
    on random and graded meshes of 129 to 2048 cells per direction.  On
    the closed form, over uniform meshes of 8 to 8192 cells per direction
    (spans pi, 1, 2 and 7.3, one origin away from 0, n2 = n1 / 2, n1 and
    2 n1) at k = 6, 16 and 48, it is at most 0.25 eps N^2.
    """
    mesh = system.mesh
    if opts.k > mesh.n_cells:
        raise KTooLarge(f"k={opts.k} exceeds spectrum size {mesh.n_cells}")

    # the k smallest sums use at most the k smallest modes of each direction
    x = _table(mesh.hx, min(opts.k, mesh.n1), tables)
    y = _table(mesh.hy, min(opts.k, mesh.n2), (x, *tables))
    lams, jj, ii = _smallest_sums(y[0], x[0], opts.k)
    residuals = _residuals(lams, x[3][:, ii], y[3][:, jj])
    n_eff = _effective_cells(mesh)
    bound = _RESIDUAL_C * np.finfo(float).eps * n_eff**2
    if not residuals.max() <= bound:  # a NaN residual fails too
        raise NotConverged(
            f"worst residual {residuals.max():.3e} exceeds the roundoff bound "
            f"{bound:.3e} = {_RESIDUAL_C:g} eps N^2, N = {n_eff:.6g}",
            residuals=residuals.tolist(),
        )
    modes = list(zip((ii + 1).tolist(), (jj + 1).tolist()))
    return Spectrum(x, y, lams, ii, jj, residuals, modes, n_eff)
