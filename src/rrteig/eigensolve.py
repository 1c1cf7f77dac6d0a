"""Tensor-product solver for the discrete mixed eigenvalue problem.

The mixed pencil is reduced to the cell space: B A^-1 B^T u = lambda M u.
On a tensor-product mesh the reduced pencil is a Kronecker sum,

    B A^-1 B^T = D_y (x) S_x + S_y (x) D_x,    M = D_y (x) D_x,

where S and D are the reduced operator and the cell-width diagonal of the
1-D RT0 pencil in each direction (fast diagonalisation; Lynch, Rice &
Thomas, Numer. Math. 6, 1964).  solve_mixed_eigs solves the two 1-D
pencils, or reuses an offered 1-D mode table of bitwise equal widths and
column count (_tables; no other state is kept), and combines their modes,
lambda = mu_i + nu_j and u = w_j (x) v_i.  Two fresh tables of one cell
count and one column count are solved as one stack (_modes_1d): the
kernels that work row by row run once over the modes of both directions,
each row on its own direction's widths, the LAPACK calls per direction;
every sum runs along one row, so a table's bits do not depend on the
stack, and one direction alone is a stack of one.  The k smallest sums
use only the modes that can reach them, about sqrt(2k) per direction on
a square, so each direction's column count p grows from the data until
no further mode can enter: a mode beyond the table is bounded below by
mu_m >= (m pi / s)^2 on a side of length s, since the 1-D pencil is P1
Galerkin's and converges from above (Babuska & Osborn, Handbook of
Numerical Analysis II, 1991).
Each 1-D pencil's modes come from one of three sources, chosen by its
cell widths (_modes_1d), and one shared finish: on equal widths (presets
a and b) the closed form of the uniform-grid spectrum; on others, up to
_DENSE_MAX_CELLS = 128 cells, a dense eigh of the pencil's inverse K,
formed by the product the iteration takes (_k_rows), and above it
Rayleigh quotient iteration in K's space, from the flux cos(m pi x / a)
of the exact mode, each step one tridiagonal solve with the flux pencil
T - s A1, T = G^T D^-1 G, each row stopped where |K y - theta y| falls
to a roundoff bound that grows with n, and certified by Sturm counts of
T - s A1, a lost mode bracketed by them and bisected until it converges
(_inverse_modes).  Neither this nor the closed form calls BLAS: a mode's
bits depend on neither k, nor the threads, nor the stack.
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
The 2-D residuals must lie below a roundoff bound that the mesh fixes
(_effective_cells, shared with equivalence).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgtsv, dptsv, dstebz

from .assembly import MixedSystem
from .errors import InvalidConfig, KTooLarge, LayoutMismatch, NotConverged
from .mesh import uniform_widths

_DENSE_MAX_CELLS = 128  # the most 1-D cells always solved by a dense eigh
_MAX_SOLVES = 8  # the most solves of one Rayleigh quotient iteration
_VECTOR_TOL = 1e-13  # error along other modes kept by a row without last step
_STOP_C = 0.125  # c of the stop test |K y - theta y| <= c eps n theta_1 (_rqi)
# c of the bound c eps N^2 on every pair's residual (solve_mixed_eigs)
_RESIDUAL_C = 64.0
# the sides s on which (pi / s)^2 and its inverse are normal floats
_SIDES = (math.pi * math.sqrt(sys.float_info.min),
          math.pi / math.sqrt(sys.float_info.min))


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
    """Diagonal and off-diagonal of the 1-D flux mass A1 on the widths h,
    along the last axis: one pair of bands per row of a stack."""
    h_pad = np.zeros((*h.shape[:-1], h.shape[-1] + 2))
    h_pad[..., 1:-1] = h  # cell widths beside each edge
    return h_pad[..., :-1] / 3.0 + h_pad[..., 1:] / 3.0, h / 6.0


def _a1_times(diag, off, s):
    """A1 s along the last axis, row by row, for the tridiagonal A1 =
    (off, diag, off); the bands broadcast against the rows of s."""
    out = diag * s
    out[..., :-1] += off * s[..., 1:]
    out[..., 1:] += off * s[..., :-1]
    return out


def _gt_times(v):
    """G^T v along the last axis: entry i is v[i - 1] - v[i], v 0-padded."""
    gtv = np.zeros((*v.shape[:-1], v.shape[-1] + 1))
    gtv[..., :-1] -= v
    gtv[..., 1:] += v
    return gtv


def _k_ops(hs, diag, off):
    """Per row of the stack of widths hs, what _k_rows reads: sqrt(h), A1's
    bands (diag, off; _a1_bands) and 1.5 diag / a, a = h.sum() (1.5 diag:
    A1's row sums)."""
    return np.sqrt(hs), diag, off, 1.5 * diag / hs.sum(axis=1)[:, None]


def _k_rows(ops, xs):
    """K x, K = D^1/2 S^-1 D^1/2, for each row x of xs on the widths of its
    row of ops (_k_ops; rows that broadcast against xs).  S^-1 f = x solves
    the saddle system A1 s = G^T x, G s = f, whose bidiagonal blocks invert
    by cumulative sums: s is the running sum of f, less the constant flux
    that makes 1^T A1 s = 0, so that A1 s is in the range of G^T, and x is
    minus the running sum of A1 s.  Each sum runs along a row, so a row's
    bits are its own, whatever rows stand beside it; no BLAS call."""
    d_sqrt, diag, off, c = ops
    dx = d_sqrt * xs
    s = np.zeros((*dx.shape[:-1], dx.shape[-1] + 1))
    np.cumsum(dx, axis=-1, out=s[..., 1:])
    s -= np.add.reduce(c * s, axis=-1)[..., None]
    return -np.cumsum(_a1_times(diag, off, s)[..., :-1], axis=-1) * d_sqrt


def _unit_rows(y):
    """y with each row scaled to unit length, by a sum along the row."""
    return y / np.sqrt(np.add.reduce(y * y, axis=-1))[..., None]


def _dense_top(ops, k):
    """The k largest eigenpairs (theta, y) of each direction's K, largest
    first, y as rows, by a dense symmetric eigh of K formed on the unit rows
    (_k_rows), one LAPACK call per direction; a K that is not finite
    (widths whose squares overflow) raises NotConverged."""
    n = ops[0].shape[1]
    inv = _k_rows(tuple(o[:, None] for o in ops), np.eye(n))  # (d, n, n)
    if not np.isfinite(inv).all():
        raise NotConverged(f"1-D dense solve on {n} cells: K is not finite")
    theta, vec = np.linalg.eigh((inv + inv.transpose(0, 2, 1)) / 2.0)
    top = np.arange(n - 1, n - 1 - k, -1)  # largest theta = smallest mu
    return theta[:, top], vec[:, :, top].transpose(0, 2, 1)


def _shifted_bands(pencil, s):
    """The diagonal and off-diagonal of T - s A1, pencil = (T's, A1's)."""
    (t_diag, t_off), (diag, off) = pencil
    return t_diag - s * diag, t_off - s * off


def _count_below(pencil, s):
    """1 + the number of 1-D eigenvalues mu below s: the negative
    eigenvalues of the tridiagonal C = T - s A1.  The flux pencil (T, A1)
    has the mu as its nonzero eigenvalues and the constant flux as its
    null mode, and A1 is SPD, so by Sylvester's law of inertia C has 1 +
    #{mu < s} negative eigenvalues.  LAPACK stebz counts them on (-r, 0],
    r >= C's spectral radius, with a tolerance of 2r, wider than that
    interval, so that it does no bisection beyond the two Sturm counts
    (Barth, Martin & Wilkinson, Numer. Math. 9, 1967)."""
    d, e = _shifted_bands(pencil, s)
    r = np.abs(d).max() + 2.0 * np.abs(e).max()
    return dstebz(d, e, 1, -r, 0.0, 0, 0, 2.0 * r, b"B")[0]


def _shifted_solve(pencil, s, b):
    """(T - s A1)^-1 b by LAPACK gtsv on the pencil's bands (_shifted_bands);
    an exactly singular pivot (info > 0) moves s by 2^-30 relative."""
    for shift in (s, s * (1.0 + 2.0**-30)):
        d, e = _shifted_bands(pencil, shift)
        x, info = dgtsv(e, d, e, b)[3:]
        if info == 0:
            return x
    raise NotConverged(f"1-D inverse iteration on {len(b) - 1} cells: "
                       f"T - s A1 is singular at s = {s:.17g}")


def _gap(a, q, m, theta):
    """A lower bound of the distance from theta, 1/mu_m to roundoff, to K's
    other eigenvalues on a side of length a, q = h_max / a, by (m pi / a)^2
    <= mu_m <= (m pi / a)^2 / (1 - (m q)^2)^2, m q < 1: (T, A1) is the P1
    Galerkin pencil of -f'' = mu f, above the exact modes (Babuska & Osborn,
    Handbook of Numerical Analysis II, 1991) and below the interpolants of
    the first m + 1, as interpolation raises no |f'| and moves f by at
    most (h_max / pi)^2 |f''|."""
    below = (a / ((m + 1) * math.pi)) ** 2  # theta_m+1 at most
    shrink = 1.0 - ((m - 1) * q) ** 2  # theta_m-1 at least shrink^2 ...
    above = (math.inf if m == 1 else 0.0 if shrink <= 0.0 else
             shrink**2 * (a / ((m - 1) * math.pi)) ** 2)
    return min(above - theta, theta - below)


class _Pencils(NamedTuple):
    """Per direction of a stack of n-cell widths: the rows of _k_ops, the
    flux pencil (T's bands, A1's), T = G^T D^-1 G, the side a and q = h_max
    / a as floats (_gap) and the stop bound tol of _inverse_modes."""

    ops: tuple
    pencils: list
    sides: list
    qs: list
    tol: np.ndarray


def _rqi(st, di, ms, y, lo, hi):
    """Rayleigh quotient iteration on K from each unit row of y, row i on
    mode ms[i] of direction di[i] of the stack st (_Pencils).  A pass takes
    K y (_k_rows), theta = y^T K y and r = K y - theta y; a row stops once
    |r| <= tol with 1/theta in (lo, hi).  A step is y - (K - theta')^-1 r =
    y + nu D^-1/2 G (T - nu A1)^-1 G^T D^-1/2 r, nu = 1/theta' = 1/(theta
    (1 + 2^-30)), or the midpoint of (lo, hi) if 1/theta lies outside: one
    flux solve on the row's own pencil (_shifted_solve).  A row that stops
    takes a last step, keeping its theta, unless it has stepped and its
    error along the other modes, at most |r| / _gap, is below _VECTOR_TOL.
    Returns the rows, their theta and whether each stopped within
    _MAX_SOLVES solves; a row's bits are its own, whatever rows, of
    whichever direction, iterate beside it."""
    ops, tol = tuple(o[di] for o in st.ops), st.tol[di]  # of rows act
    act = np.arange(len(y))
    theta, done = np.empty(len(y)), np.zeros(len(y), bool)
    for solves in range(_MAX_SOLVES + 1):
        ya = y[act]
        ky = _k_rows(ops, ya)
        theta[act] = ta = np.add.reduce(ya * ky, axis=1)
        r = ky - ta[:, None] * ya
        res = np.sqrt(np.add.reduce(r * r, axis=1))
        s = 1.0 / ta
        inside = (lo[act] < s) & (s < hi[act])
        done[act] = fin = inside & (res <= tol)
        step = ~fin & (solves < _MAX_SOLVES)
        for i in np.flatnonzero(fin):  # the last step, unless sure
            j = di[act[i]]
            step[i] = not solves or res[i] > _VECTOR_TOL * _gap(
                st.sides[j], st.qs[j], int(ms[act[i]]), float(ta[i]))
        if step.any():
            nu = 1.0 / (ta * (1.0 + 2.0**-30))
            if not inside.all():
                nu = np.where(inside, nu, (lo[act] + hi[act]) / 2.0)
            d_sqrt = ops[0][step]
            nu, rhs = nu[step], _gt_times(r[step] / d_sqrt)
            x = np.array([_shifted_solve(st.pencils[j], *c)
                          for j, c in zip(di[act[step]], zip(nu, rhs))])
            z = ya[step] + nu[:, None] * (x[:, 1:] - x[:, :-1]) / d_sqrt
            y[act[step]] = _unit_rows(z)
        act = act[~fin]
        if not len(act) or solves == _MAX_SOLVES:
            return y, theta, done
        if fin.any():
            ops, tol = tuple(o[~fin] for o in ops), tol[~fin]


def _brackets(pencil, a, theta, done):
    """The lost modes of one direction of _inverse_modes, as (m, lo, hi):
    mu_m alone in [lo, hi), by Sturm counts; raises NotConverged where
    none is found."""
    n, k, s = len(pencil[1][1]), len(theta), 1.0 / theta  # A1's off: n
    count = lambda t: _count_below(pencil, t) - 1  # mu below t
    # mu_m >= (m pi / a)^2 (T, A1 are P1 Galerkin's): lo lies above the
    # null mode and mu_1 alone, then above mode m - 1 alone, below mode m;
    # two rows on one mode differ by roundoff, so a rise by the lift
    lift, lo = 1.0 + 1e-6, 0.5 * (np.pi / a) ** 2
    ok = done & (s > np.concatenate([[lo], s[:-1] * lift]))
    p = k if ok.all() else int(np.argmin(ok))  # the longest rising prefix
    p = p if p and count(s[p - 1] * lift) == p else 0
    lo, brackets = s[p - 1] * lift if p else lo, []
    for m in range(p + 1, k + 1):
        if done[m - 1] and s[m - 1] > lo and count(s[m - 1] * lift) == m:
            lo = s[m - 1] * lift
            continue
        hi, step = np.inf, 4.0 * max(lo, (m * np.pi / a) ** 2) / m  # 2 gaps
        for _ in range(64):
            t = lo + step if hi == np.inf else (lo + hi) / 2.0
            if (c := count(t)) == m:  # mu_m alone in [lo, t)
                hi = t
                break
            lo, hi, step = (lo, t, step) if c > m else (t, hi, 2.0 * step)
        else:
            raise _lost(n, m, lo, hi)
        brackets.append((m, lo, hi))
        lo = hi
    return brackets


def _lost(n, m, lo, hi):
    """The error of a mode m that no bracket [lo, hi) on n cells holds."""
    return NotConverged(f"1-D inverse iteration on {n} cells: mode {m} lost "
                        f"in [{lo:.6g}, {hi:.6g})")


def _inverse_modes(hs, k, ops):
    """The k largest eigenpairs (theta, y) of each direction's K, largest
    first, y as rows, by Rayleigh quotient iteration in K's space, where
    roundoff is relative to the mode, not to |T| (_rqi; Parlett, The
    Symmetric Eigenvalue Problem, 1980, ch. 4), the rows of every
    direction in one block: row m from y = D^-1/2 G cos(m pi x / a), the
    flux of the exact mode, stopped at |K y - theta y| <= tau theta_1, tau
    = _STOP_C eps n, theta_1 <= (a / pi)^2 standing in for K's largest
    eigenvalue.  Measured, a converged row's |K y - theta y| stays below
    0.019 eps n theta_1 (8.3 eps theta_1 at most) on random,
    mirror-symmetric, geometric and graded widths of 129 to 8192 cells at
    k = 3, 16 and 48, so _STOP_C = 1/8 leaves a margin of 6.7 or more.
    With s = 1/theta, the longest prefix of p quotients that rise by the
    lift 1e-6 holds mu_1..mu_p if a Sturm count just above its top reads p
    + 1.  A later mode keeps its quotient if it lies above mode m - 1's and
    a count just above reads m + 1; else it is bracketed by counts until
    mu_m is alone (_brackets), and the lost modes of every direction
    iterate there as one block, each bisected until it converges, or raise
    NotConverged."""
    d, n = hs.shape
    sides = hs.sum(axis=1)
    g = np.zeros((d, n + 2))
    g[:, 1:-1] = 1.0 / hs  # 1/h beside each edge
    t_bands = zip(g[:, :-1] + g[:, 1:], -g[:, 1:-1])  # T's, per direction
    st = _Pencils(ops, list(zip(t_bands, zip(*ops[1:3]))), sides.tolist(),
                  (hs.max(axis=1) / sides).tolist(),
                  _STOP_C * np.finfo(float).eps * n * (sides / np.pi) ** 2)
    x = np.zeros((d, n + 1))
    np.cumsum(hs, axis=1, out=x[:, 1:])
    x *= (np.pi / sides)[:, None]
    # D^-1/2 G cos(m pi x / a), unit rows
    start = lambda di, ms: _unit_rows(
        np.diff(np.cos(ms[:, None] * x[di])) / ops[0][di])
    di, ms = np.divmod(np.arange(d * k), k)
    ms += 1
    y, theta, done = _rqi(st, di, ms, start(di, ms), np.zeros(d * k),
                          np.full(d * k, np.inf))
    y = y.reshape(d, k, n)
    theta, done = theta.reshape(d, k), done.reshape(d, k)
    brackets = [(j, *b) for j in range(d) for b in _brackets(
        st.pencils[j], sides[j], theta[j], done[j])]
    if brackets:  # the lost modes iterate as one block, bisected until done
        dj, ms, los, his = (np.array(v) for v in zip(*brackets))
        rows, ok = start(dj, ms), np.zeros(len(ms), bool)
        for _ in range(64):
            i = np.flatnonzero(~ok)  # the rows not yet done
            rows[i], theta[dj[i], ms[i] - 1], ok[i] = _rqi(
                st, dj[i], ms[i], rows[i], los[i], his[i])
            if ok.all():
                break
            for i in np.flatnonzero(~ok):
                t = (los[i] + his[i]) / 2.0
                below = _count_below(st.pencils[dj[i]], t) - 1
                (his if below >= ms[i] else los)[i] = t
        else:
            raise _lost(n, *(v[np.argmin(ok)] for v in (ms, los, his)))
        y[dj, ms - 1] = rows
    return theta, y


def _uniform_modes(h, k):
    """The k smallest eigenpairs (mu, v) of the 1-D pencil on n equal
    widths, v as rows, in closed form (the uniform-grid spectrum; Strang &
    Fix, An Analysis of the Finite Element Method, 1973): with hbar =
    h.sum() / n and t = m pi / n, m = 1..k,

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
    return mu, rows


def _modes_1d(hs, k):
    """For each of the equal-length cell widths hs, the k smallest
    eigenpairs (mu, v) of the 1-D RT0 pencil (S, D), S = G A1^-1 G^T and D
    = diag(h), their fluxes A1^-1 G^T v and the five 1-D sums per mode that
    _residuals reads: one table (mu, v, flux, sums) per direction.

    Widths equal by mesh.uniform_widths take the closed form
    (_uniform_modes).  Others take the top of the inverse K = D^1/2 S^-1
    D^1/2: densely (_dense_top) up to _DENSE_MAX_CELLS cells, or where 16
    modes (the next multiple of 16 for k > 16) exceed a quarter of the n
    cells; above, by inverse iteration on the tridiagonal flux pencil
    (_inverse_modes).  The finish is shared: columns of v
    D-orthonormal, each signed so that its first largest-magnitude entry
    is positive, the fluxes from a direct tridiagonal solve with A1 (LAPACK
    ptsv, as solveh_banded calls it) and the five sums, on the widths h
    themselves, so that the residual check also covers the closed form on
    widths that are equal only to roundoff.

    The directions are one stack: each kernel that works row by row
    (_k_rows, the passes of _rqi, the sign step and the five sums) runs
    once over the modes of all of them, each row on its own direction's
    widths; the LAPACK solves, the Sturm counts and the dense eigh run per
    direction.  Every sum and cumulative sum runs along one row, so a
    table's bits do not depend on the directions stacked beside it: a
    direction solved alone is a stack of one, of the same bits.
    """
    hs = np.array(hs, dtype=float)
    d, n = hs.shape
    diag, off = _a1_bands(hs)
    mu, v = np.empty((d, k)), np.empty((d, k, n))  # v as rows, one per mode
    rest = []  # the directions that are not equal widths
    for i, h in enumerate(hs):
        if uniform_widths(h, h.sum()):
            mu[i], v[i] = _uniform_modes(h, k)
        else:
            rest.append(i)
    if rest:
        rest = slice(None) if len(rest) == d else rest  # a view if all
        inverse = n > _DENSE_MAX_CELLS and 64 * max(1, -(-k // 16)) <= n
        ops = _k_ops(hs[rest], diag[rest], off[rest])
        theta, y = (_inverse_modes(hs[rest], k, ops) if inverse else
                    _dense_top(ops, k))
        mu[rest] = 1.0 / theta
        v[rest] = y / ops[0][:, None]
    rows = v.reshape(d * k, n)
    rows *= np.sign(rows[np.arange(d * k), np.argmax(np.abs(rows), axis=1)]
                    )[:, None]
    gtv = _gt_times(v)
    # solveh_banded's LAPACK call without its checks: A1 is SPD on
    # positive widths, and a failed solve fails the residual bound
    flux = np.empty_like(gtv)
    for i in range(d):
        flux[i] = dptsv(diag[i], off[i], gtv[i].T)[2].T
    a1f = _a1_times(diag[:, None], off[:, None], flux)
    dv = hs[:, None] * v
    rho1, rho2 = a1f - gtv, flux[..., 1:] - flux[..., :-1] - mu[..., None] * dv
    terms = ((dv, dv), (rho1, rho1), (a1f, a1f), (rho2, rho2), (dv, rho2))
    # each product as contiguous rows, one per mode, reduced along the rows
    # as in _uniform_modes: a sum's bits depend neither on k nor on the
    # stack; C-contiguous tables, as stacked columns are, so
    # verify_equivalence sums both in one order
    sums = np.empty((d, 5, k))
    for j, (a, b) in enumerate(terms):
        np.add.reduce(a * b, axis=2, out=sums[:, j])
    v, flux = (np.ascontiguousarray(a.transpose(0, 2, 1)) for a in (v, flux))
    return list(zip(mu, v, flux, sums))


class _Table(tuple):
    """A read-only table (mu, v, flux, sums) of _modes_1d on the widths h,
    and the lift of its columns once verify_equivalence has taken it."""

    h = lift = None


def _tables(wanted, offered):
    """A _Table for each (h, p) of wanted: that of an equal (h, p) before
    it, else the first offered one of the bitwise widths h and p columns,
    else a fresh one.  The fresh tables of one cell count and one column
    count come from one _modes_1d call, of the same bits as apart: a
    table's bits depend on (h, p) alone."""
    picks, stacks = [], {}  # stacks: the wanted solved here, by (n, p)
    for i, (h, p) in enumerate(wanted):
        for j in range(i):
            if wanted[j][1] == p and np.array_equal(wanted[j][0], h):
                pick = picks[j]
                break
        else:
            for pick in offered:  # v of n cells and p columns first
                if pick[1].shape == (len(h), p) and np.array_equal(
                        getattr(pick, "h", None), h):
                    break
            else:  # solved here; its index until then
                pick = i
                stacks.setdefault((len(h), p), []).append(i)
        picks.append(pick)
    for (_, p), idx in stacks.items():
        for i, arrays in zip(idx, _modes_1d([wanted[i][0] for i in idx], p)):
            picks[i] = table = _Table(arrays)
            for a in table:
                a.flags.writeable = False
            table.h = wanted[i][0]
    return [picks[t] if isinstance(t, int) else t for t in picks]


def _smallest_sums(a, b, count):
    """The count smallest sums a[i] + b[j], ascending, ties by (i, j), and
    their indices i and j: one stable sort of all the sums."""
    sums = np.add.outer(a, b)
    order = np.argsort(sums, axis=None, kind="stable")[:count]
    i, j = np.unravel_index(order, sums.shape)
    return sums[i, j], i, j


def _reach(p, cap, wave, low, top):
    """The new mode count of a direction whose mode p + 1 could enter the
    sums up to top: each m <= cap with m^2 wave + low <= top, low the
    other direction's smallest mode; cap of them below an infinite top."""
    if top == np.inf:
        return cap
    return min(cap, max(p + 1, math.isqrt(int((top - low) / wave))))


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
    it may reuse (_tables; stack's tables have no widths), per pair its
    eigenvalue, factor columns, residual and label, as the read-only
    sequence of MixedEigenpair: a pair is built when read, its factors
    copied out of the tables; a slice is a list."""

    x: tuple
    y: tuple
    lambdas: np.ndarray
    ii: np.ndarray
    jj: np.ndarray
    residuals: np.ndarray
    modes: list

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
                   [p.mode for p in pairs])

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
    reusing the offered 1-D mode ``tables`` that fit (_tables); the two
    directions' fresh tables, where they have one cell count and one
    column count, come from one _modes_1d call on both, of the bits of
    each solved alone.

    Each direction's table holds p of its min(k, n) smallest modes: p
    starts at min(n, k, isqrt(2k)) and, while (p + 1)^2 (pi / s)^2 (1 -
    1e-6), a lower bound of the next mode on a side of length s, plus the
    other direction's smallest mode is at most the k-th smallest sum of
    the tables at hand (or there are fewer than k sums), grows at once to
    the largest such count, at most min(n, k) (_reach).  That k-th sum is
    never below the true one and never rises as the tables grow, and every
    pair beyond the tables exceeds it, so the pairs, their order and
    labels are those of tables of min(k, n) modes; each mode's bits depend
    on the widths and its index alone (_modes_1d), so are the pairs' bits,
    wherever p and min(k, n) take the same 1-D path.

    Deterministic; eigenvalues ascending, tied eigenvalues ordered by
    their (y, x) 1-D mode indices, so a cluster member keeps its place
    whatever k is; u vectors M-orthonormal, each u's largest-magnitude
    entry positive at (argmax |w|, argmax |v|); sigma = A^-1 B^T u is
    assembled from the 1-D fluxes; each pair carries its mode label
    (m, n).  Only ``system.mesh`` is read.

    A residual above c eps N^2 (c = _RESIDUAL_C, N = _effective_cells),
    or a NaN, raises NotConverged with every pair's residual.  Measured on
    48 000 random meshes of up to 8 x 8 cells, the worst residual is at
    most 5.4 eps N^2 on one cell and 2.9 eps N^2 on more; at k = 6, 16 and
    48, 0.24 eps N^2 on random and graded meshes of 129 to 2048 cells per
    direction (the inverse iteration; 0.042 eps N^2 from 512 cells on),
    and 0.25 eps N^2 on uniform meshes of 8 to 8192 cells per direction
    (the closed form; spans pi, 1, 2 and 7.3, one origin away from 0, n2 =
    n1 / 2, n1 and 2 n1).

    A side s where (pi / s)^2 or its inverse is not a normal float, that
    is s outside about [4.7e-154, 2.1e154], is refused with InvalidConfig
    before any 1-D solve: there the bound of the next mode, or the modes'
    quotients 1/mu, would underflow or overflow.
    """
    mesh, k = system.mesh, opts.k
    if k > mesh.n_cells:
        raise KTooLarge(f"k={k} exceeds spectrum size {mesh.n_cells}")

    # p modes per direction, grown while mode p + 1 could enter (docstring);
    # mu_m >= m^2 wave, wave = (pi / s)^2 less a relative 1e-6 that the
    # roundoff of a computed mu cannot cross
    caps = min(k, mesh.n1), min(k, mesh.n2)
    px, py = (min(c, math.isqrt(2 * k)) for c in caps)
    sides = mesh.hx.sum(), mesh.hy.sum()
    for side in sides:
        if not _SIDES[0] <= side <= _SIDES[1]:
            raise InvalidConfig(
                f"side {side:.6g}: (pi / s)^2 or its inverse is not a normal "
                f"float; a side must lie in [{_SIDES[0]:.2g}, "
                f"{_SIDES[1]:.2g}]")
    wave_x, wave_y = ((np.pi / side) ** 2 * (1.0 - 1e-6) for side in sides)
    x, y = _tables([(mesh.hx, px), (mesh.hy, py)], tables)
    while True:
        lams, jj, ii = _smallest_sums(y[0], x[0], k)
        top = lams[-1] if len(lams) == k else np.inf
        grow_x = px < caps[0] and (px + 1) ** 2 * wave_x + y[0][0] <= top
        grow_y = py < caps[1] and (py + 1) ** 2 * wave_y + x[0][0] <= top
        if not (grow_x or grow_y):
            break
        if grow_x:
            px = _reach(px, caps[0], wave_x, y[0][0], top)
        if grow_y:
            py = _reach(py, caps[1], wave_y, x[0][0], top)
        x, y = _tables([(mesh.hx, px), (mesh.hy, py)], (x, y, *tables))
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
    return Spectrum(x, y, lams, ii, jj, residuals, modes)
