"""Numerical equivalence of the mixed flux scheme with the projected
enriched rotated-bilinear element, as one 1-D identity per direction.

Condensing the edge means out of the enriched stiffness leaves, on a
tensor mesh, the cell operator D_y (x) D_x Sigma_x D_x + D_y Sigma_y D_y
(x) D_x, where Sigma is the condensed 1-D operator of the quadratic
through two edge means and the cell mean.  The mixed operator is D_y (x)
S_x + S_y (x) D_x with S = G A1^-1 G^T, and D Sigma D = S in each
direction (the hybridization link of Arnold & Brezzi, RAIRO M2AN 19,
1985, and Marini, SIAM J. Numer. Anal. 22, 1985, in 1-D).  So a mixed
pair u = w (x) v lifts to the enriched pair whose cell means are u and
whose x-edge means are w (x) L(v), L(v) the 1-D lift of v (and alike in
y), and every 2-D quantity of the comparison is a rank-one combination
of 1-D sums of v, w and their fluxes.  No 2-D matrix is formed.  The
two must agree to 16 eps N^2, on the N = max(a / min h_x, b / min h_y)
by which the solve bounds its residuals.  A solved table keeps its lift,
so a table that the solve reuses (eigensolve._tables) is lifted once."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dptsv

from .eigensolve import Spectrum, _effective_cells
from .errors import DimensionMismatch, LayoutMismatch
from .mesh import TensorMesh

# c of the bound c eps N^2 on eig_rel_diff and sigma_discrepancy /
# sqrt(lambda) (verify_equivalence)
_BOUND_C = 16.0


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Each pair's comparison as arrays in the Spectrum's pair order (the
    Spectrum holds each pair's eigenvalue and label), and the largest
    normal-gradient jump."""

    lambda_peq: np.ndarray
    eig_rel_diff: np.ndarray
    sigma_discrepancy: np.ndarray
    max_flux_jump: float


def _p1_norm_sq(h, left, right):
    """Integral of the square of the cellwise linear function with values
    ``left`` and ``right`` at the cell ends, one sum per column."""
    return np.sum(h[:, None] / 3.0 * (left**2 + left * right + right**2),
                  axis=0)


def _lift_1d(h, c, flux):
    """The 1-D lift of the cell means ``c`` (one column per mode) on the
    widths h, compared with the mixed ``flux`` of the same modes.

    The interior edge means L minimise sum_i (1/h_i) [L R C] S [L R C]^T,
    S = [[4, 2, -6], [2, 4, -6], [-6, -6, 12]], with the boundary means 0:
    a tridiagonal system with diagonal 4/h_(i-1) + 4/h_i, off-diagonal
    2/h_i and right-hand side 6 (C_(i-1)/h_(i-1) + C_i/h_i).  The
    quadratic's derivative on cell i is linear, (6C - 4L - 2R)/h on the
    left and (2L + 4R - 6C)/h on the right.  Returns, per column, its
    energy, the squared A1-norm of the flux less the negative edge
    derivative (averaged over the two cells of an interior edge), and the
    largest jump of the derivative across an interior edge."""
    n = len(h)
    inv = 1.0 / h
    # the bands over all n + 1 edges; a boundary edge keeps the row of the
    # identity, so its mean solves to 0
    diag = np.empty(n + 1)
    diag[[0, -1]] = 1.0
    np.add(inv[:-1], inv[1:], out=diag[1:-1])
    diag[1:-1] *= 4.0
    off = 2.0 * inv  # edges i and i + 1 meet in cell i
    off[[0, -1]] = 0.0
    ch = c * inv[:, None]
    rhs = np.zeros((n + 1, c.shape[1]))
    rhs[1:-1] = 6.0 * (ch[:-1] + ch[1:])
    # solveh_banded's LAPACK call without its checks: the bands are
    # diagonally dominant on positive widths, and a failed solve fails
    # the bound of verify_equivalence
    means = dptsv(diag, off, rhs)[2]
    left, right = means[:-1], means[1:]
    g_left = (6.0 * c - 4.0 * left - 2.0 * right) / h[:, None]
    g_right = (2.0 * left + 4.0 * right - 6.0 * c) / h[:, None]
    g_edge = np.concatenate([g_left[:1], (g_right[:-1] + g_left[1:]) / 2.0,
                             g_right[-1:]])
    d = flux + g_edge
    jump = np.abs(g_right[:-1] - g_left[1:]).max(axis=0, initial=0.0)
    return (_p1_norm_sq(h, g_left, g_right), _p1_norm_sq(h, d[:-1], d[1:]),
            jump)


def _table_lift(h, table):
    """Per column of a solved 1-D mode table on the widths h: q, d, jump
    (_lift_1d), |.|_D^2 and max |.|, taken once and kept by the table.  A
    table not solved on these widths raises LayoutMismatch."""
    if not np.array_equal(getattr(table, "h", None), h):
        raise LayoutMismatch(f"a mode table solved on other widths does not "
                             f"fit these {len(h)} cells")
    if table.lift is None:
        v = table[1]
        table.lift = np.array([*_lift_1d(h, v, table[2]),
                               np.sum(h[:, None] * v**2, axis=0),
                               np.abs(v).max(axis=0)])
        table.lift.flags.writeable = False
    return table.lift


def verify_equivalence(mesh: TensorMesh, pairs: Spectrum) -> EquivalenceReport:
    """Lift each mixed pair of a solve's Spectrum into the enriched element
    and compare.

    The x table v is lifted by one tridiagonal solve (``_lift_1d``), as is
    the y table w, unless lifted before (_table_lift), and each pair
    gathers the results of its columns.
    With |.|_D the cell-width norm of a factor, a pair's enriched Rayleigh
    quotient is

        lambda_peq = (q_x |w|_D^2 + q_y |v|_D^2) / (|v|_D^2 |w|_D^2),

    q the 1-D energies; its flux discrepancy |sigma_rrt - sigma_peq|_A,
    sigma_peq the negative cellwise gradient averaged over shared edges,
    is sqrt(|w|_D^2 d_x + |v|_D^2 d_y), d the squared 1-D A1-norms of the
    flux less the negative edge derivative; and the largest normal-gradient
    jump over interior edges is max(max|w| jump_x, max|v| jump_y).  The
    cell means of the lift are u, so they agree exactly.

    Raises DimensionMismatch when a pair's eig_rel_diff or
    sigma_discrepancy / sqrt(lambda) exceeds c eps N^2, with eps the
    double-precision epsilon, c = _BOUND_C = 16 and N = max(a / min h_x,
    b / min h_y) of ``mesh`` (a Spectrum's or not), as in the solve's
    residual check: the roundoff of the mixed pair and of its lift grows
    like N^2.  Measured, the ratio to eps N^2 is at most 4.7 on one cell
    and at most 1.7 from two cells on (8 000 random meshes with n <= 300
    cells and width ratios up to 1e4 per direction); levels 0-7 of presets
    a, b and c reach 0.29.  Anything but a Spectrum (a list of pairs, a
    tuple, None), or a Spectrum solved on other widths than the mesh's,
    raises LayoutMismatch.
    """
    if not isinstance(pairs, Spectrum):
        raise LayoutMismatch(f"verify_equivalence takes the Spectrum of "
                             f"solve_mixed_eigs, not {type(pairs).__name__}")
    x, y = _table_lift(mesh.hx, pairs.x), _table_lift(mesh.hy, pairs.y)
    # the 1-D quantities of each pair's x and y modes
    (q_x, d_x, jump_x, nv, peak_v), (q_y, d_y, jump_y, nw, peak_w) = (
        x[:, pairs.ii], y[:, pairs.jj])
    lam = pairs.lambdas
    lam_peq = (q_x * nw + q_y * nv) / (nv * nw)
    rel_diff = np.abs(lam - lam_peq) / np.abs(lam)
    s_disc = np.sqrt(nw * d_x + nv * d_y)
    bound = _BOUND_C * np.finfo(float).eps * _effective_cells(mesh)**2
    bad = np.flatnonzero(~((rel_diff <= bound)
                           & (s_disc <= bound * np.sqrt(lam))))
    if len(bad):
        i = int(bad[0])
        raise DimensionMismatch(
            f"pair {i} (mode {pairs.modes[i]}) at {lam[i]:.17g} is not its "
            f"enriched lift: eigenvalue {rel_diff[i]:.3e} and flux "
            f"{s_disc[i] / np.sqrt(lam[i]):.3e} apart, relative, beyond "
            f"{bound:.3e}")
    jump = float(max((peak_w * jump_x).max(), (peak_v * jump_y).max()))
    return EquivalenceReport(lam_peq, rel_diff, s_disc, jump)
