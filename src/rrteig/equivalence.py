"""Numerical equivalence of the mixed flux scheme with the projected
enriched rotated-bilinear element, certified without an enriched
eigensolve.

One SuperLU factor of K - s M0, with s in the gap after the compared
mixed eigenvalues, gives two things: its inertia counts the enriched
eigenvalues below s, and one block solve lifts every compared mixed pair
into the enriched space, where its Rayleigh quotient, cell means and
cellwise gradient are compared with the mixed pair."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import MixedSystem, PeqSystem, assemble_peq, peq_cell_gradient
from .analysis import eigenspace_gap
from .eigensolve import MixedEigenpair
from .errors import DimensionMismatch, SingularSystem
from .mesh import TensorMesh

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
    [cell row j, line i] and the y-edges [line j, cell column i], as
    i2h_sigma reads them.
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
class EquivalenceEntry:
    lambda_rrt: float
    lambda_peq: float
    eig_rel_diff: float
    sigma_discrepancy: float
    u_discrepancy: float
    cluster_size: int


@dataclass(frozen=True)
class EquivalenceReport:
    entries: tuple[EquivalenceEntry, ...]
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


def _clusters(lambdas):
    groups, start = [], 0
    for i in range(1, len(lambdas) + 1):
        if i == len(lambdas) or abs(
            lambdas[i] - lambdas[i - 1]
        ) > _CLUSTER_REL_TOL * abs(lambdas[i]):
            groups.append(list(range(start, i)))
            start = i
    return groups


def _shifted_factor(peq: PeqSystem, shift: float):
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


def verify_equivalence(
    system: MixedSystem, pairs: list[MixedEigenpair], k: int
) -> EquivalenceReport:
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

    u = np.column_stack([p.u_coeffs for p in pairs[:n]])
    ne = peq.n_edge_free
    rhs = np.zeros((len(peq.free), n))
    rhs[ne:] = u * (lambdas[:n] - shift)  # M0 u~ is u on the cell rows
    x = lu.solve(rhs)
    full = np.zeros((peq.layout.n_sigma + peq.n_cell, n))
    full[peq.free] = x
    means = x[ne:] / mesh.cell_areas[:, None]
    grads = peq_cell_gradient(mesh, full)
    sig_peq = gradient_to_sigma_coeffs(mesh, grads)
    sig_rrt = np.column_stack([p.sigma_coeffs for p in pairs[:n]])

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
            entries.append(EquivalenceEntry(
                lambda_rrt=float(lambdas[i]), lambda_peq=float(lam_peq[i]),
                eig_rel_diff=float(abs(lambdas[i] - lam_peq[i])
                                   / abs(lambdas[i])),
                sigma_discrepancy=float(sd), u_discrepancy=float(ud),
                cluster_size=len(group),
            ))
    return EquivalenceReport(entries=tuple(entries[:k]),
                             max_flux_jump=interior_flux_jumps(mesh, grads))
