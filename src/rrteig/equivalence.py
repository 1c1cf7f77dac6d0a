"""Projected enriched rotated-bilinear solver and its numerical
equivalence with the mixed flux scheme.

Both the source problem and the eigenproblem are solved on the enriched
edge-mean space with the load / mass projected onto piecewise constants;
the resulting scalar means and cellwise gradients coincide with the mixed
solution, which verify_equivalence checks quantitatively."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import MixedSystem, PeqSystem, assemble_peq, peq_cell_gradient
from .analysis import EigenspaceBasis, eigenspace_gap
from .eigensolve import MixedEigenpair
from .errors import KTooLarge, SingularSystem
from .mesh import TensorMesh

# Lanczos start-vector seed and iteration cap of solve_peq_eigs
_LANCZOS_SEED = 0
_LANCZOS_MAX_ITERATIONS = 20000


@dataclass
class PeqSolution:
    """Enriched-space solution with its piecewise-constant shadow.

    coeffs     : integral DOFs over all edges and cells (boundary edges 0).
    cell_means : Pi0 u per cell (row-major).
    grad_edges : (gxL, gxR, gyB, gyT) edge values of the cellwise gradient.
    """

    coeffs: np.ndarray
    cell_means: np.ndarray
    grad_edges: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _expand(peq: PeqSystem, reduced: np.ndarray) -> np.ndarray:
    full = np.zeros(peq.layout.n_sigma + peq.layout.n_cell)
    full[peq.free] = reduced
    return full


def _solution(peq: PeqSystem, reduced: np.ndarray) -> PeqSolution:
    full = _expand(peq, reduced)
    cell_means = full[peq.layout.n_sigma :] / peq.mesh.cell_areas
    grads = peq_cell_gradient(peq.mesh, full)
    return PeqSolution(coeffs=full, cell_means=cell_means, grad_edges=grads)


def solve_peq_poisson(peq: PeqSystem, f_cell_means: np.ndarray) -> PeqSolution:
    """Solve the projected source problem for f given by its cell means."""
    rhs = np.zeros(len(peq.free))
    rhs[peq.n_edge_free :] = np.asarray(f_cell_means, dtype=float)
    try:
        lu = spla.splu(peq.K.tocsc())
    except RuntimeError as exc:
        raise SingularSystem(str(exc)) from exc
    return _solution(peq, lu.solve(rhs))


def solve_peq_eigs(peq: PeqSystem, k: int) -> list[tuple[float, PeqSolution]]:
    """k smallest finite eigenvalues of the pencil (K, M0).

    The semidefinite mass acts on cell DOFs only; the kernel directions
    (edge components) are condensed through the stiffness, which reduces
    the pencil to an SPD problem of size n_cell.  The inverse of the
    condensed operator is applied through one factorization of K.
    """
    n_cell = peq.n_cell
    if k > n_cell:
        raise KTooLarge(f"k={k} exceeds finite spectrum size {n_cell}")
    try:
        lu = spla.splu(peq.K.tocsc())
    except RuntimeError as exc:
        raise SingularSystem(str(exc)) from exc

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


def interior_flux_jumps(mesh: TensorMesh, sol: PeqSolution):
    """Maximal jump of the normal gradient component across interior edges."""
    n1, n2 = mesh.n1, mesh.n2
    gxL, gxR, gyB, gyT = [g.reshape(n2, n1) for g in sol.grad_edges]
    jump_x = np.abs(gxR[:, :-1] - gxL[:, 1:]).max() if n1 > 1 else 0.0
    jump_y = np.abs(gyT[:-1, :] - gyB[1:, :]).max() if n2 > 1 else 0.0
    return float(max(jump_x, jump_y))


def gradient_to_sigma_coeffs(mesh: TensorMesh, sol: PeqSolution) -> np.ndarray:
    """Negative gradient as a flux DOF vector (averaging shared edges).

    The theory makes the normal component continuous across interior
    edges, so the average is exact up to solver tolerance; the actual jump
    is available from interior_flux_jumps.
    """
    from .assembly import layout

    lay = layout(mesh)
    n1, n2 = mesh.n1, mesh.n2
    gxL, gxR, gyB, gyT = [g.reshape(n2, n1) for g in sol.grad_edges]
    out = np.zeros(lay.n_sigma)
    acc = np.zeros(lay.n_sigma)
    ii, jj = np.meshgrid(np.arange(n1), np.arange(n2))
    for grid, dof in (
        (gxL, lay.xedge_index(ii, jj)),
        (gxR, lay.xedge_index(ii + 1, jj)),
        (gyB, lay.yedge_index(ii, jj)),
        (gyT, lay.yedge_index(ii, jj + 1)),
    ):
        np.add.at(out, dof.ravel(), -grid.ravel())
        np.add.at(acc, dof.ravel(), 1.0)
    return out / acc


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


def _clusters(lambdas, rel_tol=1e-6):
    groups, start = [], 0
    for i in range(1, len(lambdas) + 1):
        if i == len(lambdas) or abs(
            lambdas[i] - lambdas[i - 1]
        ) > rel_tol * abs(lambdas[i]):
            groups.append(list(range(start, i)))
            start = i
    return groups


def verify_equivalence(
    system: MixedSystem, pairs: list[MixedEigenpair], k: int
) -> EquivalenceReport:
    """Compare the first k mixed pairs with the enriched-element pairs.

    ``pairs`` are the ascending mixed eigenpairs already solved on
    ``system``; only the enriched element is solved here, for as many
    pairs.  Pairs past index k serve to complete a cluster that straddles
    k, so pass a few more than k where the spectrum holds them.
    Clusters (numerically repeated eigenvalues) are compared through the
    subspace they span; simple eigenvalues are compared vector by vector
    with the sign resolved by the norm itself."""
    mesh = system.mesh
    peq_pairs = solve_peq_eigs(assemble_peq(mesh), len(pairs))

    lambdas = [p.lambda_h for p in pairs]
    entries = []
    max_jump = 0.0
    for group in _clusters(lambdas):
        if group[0] >= k:
            break
        sig_rrt = [pairs[i].sigma_coeffs for i in group]
        sig_peq = []
        for i in group:
            lam_p, sol = peq_pairs[i]
            max_jump = max(max_jump, interior_flux_jumps(mesh, sol))
            sig_peq.append(gradient_to_sigma_coeffs(mesh, sol))
        if len(group) == 1:
            i = group[0]
            lam_r, lam_p = lambdas[i], peq_pairs[i][0]
            d_plus = sig_rrt[0] - sig_peq[0]
            d_minus = sig_rrt[0] + sig_peq[0]
            nrm = lambda d: float(np.sqrt(d @ (system.A @ d)))
            sdisc = min(nrm(d_plus), nrm(d_minus))
            um = peq_pairs[i][1].cell_means
            du_p = pairs[i].u_coeffs - um
            du_m = pairs[i].u_coeffs + um
            mnrm = lambda d: float(np.sqrt(d @ (system.M * d)))
            udisc = min(mnrm(du_p), mnrm(du_m))
            entries.append(EquivalenceEntry(
                lambda_rrt=lam_r, lambda_peq=lam_p,
                eig_rel_diff=abs(lam_r - lam_p) / abs(lam_r),
                sigma_discrepancy=sdisc, u_discrepancy=udisc,
                cluster_size=1,
            ))
        else:
            gap_sigma = eigenspace_gap(
                EigenspaceBasis(tuple(sig_rrt), system.A),
                EigenspaceBasis(tuple(sig_peq), system.A),
            )
            gap_u = eigenspace_gap(
                EigenspaceBasis(
                    tuple(pairs[i].u_coeffs for i in group), system.M
                ),
                EigenspaceBasis(
                    tuple(peq_pairs[i][1].cell_means for i in group), system.M
                ),
            )
            for i in group:
                lam_r, lam_p = lambdas[i], peq_pairs[i][0]
                scale = float(np.sqrt(lam_r))  # ||sigma||_A of a unit pair
                entries.append(EquivalenceEntry(
                    lambda_rrt=lam_r, lambda_peq=lam_p,
                    eig_rel_diff=abs(lam_r - lam_p) / abs(lam_r),
                    sigma_discrepancy=gap_sigma * scale,
                    u_discrepancy=gap_u,
                    cluster_size=len(group),
                ))
    return EquivalenceReport(entries=tuple(entries[:k]), max_flux_jump=max_jump)
