"""Projected enriched-element solver and the element-equivalence checks."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rrteig.assembly import (
    assemble_mixed,
    assemble_peq,
    peq_local_matrices,
)
from rrteig.eigensolve import SolveOptions, dense_oracle_eigs, solve_mixed_eigs
from rrteig.equivalence import (
    gradient_to_sigma_coeffs,
    interior_flux_jumps,
    solve_peq_eigs,
    solve_peq_poisson,
    verify_equivalence,
)
from rrteig.errors import KTooLarge
from rrteig.exact import enumerate_exact, field_for_mode, l2_project_exact
from rrteig.mesh import build_mesh, uniform_mesh

PI = np.pi


def test_single_cell_toy_hand_solution():
    """1x1 mesh: only the cell DOF is free; both the source problem and the
    single finite eigenvalue reduce to one scalar equation."""
    hx, hy = 1.3, 0.7
    m = build_mesh([0.0, hx], [0.0, hy])
    peq = assemble_peq(m)
    assert peq.n_edge_free == 0 and len(peq.free) == 1
    k_cc = peq_local_matrices(hx, hy)[4, 4]

    f_mean = 2.5
    sol = solve_peq_poisson(peq, np.array([f_mean]))
    # K * c = f_mean  ->  cell mean = c / |K|
    area = hx * hy
    assert sol.cell_means[0] == pytest.approx(f_mean / k_cc / area, rel=1e-13)

    lam, esol = solve_peq_eigs(peq, 1)[0]
    # pencil: k_cc * c = lambda * c / |K|
    assert lam == pytest.approx(k_cc * area, rel=1e-13)
    assert esol.cell_means[0] * np.sqrt(area) == pytest.approx(1.0, rel=1e-12)
    # matches the one-cell mixed eigenvalue
    rrt = dense_oracle_eigs(assemble_mixed(m), k=1)[0]
    assert lam == pytest.approx(rrt.lambda_h, rel=1e-13)


def test_finite_spectrum_count():
    m = uniform_mesh(0, PI, 3, 0, PI, 3)
    peq = assemble_peq(m)
    pairs = solve_peq_eigs(peq, 9)
    assert len(pairs) == 9
    with pytest.raises(KTooLarge):
        solve_peq_eigs(peq, 10)


def test_eigenfunction_normalization(mesh_a0):
    peq = assemble_peq(mesh_a0)
    areas = np.repeat(mesh_a0.hy, mesh_a0.n1) * np.tile(mesh_a0.hx, mesh_a0.n2)
    for lam, sol in solve_peq_eigs(peq, 4):
        nrm = np.sqrt(float(np.sum(areas * sol.cell_means**2)))
        assert nrm == pytest.approx(1.0, rel=1e-10)


def test_spectral_identity(mesh_a0):
    """Sorted finite enriched-element eigenvalues equal the mixed ones."""
    rrt = dense_oracle_eigs(assemble_mixed(mesh_a0), k=12)
    peq = solve_peq_eigs(assemble_peq(mesh_a0), 12)
    for p, (lam, _) in zip(rrt, peq):
        assert abs(p.lambda_h - lam) <= 1e-8 * p.lambda_h


def test_poisson_flux_identity(mesh_a0):
    """Source problem with f = Pi0 u_{1,1}: the mixed flux equals the
    negative broken gradient of the enriched solution to 1e-10."""
    fld = field_for_mode(1, 1)
    f_means = l2_project_exact(mesh_a0, fld)
    areas = np.repeat(mesh_a0.hy, mesh_a0.n1) * np.tile(mesh_a0.hx, mesh_a0.n2)

    peq = assemble_peq(mesh_a0)
    psol = solve_peq_poisson(peq, f_means)

    # independent mixed saddle solve: A sigma - B^T u = 0, B sigma = F
    system = assemble_mixed(mesh_a0)
    n_sig = system.layout.n_sigma
    saddle = sp.bmat([[system.A, system.B.T], [system.B, None]], format="csc")
    rhs = np.concatenate([np.zeros(n_sig), f_means * areas])
    sol = spla.splu(saddle).solve(rhs)
    sigma_rrt = sol[:n_sig]
    u_rrt = -sol[n_sig:]

    sigma_peq = gradient_to_sigma_coeffs(mesh_a0, psol)
    d = sigma_rrt - sigma_peq
    norm = np.sqrt(float(d @ (system.A @ d)))
    assert norm <= 1e-10
    np.testing.assert_allclose(u_rrt, psol.cell_means, atol=1e-12)
    assert interior_flux_jumps(mesh_a0, psol) <= 1e-10


def test_flux_jump_continuity(mesh_a0, mesh_c0):
    """Normal component of the broken gradient is continuous across
    interior edges for eigenfunctions."""
    for mesh in (mesh_a0, mesh_c0):
        peq = assemble_peq(mesh)
        for lam, sol in solve_peq_eigs(peq, 4):
            assert interior_flux_jumps(mesh, sol) <= 1e-10


def test_upper_bound_transfer(mesh_a0):
    """Enriched-element eigenvalues bound the exact ones from above."""
    exact = enumerate_exact((PI, PI), count=6)
    pairs = solve_peq_eigs(assemble_peq(mesh_a0), 6)
    for (lam, _), e in zip(pairs, exact):
        assert lam >= e.value


def test_verify_equivalence_clusters(system_a0):
    pairs = solve_mixed_eigs(system_a0, SolveOptions(k=9))
    rep = verify_equivalence(system_a0, pairs, k=6)
    assert len(rep.entries) == 6
    sizes = [e.cluster_size for e in rep.entries]
    assert sizes == [1, 2, 2, 1, 2, 2]
    assert rep.max_eig_rel_diff <= 1e-12
    assert rep.max_sigma_discrepancy <= 1e-10
    assert rep.max_u_discrepancy <= 1e-10
    assert rep.max_flux_jump <= 1e-10


def test_verify_equivalence_truncated_cluster(mesh_c0):
    """A degenerate pair straddling the k cutoff is still matched when the
    caller passes pairs past k."""
    system = assemble_mixed(mesh_c0)
    pairs = solve_mixed_eigs(system, SolveOptions(k=15))
    assert pairs[11].lambda_h == pytest.approx(pairs[12].lambda_h, rel=1e-12)
    rep = verify_equivalence(system, pairs, k=12)
    assert len(rep.entries) == 12
    assert rep.entries[-1].cluster_size == 2
    assert rep.max_sigma_discrepancy <= 1e-10
