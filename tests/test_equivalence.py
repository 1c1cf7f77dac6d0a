"""The element equivalence: the 1-D lift of verify_equivalence against
the identities it rests on and against the 2-D enriched element, its
eigensolver and its equivalence certificate in tests/oracles.py, which
are checked here too."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from rrteig import cli, equivalence
from rrteig.assembly import assemble_mixed
from rrteig.cli import case_preset, run_case
from rrteig.eigensolve import (MixedEigenpair, SolveOptions, Spectrum,
                               _modes_1d, _residuals, _Table,
                               solve_mixed_eigs)
from rrteig.equivalence import _lift_1d, verify_equivalence
from rrteig.errors import DimensionMismatch, KTooLarge, LayoutMismatch
from rrteig.exact import enumerate_exact
from rrteig.mesh import build_mesh, uniform_mesh, uniform_refine

from oracles import (
    Field,
    _CLUSTER_REL_TOL,
    _S,
    PeqSolution,
    SingularSystem,
    _shifted_factor,
    assemble_mixed_coo,
    assembled,
    assemble_peq,
    assemble_peq_coo,
    cell_areas,
    dense_eigenvalues,
    full_table_pairs,
    gradient_to_sigma_coeffs,
    interior_flux_jumps,
    l2_project_exact,
    peq_cell_gradient,
    peq_local_matrices,
    solve_peq_eigs,
    verify_equivalence_2d,
    verify_equivalence_per_pair,
)

PI = np.pi


def solve_peq_poisson(peq, f_cell_means):
    """The projected source problem K c = F for f given by its cell
    means: F holds them on the cell DOFs and 0 on the free edges."""
    rhs = np.zeros(len(peq.free))
    rhs[peq.n_edge_free :] = f_cell_means
    full = np.zeros(peq.layout.n_sigma + peq.layout.n_cell)
    full[peq.free] = spla.splu(peq.K.tocsc()).solve(rhs)
    return PeqSolution(
        cell_means=full[peq.layout.n_sigma :] / cell_areas(peq.mesh),
        grad_edges=peq_cell_gradient(peq.mesh, full),
    )


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
    (rrt,) = dense_eigenvalues(assembled(m), 1)
    assert lam == pytest.approx(rrt, rel=1e-13)


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
    rrt = dense_eigenvalues(assembled(mesh_a0), 12)
    peq = solve_peq_eigs(assemble_peq(mesh_a0), 12)
    for p, (lam, _) in zip(rrt, peq):
        assert abs(p - lam) <= 1e-8 * p


def test_poisson_flux_identity(mesh_a0):
    """Source problem with f = Pi0 u_{1,1}: the mixed flux equals the
    negative broken gradient of the enriched solution to 1e-10."""
    fld = Field(1, 1)
    f_means = l2_project_exact(mesh_a0, fld)
    areas = np.repeat(mesh_a0.hy, mesh_a0.n1) * np.tile(mesh_a0.hx, mesh_a0.n2)

    peq = assemble_peq(mesh_a0)
    psol = solve_peq_poisson(peq, f_means)

    # independent mixed saddle solve: A sigma - B^T u = 0, B sigma = F
    system = assembled(mesh_a0)
    n_sig = system.layout.n_sigma
    saddle = sp.bmat([[system.A, system.B.T], [system.B, None]], format="csc")
    rhs = np.concatenate([np.zeros(n_sig), f_means * areas])
    sol = spla.splu(saddle).solve(rhs)
    sigma_rrt = sol[:n_sig]
    u_rrt = -sol[n_sig:]

    sigma_peq = gradient_to_sigma_coeffs(mesh_a0, psol.grad_edges)
    d = sigma_rrt - sigma_peq
    norm = np.sqrt(float(d @ (system.A @ d)))
    assert norm <= 1e-10
    np.testing.assert_allclose(u_rrt, psol.cell_means, atol=1e-12)
    assert interior_flux_jumps(mesh_a0, psol.grad_edges) <= 1e-10


def test_flux_jump_continuity(mesh_a0, mesh_c0):
    """Normal component of the broken gradient is continuous across
    interior edges for eigenfunctions."""
    for mesh in (mesh_a0, mesh_c0):
        peq = assemble_peq(mesh)
        for lam, sol in solve_peq_eigs(peq, 4):
            assert interior_flux_jumps(mesh, sol.grad_edges) <= 1e-10


def test_upper_bound_transfer(mesh_a0):
    """Enriched-element eigenvalues bound the exact ones from above."""
    exact = enumerate_exact((PI, PI), count=6)
    pairs = solve_peq_eigs(assemble_peq(mesh_a0), 6)
    for (lam, _), e in zip(pairs, exact):
        assert lam >= e.value


def test_verify_equivalence_clusters(mesh_a0, system_a0):
    """Uniform 8^2, lambda = 2, 5, 5, 8, 10, 10: the certificate oracle
    compares the double eigenvalues as clusters of two, with the pairs
    past k that close them; the lift checks each pair of a solve at k = 6
    alone, the first six of those pairs bit for bit, and finds the
    certificate's enriched eigenvalues."""
    pairs = solve_mixed_eigs(assemble_mixed(mesh_a0), SolveOptions(k=9))
    cert = verify_equivalence_2d(system_a0, pairs, k=6)
    assert [e.cluster_size for e in cert.entries] == [1, 2, 2, 1, 2, 2]
    spectrum = solve_mixed_eigs(assemble_mixed(mesh_a0), SolveOptions(k=6))
    rep = verify_equivalence(mesh_a0, spectrum)
    assert list(spectrum.modes) == [p.mode for p in pairs[:6]]
    for lam, lam_peq, c in zip(spectrum.lambdas.tolist(),
                               rep.lambda_peq.tolist(), cert.entries):
        assert lam == c.lambda_rrt
        assert abs(lam_peq - c.lambda_peq) <= 1e-12 * c.lambda_peq
    assert rep.eig_rel_diff.max() <= 1e-12
    assert rep.sigma_discrepancy.max() <= 1e-10
    assert rep.max_flux_jump <= 1e-10


def test_verify_equivalence_refuses_pairs_that_do_not_fit(mesh_a0,
                                                          pairs_a0):
    """A Spectrum solved on another mesh raises LayoutMismatch, not numpy's
    broadcasting errors, and so does anything but a Spectrum: a list of
    pairs, an empty tuple, None, each named by its type."""
    wide = uniform_mesh(0.0, PI, 16, 0.0, PI, 8)
    other = solve_mixed_eigs(assemble_mixed(wide), SolveOptions(k=6))
    with pytest.raises(LayoutMismatch, match="does not fit these 8 cells"):
        verify_equivalence(mesh_a0, other)
    for pairs in (list(pairs_a0), (), None):
        with pytest.raises(LayoutMismatch,
                           match=f"not {type(pairs).__name__}$"):
            verify_equivalence(mesh_a0, pairs)
    assert len(verify_equivalence(mesh_a0, pairs_a0).lambda_peq) == 6


def test_verify_equivalence_truncated_cluster(mesh_c0):
    """The double eigenvalue lambda_12 = lambda_13 of case c, which k = 12
    cuts, needs no pair past k: the twelfth pair of a solve at k = 12
    lifts on its own."""
    pairs = solve_mixed_eigs(assemble_mixed(mesh_c0), SolveOptions(k=13))
    assert pairs[11].lambda_h == pytest.approx(pairs[12].lambda_h, rel=1e-12)
    rep = verify_equivalence(mesh_c0, solve_mixed_eigs(
        assemble_mixed(mesh_c0), SolveOptions(k=12)))
    assert len(rep.lambda_peq) == 12
    assert rep.eig_rel_diff.max() <= 1e-12
    assert rep.sigma_discrepancy.max() <= 1e-10


def test_verify_equivalence_near_tie():
    """On a uniform 10x10 mesh of [0, 1] x [0, 1 + 1e-5] the (2, 1) and
    (1, 2) eigenvalues lie a relative 1.2e-5 apart.  Each pair lifts
    through its own 1-D factors, so the near tie loses no accuracy."""
    mesh = uniform_mesh(0.0, 1.0, 10, 0.0, 1.0 + 1e-5, 10)
    pairs = solve_mixed_eigs(assemble_mixed(mesh), SolveOptions(k=3))
    gap = (pairs[2].lambda_h - pairs[1].lambda_h) / pairs[2].lambda_h
    assert 1e-5 < gap < 2e-5
    rep = verify_equivalence(mesh, pairs)
    assert rep.eig_rel_diff.max() <= 1e-12
    assert rep.sigma_discrepancy.max() <= 1e-10


def _draw_nodes(draw, axis, n_max=10):
    """Nodes of [0, pi]: n in [1, n_max] cells, widths from [1, 4]."""
    n = draw(st.integers(1, n_max), label=f"n_{axis}")
    w = np.asarray(draw(st.lists(st.floats(1.0, 4.0), min_size=n,
                                 max_size=n)))
    nodes = np.concatenate([[0.0], np.cumsum(w)]) * (PI / w.sum())
    nodes[-1] = PI
    return nodes


@st.composite
def _small_tensor_meshes(draw, n_max=10):
    """Random tensor meshes of [0, pi]^2; in half of the draws the y nodes
    copy the x nodes, so the two 1-D spectra coincide and the (m, n),
    (n, m) pairs cluster."""
    x = _draw_nodes(draw, "x", n_max)
    y = (x if draw(st.booleans(), label="mirror")
         else _draw_nodes(draw, "y", n_max))
    return build_mesh(x, y)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(mesh=_small_tensor_meshes(), data=st.data())
def test_equivalence_on_random_meshes(mesh, data):
    """Mixed and enriched elements agree on random tensor meshes: the
    eigenvalues, the flux and the normal-gradient continuity of the lift
    of the first k pairs, within the bounds of the preset checks,
    clusters included."""
    k = data.draw(st.integers(1, min(6, mesh.n_cells)), label="k")
    pairs = solve_mixed_eigs(assemble_mixed(mesh), SolveOptions(k=k))
    rep = verify_equivalence(mesh, pairs)
    assert len(rep.lambda_peq) == k
    assert rep.eig_rel_diff.max() <= 1e-12
    assert rep.sigma_discrepancy.max() <= 1e-10
    assert rep.max_flux_jump <= 1e-10


@settings(max_examples=30, deadline=None, derandomize=True)
@given(mesh=_small_tensor_meshes(), data=st.data())
def test_lift_against_oracles_on_random_meshes(mesh, data):
    """The lifted eigenvalues of a solve at k equal, to 1e-12 relative,
    those of the enriched eigensolver and those of the 2-D certificate,
    which compares clusters whole from k + 3 pairs."""
    k = data.draw(st.integers(1, min(6, mesh.n_cells)), label="k")
    system = assembled(mesh)
    k_more = max(k, min(k + 3, mesh.n_cells))
    pairs = solve_mixed_eigs(assemble_mixed(mesh), SolveOptions(k=k_more))
    lifted = verify_equivalence(mesh, solve_mixed_eigs(
        assemble_mixed(mesh), SolveOptions(k=k))).lambda_peq
    cert = [e.lambda_peq for e in verify_equivalence_2d(system, pairs, k).entries]
    eigs = [lam for lam, _ in solve_peq_eigs(assemble_peq(mesh), k)]
    np.testing.assert_allclose(lifted, eigs, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(lifted, cert, rtol=1e-12, atol=0.0)


def _enriched_1d(h):
    """The 1-D enriched stiffness, dense, in the integral DOFs: the n + 1
    edge values, then the n cell integrals; each cell adds its block
    S_ab w_a w_b / h, w = (1, 1, 1 / h), on (left, right, cell)."""
    n = len(h)
    k = np.zeros((2 * n + 1, 2 * n + 1))
    for i in range(n):
        dofs = [i, i + 1, n + 1 + i]
        w = np.array([1.0, 1.0, 1.0 / h[i]])
        k[np.ix_(dofs, dofs)] += _S * np.outer(w, w) / h[i]
    return k


@pytest.mark.parametrize("n", [1, 2, 5, 40, 300])
def test_1d_identity_d_sigma_d_equals_s(n):
    """On random widths, the condensed 1-D enriched operator Sigma (the
    interior edges eliminated from the 3x3 blocks, the boundary edges
    held at 0) satisfies D Sigma D = S = G A1^-1 G^T to 4e-15 of max|S|,
    densely.  The lift of random cell means C has the energy C^T S C,
    derivative jumps of 0 and, against the flux A1^-1 G^T C, an A1-norm
    discrepancy of 0, all to roundoff."""
    rng = np.random.default_rng(n)
    h = rng.uniform(1.0, 4.0, n)
    h *= PI / h.sum()
    k = _enriched_1d(h)
    edges, cells = np.arange(1, n), np.arange(n + 1, 2 * n + 1)
    k_ce = k[np.ix_(cells, edges)]
    sigma = k[np.ix_(cells, cells)] - k_ce @ np.linalg.solve(
        k[np.ix_(edges, edges)], k_ce.T)
    a1 = (np.diag(np.r_[h, 0.0] / 3.0 + np.r_[0.0, h] / 3.0)
          + np.diag(h / 6.0, 1) + np.diag(h / 6.0, -1))
    g = np.diff(np.eye(n + 1), axis=0)  # G s = diff(s)
    s = g @ np.linalg.solve(a1, g.T)
    scale = np.abs(s).max()
    assert np.abs(h[:, None] * sigma * h[None, :] - s).max() <= 4e-15 * scale

    c = rng.standard_normal((n, 3))
    energy, flux_disc, jump = _lift_1d(h, c, np.linalg.solve(a1, g.T @ c))
    want = np.einsum("ij,ik,kj->j", c, s, c)
    np.testing.assert_allclose(energy, want, rtol=1e-13, atol=0.0)
    assert np.all(flux_disc <= (1e-13 * np.abs(c).max()) ** 2 * scale)
    assert np.all(jump <= 1e-13 * scale * np.abs(c).max())


def test_lift_solve_bits_of_solveh_banded(monkeypatch):
    """The lift's edge means, from LAPACK ptsv called directly, are the
    bits of scipy's solveh_banded on the upper banded storage of the same
    system, whose bands the lift builds by slices, on random (ratio <= 4)
    and graded (ratio up to 6.2e3) widths of 1 to 300 cells."""
    calls = []
    real = equivalence.dptsv

    def dptsv(d, e, b):
        out = real(d, e, b)
        calls.append((d, e, b, out[2]))
        return out

    monkeypatch.setattr(equivalence, "dptsv", dptsv)
    rng = np.random.default_rng(19)
    for n in (1, 2, 7, 64, 300):
        for w in (rng.uniform(1.0, 4.0, n), 6.2e3 ** rng.uniform(0.0, 1.0, n)):
            h = w * (PI / w.sum())
            c = rng.standard_normal((n, 5))
            _lift_1d(h, c, rng.standard_normal((n + 1, 5)))
            d, e, b, got = calls.pop()
            inv = 1.0 / h
            off = 2.0 * inv
            off[[0, -1]] = 0.0
            bands = np.stack([np.r_[0.0, off],
                              np.r_[1.0, 4.0 * (inv[:-1] + inv[1:]), 1.0]])
            assert d.tobytes() == bands[1].tobytes()
            assert e.tobytes() == bands[0, 1:].tobytes()
            ch = c * inv[:, None]
            rhs = np.zeros((n + 1, 5))
            rhs[1:-1] = 6.0 * (ch[:-1] + ch[1:])
            assert b.tobytes() == rhs.tobytes()
            want = sla.solveh_banded(bands, rhs)
            assert got.tobytes() == want.tobytes()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(mesh=_small_tensor_meshes(n_max=6))
def test_2d_schur_identity(mesh):
    """diag(|K|) S_c diag(|K|) = B A^-1 B^T on random meshes up to 6x6,
    densely, to 2e-15 of max|B A^-1 B^T|: S_c is the Schur complement on
    the cell integrals of the reference-element enriched stiffness, A and
    B come from the COO scatter."""
    peq = assemble_peq_coo(mesh)
    k, ne = peq.K.toarray(), peq.n_edge_free
    s_c = k[ne:, ne:] - k[ne:, :ne] @ np.linalg.solve(k[:ne, :ne], k[:ne, ne:])
    a, b = (m.toarray() for m in assemble_mixed_coo(mesh))
    bab = b @ np.linalg.solve(a, b.T)
    areas = cell_areas(mesh)
    got = areas[:, None] * s_c * areas[None, :]
    assert np.abs(got - bab).max() <= 2e-15 * np.abs(bab).max()


def _check_certificate_against_oracle(mesh, k):
    """The certificate's lifted eigenvalues equal the enriched
    eigensolver's to 1e-12 relative, and the inertia count equals the
    number of its eigenvalues below every gap midpoint between clusters
    and below lambda_i (1 -+ 1e-6), each factorisation pivoting
    symmetrically.  The pairs are solved as the certificate asks: k + 3
    where the spectrum holds them."""
    system = assembled(mesh)
    k_more = max(k, min(k + 3, mesh.n_cells))
    pairs = solve_mixed_eigs(assemble_mixed(mesh), SolveOptions(k=k_more))
    rep = verify_equivalence_2d(system, pairs, k)
    peq = assemble_peq(mesh)
    n_oracle = min(len(pairs) + 3, mesh.n_cells)
    oracle = np.array([lam for lam, _ in solve_peq_eigs(peq, n_oracle)])
    for e, lam in zip(rep.entries, oracle):
        assert abs(e.lambda_peq - lam) <= 1e-12 * lam
    lams = oracle[: len(pairs)]
    shifts = [0.5 * (a + b) for a, b in zip(lams, lams[1:])
              if b - a > _CLUSTER_REL_TOL * b]
    shifts += [lam * (1 + t) for lam in lams for t in (-1e-6, 1e-6)]
    for shift in shifts:
        # the oracle's list holds every eigenvalue below the shift
        assert shift < oracle[-1] or n_oracle == mesh.n_cells
        _, count = _shifted_factor(peq, shift)
        assert count == np.count_nonzero(oracle < shift), shift


@settings(max_examples=20, deadline=None, derandomize=True)
@given(mesh=_small_tensor_meshes(), data=st.data())
def test_certificate_against_oracle_on_random_meshes(mesh, data):
    k = data.draw(st.integers(1, min(6, mesh.n_cells)), label="k")
    _check_certificate_against_oracle(mesh, k)


@pytest.mark.parametrize("case", ["a", "b", "c"])
def test_certificate_against_oracle_on_presets(case):
    """Preset levels 0-2 (8^2 to 32 x 64 cells)."""
    config = case_preset(case)
    mesh = config.initial_mesh()
    for _ in range(3):
        _check_certificate_against_oracle(mesh, config.k)
        mesh = uniform_refine(mesh)


def _drop_cluster_member(pairs, k):
    """The pair lambda_2 of a double eigenvalue (lambda_2 = lambda_3 on
    the presets) goes missing."""
    return pairs[:1] + pairs[2:]


def _perturb_u(pairs, k):
    """The first pair's x factor, hence its u, is off by 1 % noise."""
    rng = np.random.default_rng(0)
    p = pairs[0]
    bad = dataclasses.replace(
        p, v=p.v * (1.0 + 1e-2 * rng.standard_normal(len(p.v))))
    return [bad] + pairs[1:]


def _no_gap(pairs, k):
    """Only the k pairs requested: the cluster that ends them may go on."""
    return pairs[:k]


_CERTIFICATE_FAULTS = {
    "dropped cluster member": (_drop_cluster_member, "enriched and"),
    "perturbed u": (_perturb_u, "lifts to no enriched pair"),
    "no gap after the last cluster": (_no_gap, "no gap"),
}


def _faulty_x(spectrum, row, change):
    """The Spectrum with a copy of its x table in which ``change`` has
    rewritten the column of the first pair in row 1 (v) or 2 (flux); the
    copy keeps the solved widths and holds no lift."""
    arrays = list(spectrum.x)
    arrays[row] = arrays[row].copy()
    col = spectrum.ii[0]
    arrays[row][:, col] = change(arrays[row][:, col])
    bad = _Table(arrays)
    bad.h = spectrum.x.h
    return dataclasses.replace(spectrum, x=bad)


def _perturb_table_u(spectrum):
    """The first pair's x factor, hence its u, is off by 1 % noise."""
    rng = np.random.default_rng(0)
    return _faulty_x(spectrum, 1, lambda v: v * (
        1.0 + 1e-2 * rng.standard_normal(len(v))))


def _scale_flux_x(spectrum):
    """The first pair's x flux is off by a relative 1e-6."""
    return _faulty_x(spectrum, 2, lambda f: f * (1.0 + 1e-6))


_LIFT_FAULTS = {"perturbed u": _perturb_table_u,
                "scaled flux_x": _scale_flux_x}


@pytest.mark.parametrize("fault", _CERTIFICATE_FAULTS)
def test_certificate_catches_faults(mesh_a0, system_a0, fault):
    """Uniform 8^2, k = 6: lambda = 2, 5, 5, 8, 10, 10, 13, 13, 17.  A
    missing pair leaves one enriched eigenvalue more below the shift than
    mixed ones; a wrong u lifts to an enriched residual far past the
    cluster tolerance; the sixth pair closes a cluster, so without the
    pairs past k no shift can be placed after it, and the certificate
    refuses rather than skip the count."""
    make, message = _CERTIFICATE_FAULTS[fault]
    pairs = solve_mixed_eigs(assemble_mixed(mesh_a0), SolveOptions(k=9))
    assert verify_equivalence_2d(system_a0, pairs, k=6).max_eig_rel_diff <= 1e-12
    with pytest.raises(DimensionMismatch, match=message):
        verify_equivalence_2d(system_a0, make(pairs, 6), k=6)


def test_certificate_refuses_nonsymmetric_pivoting(monkeypatch, mesh_a0,
                                                   system_a0):
    """A factorisation that pivots off the diagonal (SuperLU's default
    threshold pivoting here) says nothing about the inertia."""
    real = spla.splu
    monkeypatch.setattr(spla, "splu", lambda a, **options: real(a))
    pairs = solve_mixed_eigs(assemble_mixed(mesh_a0), SolveOptions(k=9))
    with pytest.raises(SingularSystem, match="pivoting left the diagonal"):
        verify_equivalence_2d(system_a0, pairs, k=6)


@pytest.mark.parametrize("fault", _LIFT_FAULTS)
def test_lift_catches_faults(mesh_a0, fault):
    """Preset a level 0, k = 6: a u with 1 % noise and a flux off by a
    relative 1e-6 each take the first pair far past the bound c eps N^2
    (2.3e-13 at N = 8), while the solved pairs stay well within it."""
    pairs = solve_mixed_eigs(assemble_mixed(mesh_a0), SolveOptions(k=6))
    assert verify_equivalence(mesh_a0, pairs).eig_rel_diff.max() <= 1e-14
    with pytest.raises(DimensionMismatch, match=r"pair 0 \(mode \(1, 1\)\)"):
        verify_equivalence(mesh_a0, _LIFT_FAULTS[fault](pairs))


@pytest.mark.parametrize("fault", _LIFT_FAULTS)
def test_run_case_records_a_failed_certificate(monkeypatch, fault):
    """Injected into level 1 of preset c, each fault fails the
    equivalence analysis alone: the error lands in ``failures`` and the
    level keeps its eigenvalues and other analyses."""
    make = _LIFT_FAULTS[fault]
    solve = cli._solve

    def faulty(config, mesh, **tables):
        pairs = solve(config, mesh, **tables)
        if mesh.level == 1:
            return make(pairs)
        return pairs

    monkeypatch.setattr(cli, "_solve", faulty)
    report = run_case(dataclasses.replace(case_preset("c"), levels=1))
    failures = report.config["failures"]
    assert [(f["level"], f["analysis"], f["error"]) for f in failures] == [
        (1, "equivalence", "DimensionMismatch")]
    first, second = report.levels
    assert "equivalence" in first and "equivalence" not in second
    assert set(first) - {"equivalence"} == set(second)


def test_lift_never_factors_nor_iterates(monkeypatch, mesh_a0, pairs_a0):
    """verify_equivalence makes no sparse factorisation and no Lanczos
    iteration, and its module imports no scipy.sparse: a return to the
    2-D enriched system fails here."""
    calls = {"splu": 0, "eigsh": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(spla, name), **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(spla, name, counted)
    verify_equivalence(mesh_a0, pairs_a0)
    assert calls == {"splu": 0, "eigsh": 0}

    tree = ast.parse(Path(equivalence.__file__).read_text())
    imported = [a.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for a in node.names]
    imported += [f"{node.module}.{a.name}" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for a in node.names]
    assert imported and not any(
        m == "scipy.sparse" or m.startswith("scipy.sparse.") for m in imported)


def _listed_pairs(mesh, k):
    """The pairs as solve_mixed_eigs listed them before it returned a
    Spectrum: all built at once, each factor a copy of its column of the
    1-D modes."""
    x, y, lams, ii, jj, residuals, _ = full_table_pairs(
        mesh, k, _modes_1d, _residuals)
    return [MixedEigenpair(lambda_h=lam, v=x[1][:, i].copy(),
                           w=y[1][:, j].copy(), flux_x=x[2][:, i].copy(),
                           flux_y=y[2][:, j].copy(), residual_norm=r,
                           mode=(i + 1, j + 1))
            for lam, j, i, r in zip(lams.tolist(), jj.tolist(), ii.tolist(),
                                    residuals.tolist())]


def _pair_bits(p):
    """A pair as the types and bytes of its fields."""
    return (type(p.lambda_h), np.float64(p.lambda_h).tobytes(),
            *((f.dtype, f.shape, f.tobytes())
              for f in (p.v, p.w, p.flux_x, p.flux_y)),
            type(p.residual_norm), np.float64(p.residual_norm).tobytes(),
            tuple(map(type, p.mode)), p.mode)


def _report_bits(rep):
    """An EquivalenceReport, or the per-pair oracle's tuple, as bytes: the
    types, shapes and bytes of the three per-pair arrays, and the type and
    bytes of the largest flux jump."""
    if isinstance(rep, tuple):
        arrays, jump = rep
    else:
        arrays = (rep.lambda_peq, rep.eig_rel_diff, rep.sigma_discrepancy)
        jump = rep.max_flux_jump
    return ([(a.dtype, a.shape, a.tobytes()) for a in arrays], type(jump),
            np.float64(jump).tobytes())


def _assert_table_path(mesh, k):
    """solve_mixed_eigs's Spectrum builds, at each index, the pair that the
    eager list held, and verify_equivalence on the Spectrum's tables has
    the bits of the per-pair oracle."""
    spectrum = solve_mixed_eigs(assemble_mixed(mesh), SolveOptions(k=k))
    listed = _listed_pairs(mesh, k)
    assert isinstance(spectrum, Spectrum) and len(spectrum) == k
    assert [_pair_bits(p) for p in spectrum] == [_pair_bits(p) for p in listed]
    want = _report_bits(verify_equivalence_per_pair(mesh, listed, _lift_1d))
    assert _report_bits(verify_equivalence(mesh, spectrum)) == want
    return spectrum


@st.composite
def _table_meshes(draw):
    """Random tensor meshes of [0, a] x [0, b]: 1 to 24 cells and a width
    ratio up to 1e3 per direction (1, equal widths, often); in a third of
    the draws the y nodes are the x nodes, so the widths are bitwise
    equal and one table serves both directions."""
    nodes = []
    for axis in "xy":
        n = draw(st.integers(1, 24), label=f"n_{axis}")
        ratio = draw(st.floats(1.0, 1e3), label=f"width ratio {axis}")
        seed = draw(st.integers(0, 2**32 - 1), label=f"widths {axis}")
        widths = np.exp(np.random.default_rng(seed).uniform(
            0.0, np.log(ratio), n))
        span = draw(st.floats(0.5, 4.0), label=f"span {axis}")
        nodes.append(np.concatenate([[0.0], np.cumsum(widths)])
                     * (span / widths.sum()))
    if draw(st.integers(0, 2), label="mirror") == 0:
        nodes[1] = nodes[0]
    return build_mesh(*nodes)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(mesh=_table_meshes(), data=st.data())
def test_table_path_bitwise_against_per_pair_oracle(mesh, data):
    """On random meshes, a direction of one cell and bitwise equal widths
    among them, k from 1 to 16: the Spectrum's pairs and the equivalence
    check on its 1-D mode tables, have the bits of the eagerly listed
    pairs and of the per-pair check.  From k = 2 on, pairs share a column
    of a table: the second pair, (2, 1) or (1, 2), shares a mode with the
    first."""
    k = data.draw(st.integers(1, min(16, mesh.n_cells)), label="k")
    spectrum = _assert_table_path(mesh, k)
    if k > 1:
        assert min(len(set(spectrum.ii.tolist())),
                   len(set(spectrum.jj.tolist()))) < k


@pytest.mark.parametrize("case", "abc")
def test_table_path_bitwise_on_presets(case):
    """Levels 0-5 of each preset, at its k: preset a's one table for both
    directions, b's closed forms of two widths and c's dense and (level 5,
    160 cells per direction) inverse-iteration tables, bit for bit."""
    mesh = case_preset(case).initial_mesh()
    for level in range(6):
        _assert_table_path(mesh, case_preset(case).k)
        mesh = uniform_refine(mesh)


@pytest.mark.parametrize("n1, n2, k", [(200, 150, 12), (256, 1, 6)])
def test_table_path_bitwise_on_inverse_tables(n1, n2, k):
    """Random widths (ratio up to 30) of more than 128 cells, whose modes
    come from the inverse iteration, beside a direction of 200 and of 1
    cell."""
    rng = np.random.default_rng(n1 + n2)
    _assert_table_path(build_mesh(*(
        np.concatenate([[0.0], np.cumsum(rng.uniform(1.0, 30.0, n))])
        for n in (n1, n2))), k)


def test_spectrum_reads_as_a_sequence_of_pairs(mesh_c0):
    """A Spectrum indexes from the end, slices into a list of pairs, stops
    iterating at its length and raises IndexError past it."""
    spectrum = solve_mixed_eigs(assemble_mixed(mesh_c0), SolveOptions(k=5))
    listed = _listed_pairs(mesh_c0, 5)
    assert _pair_bits(spectrum[-1]) == _pair_bits(listed[-1])
    part = spectrum[1:4:2]
    assert type(part) is list
    assert list(map(_pair_bits, part)) == list(map(_pair_bits, listed[1:4:2]))
    assert len(list(spectrum)) == 5
    assert list(map(_pair_bits, spectrum)) == [
        _pair_bits(spectrum[t]) for t in range(len(spectrum))]
    assert spectrum.modes == tuple(p.mode for p in listed)
    with pytest.raises(IndexError):
        spectrum[5]


def _spectrum_bits(s):
    """A Spectrum as the types, shapes and bytes of every field."""
    arrays = [*s.x, *s.y, s.lambdas, s.ii, s.jj, s.residuals]
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays], s.modes


def _fitting(tables, h, cols):
    """The first of ``tables`` that a solve on the widths h with ``cols``
    modes may reuse, or None."""
    return next((t for t in tables if isinstance(t, _Table)
                 and t[1].shape[1] == cols and np.array_equal(t.h, h)), None)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mesh=_table_meshes(), data=st.data())
def test_offered_tables_give_the_bits_of_a_fresh_solve(mesh, data):
    """A solve offered 1-D mode tables reuses those of bitwise equal
    widths and the column count of a fresh solve, lifted or not, and no
    other: donor meshes share a direction's nodes with the mesh (so its
    widths) at the same or another k, or have random nodes, and the
    offered entries None and (1, 2), which are not tables, fit nothing.
    Every field of the Spectrum and of its EquivalenceReport has the bits
    of a fresh solve and check."""
    k = data.draw(st.integers(1, min(16, mesh.n_cells)), label="k")
    offered = []
    for t in range(data.draw(st.integers(1, 4), label="donors")):
        nodes = [data.draw(st.sampled_from(
            [mesh.node_x, mesh.node_y, np.linspace(0.0, 2.0, 4 + t)]),
            label=f"donor {t} {axis}") for axis in "xy"]
        donor = build_mesh(*nodes)
        k_donor = data.draw(st.sampled_from(
            sorted({min(k, donor.n_cells), min(k + 3, donor.n_cells), 1})),
            label=f"donor {t} k")
        pairs = solve_mixed_eigs(assemble_mixed(donor), SolveOptions(k_donor))
        if data.draw(st.booleans(), label=f"donor {t} lifted"):
            verify_equivalence(donor, pairs)
        offered += [pairs.x, pairs.y]
    for junk in (None, (1, 2)):
        offered.insert(data.draw(st.integers(0, len(offered)),
                                 label=f"{junk} at"), junk)
    system = assemble_mixed(mesh)
    got = solve_mixed_eigs(system, SolveOptions(k), tables=offered)
    fresh = solve_mixed_eigs(system, SolveOptions(k))
    x = _fitting(offered, mesh.hx, fresh.x[1].shape[1])
    assert got.x is x if x is not None else all(got.x is not t
                                                for t in offered)
    y = _fitting([got.x, *offered], mesh.hy, fresh.y[1].shape[1])
    assert got.y is y if y is not None else got.y is not got.x
    assert _spectrum_bits(got) == _spectrum_bits(fresh)
    assert (_report_bits(verify_equivalence(mesh, got))
            == _report_bits(verify_equivalence(mesh, fresh)))


def test_tables_and_lifts_are_read_only(mesh_c0):
    """A caller cannot write into a solved table, or into the lift that
    the equivalence check keeps with it, which a later solve may reuse,
    nor into the Spectrum's per-pair arrays; the EquivalenceReport holds
    none of them, only arrays of its own, and the pairs built from the
    tables are copies, and writable."""
    spectrum = solve_mixed_eigs(assemble_mixed(mesh_c0), SolveOptions(k=5))
    rep = verify_equivalence(mesh_c0, spectrum)
    for table in (spectrum.x, spectrum.y):
        assert isinstance(table, _Table) and table.lift is not None
        for a in (*table, table.lift):
            assert not a.flags.writeable
    solved = (spectrum.lambdas, spectrum.ii, spectrum.jj, spectrum.residuals)
    for a in solved:
        assert not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        spectrum.x[1][0, 0] = 1.0
    assert not any(np.shares_memory(a, b)
                   for a in (rep.lambda_peq, rep.eig_rel_diff,
                             rep.sigma_discrepancy)
                   for b in (*solved, *spectrum.x, *spectrum.y,
                             spectrum.x.lift, spectrum.y.lift))
    assert spectrum.lambdas[0] > 0.0 and spectrum[0].lambda_h > 0.0
    spectrum[0].v[0] = 1.0


def test_a_kept_lift_serves_only_its_widths(mesh_c0):
    """A solved table keeps the lift taken on its own widths only: on a
    mesh of the same cell counts and other widths, the Spectrum is refused
    with LayoutMismatch and keeps its lifts."""
    spectrum = solve_mixed_eigs(assemble_mixed(mesh_c0), SolveOptions(k=5))
    verify_equivalence(mesh_c0, spectrum)
    kept = spectrum.x.lift, spectrum.y.lift
    other = build_mesh(mesh_c0.node_x ** 2, mesh_c0.node_y ** 2)
    with pytest.raises(LayoutMismatch, match="solved on other widths"):
        verify_equivalence(other, spectrum)
    assert spectrum.x.lift is kept[0] and spectrum.y.lift is kept[1]


def test_verify_equivalence_refuses_a_spectrum_of_other_widths():
    """A Spectrum solved on a random 6 x 5 mesh is refused with
    LayoutMismatch on another random mesh of the same cell counts, which a
    check of lengths alone would let through; on its own mesh it
    passes."""
    rng = np.random.default_rng(23)
    solved, other = (build_mesh(*(np.concatenate(
        [[0.0], np.cumsum(rng.uniform(1.0, 4.0, n))]) for n in (6, 5)))
        for _ in range(2))
    spectrum = solve_mixed_eigs(assemble_mixed(solved), SolveOptions(k=6))
    with pytest.raises(LayoutMismatch, match="on other widths does not fit "
                       "these 6 cells"):
        verify_equivalence(other, spectrum)
    assert len(verify_equivalence(solved, spectrum).lambda_peq) == 6
