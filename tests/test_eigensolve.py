"""Eigensolver contracts: oracle agreement, determinism, orthogonality,
error paths."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rrteig.assembly import assemble_mixed
from rrteig.eigensolve import SolveOptions, dense_oracle_eigs, solve_mixed_eigs
from rrteig.errors import KTooLarge, OracleCapExceeded
from rrteig.exact import enumerate_exact
from rrteig.mesh import build_mesh, uniform_mesh, uniform_refine

PI = np.pi


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(k=0)
    with pytest.raises(ValueError):
        SolveOptions(k=3, tol=2.0)


def test_eigenvalues_positive_ascending(pairs_a0):
    lam = np.array([p.lambda_h for p in pairs_a0])
    assert np.all(lam > 0)
    assert np.all(np.diff(lam) >= -1e-12)


def test_m_orthonormality(system_a0, pairs_a0):
    u = np.column_stack([p.u_coeffs for p in pairs_a0])
    gram = u.T @ (system_a0.M[:, None] * u)
    np.testing.assert_allclose(gram, np.eye(len(pairs_a0)), atol=1e-10)


def test_a_orthogonality_and_sigma_norm(system_a0, pairs_a0):
    """sigma_i^T A sigma_j = lambda_i delta_ij (orthogonal sequence)."""
    s = np.column_stack([p.sigma_coeffs for p in pairs_a0])
    gram = s.T @ (system_a0.A @ s)
    lam = np.array([p.lambda_h for p in pairs_a0])
    np.testing.assert_allclose(gram, np.diag(lam), atol=1e-9 * lam.max())


def test_determinism(system_a0):
    a = solve_mixed_eigs(system_a0, SolveOptions(k=5))
    b = solve_mixed_eigs(system_a0, SolveOptions(k=5))
    for pa, pb in zip(a, b):
        assert pa.lambda_h == pb.lambda_h
        np.testing.assert_array_equal(pa.u_coeffs, pb.u_coeffs)


def test_sign_convention(pairs_a0):
    for p in pairs_a0:
        assert p.u_coeffs[int(np.argmax(np.abs(p.u_coeffs)))] > 0


def test_oracle_agreement_sweep():
    """Iterative vs dense oracle to 1e-9 relative on meshes up to 16x16."""
    meshes = [
        uniform_mesh(0, PI, 4, 0, PI, 4),
        uniform_mesh(0, PI, 8, 0, PI, 8),
        uniform_mesh(0, PI, 16, 0, PI, 16),
        uniform_mesh(0, PI, 8, 0, PI, 16),
        build_mesh(
            (0.0, PI / 4, PI / 2, 2 * PI / 3, 5 * PI / 6, PI),
            (0.0, PI / 6, PI / 3, PI / 2, 3 * PI / 4, PI),
        ),
    ]
    for mesh in meshes:
        system = assemble_mixed(mesh)
        k = min(12, mesh.n_cells)
        it = solve_mixed_eigs(system, SolveOptions(k=k))
        orc = dense_oracle_eigs(system, k=k)
        for p, q in zip(it, orc):
            assert abs(p.lambda_h - q.lambda_h) <= 1e-9 * q.lambda_h


def test_residuals_small(pairs_a0):
    for p in pairs_a0:
        assert p.residual_norm <= 1e-10


def test_full_spectrum_size():
    """k = n_cell is solvable: the reduced pencil has exactly n_cell modes."""
    m = uniform_mesh(0, PI, 3, 0, PI, 3)
    system = assemble_mixed(m)
    pairs = solve_mixed_eigs(system, SolveOptions(k=9))
    assert len(pairs) == 9
    with pytest.raises(KTooLarge):
        solve_mixed_eigs(system, SolveOptions(k=10))


def test_oracle_cap():
    m = uniform_mesh(0, PI, 80, 0, PI, 80)
    system = assemble_mixed(m)
    with pytest.raises(OracleCapExceeded):
        dense_oracle_eigs(system, k=1)


def test_degenerate_pairs_uniform():
    """lambda_2 = lambda_3 and lambda_5 = lambda_6 to 1e-10 relative."""
    mesh = uniform_mesh(0, PI, 8, 0, PI, 8)
    for _ in range(3):
        system = assemble_mixed(mesh)
        pairs = solve_mixed_eigs(system, SolveOptions(k=6))
        lam = [p.lambda_h for p in pairs]
        assert abs(lam[1] - lam[2]) <= 1e-10 * lam[1]
        assert abs(lam[4] - lam[5]) <= 1e-10 * lam[4]
        mesh = uniform_refine(mesh)


def _nodes(widths):
    """Nodes of [0, pi] with cells proportional to ``widths``."""
    w = np.asarray(widths)
    nodes = np.concatenate([[0.0], np.cumsum(w)]) * (PI / w.sum())
    nodes[-1] = PI
    return nodes


@st.composite
def _tensor_meshes(draw):
    """Random tensor meshes of [0, pi]^2, n1, n2 in [1, 40], cell widths
    drawn from [1, 4] so the width ratio per direction is <= 4."""
    nodes = []
    for axis in "xy":
        n = draw(st.integers(1, 40), label=f"n_{axis}")
        nodes.append(_nodes(draw(st.lists(
            st.floats(1.0, 4.0), min_size=n, max_size=n))))
    return build_mesh(*nodes)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mesh=_tensor_meshes(), data=st.data())
def test_random_tensor_meshes_against_oracle(mesh, data):
    """Tensor-product solver vs the dense 2-D oracle on random meshes:
    eigenvalues to 1e-10 relative, M-orthonormal u, residuals within tol,
    and the upper bound lambda_h >= m^2 + n^2."""
    system = assemble_mixed(mesh)
    k = data.draw(st.integers(1, min(12, mesh.n_cells)), label="k")
    opts = SolveOptions(k=k)
    pairs = solve_mixed_eigs(system, opts)
    assert len(pairs) == k
    lam = np.array([p.lambda_h for p in pairs])
    want = np.array([q.lambda_h for q in dense_oracle_eigs(system, k=k)])
    np.testing.assert_allclose(lam, want, rtol=1e-10, atol=0.0)
    u = np.column_stack([p.u_coeffs for p in pairs])
    gram = u.T @ (system.M[:, None] * u)
    np.testing.assert_allclose(gram, np.eye(k), atol=1e-10)
    assert all(p.residual_norm <= opts.tol for p in pairs)
    exact = np.array([e.value for e in enumerate_exact((PI, PI), count=k)])
    assert np.all(lam >= exact)


def test_cluster_cut_by_k():
    """k = 2 cuts the tied pair lambda_2 = lambda_3 of a uniform mesh: the
    solve returns exactly k pairs, bitwise repeatable, and the member it
    keeps is the one that leads the pair when the whole cluster is asked:
    the (2, 1) mode, odd in x, before the (1, 2) mode, odd in y."""
    system = assemble_mixed(uniform_mesh(0, PI, 8, 0, PI, 8))
    cut = solve_mixed_eigs(system, SolveOptions(k=2))
    again = solve_mixed_eigs(system, SolveOptions(k=2))
    full = solve_mixed_eigs(system, SolveOptions(k=3))
    assert len(cut) == 2
    assert full[1].lambda_h == full[2].lambda_h
    u2, u3 = (full[t].u_coeffs.reshape(8, 8) for t in (1, 2))  # [j, i]
    np.testing.assert_allclose(u2[:, ::-1], -u2, atol=1e-12)
    np.testing.assert_allclose(u3[::-1, :], -u3, atol=1e-12)
    for p, q, r in zip(cut, again, full):
        assert p.lambda_h == q.lambda_h == r.lambda_h
        np.testing.assert_array_equal(p.u_coeffs, q.u_coeffs)
        np.testing.assert_array_equal(p.u_coeffs, r.u_coeffs)


def test_extra_pairs_leave_the_first_k_bitwise(system_a0, mesh_c0):
    """The equivalence check solves k + 3 pairs in place of k: the first k
    must be the same bits (lambda, sigma, u), also when k cuts the tied
    pair lambda_12 = lambda_13 of case c."""
    for system, k in ((system_a0, 6), (assemble_mixed(mesh_c0), 12)):
        base = solve_mixed_eigs(system, SolveOptions(k=k))
        more = solve_mixed_eigs(system, SolveOptions(k=k + 3))
        for p, q in zip(base, more[:k]):
            assert p.lambda_h == q.lambda_h
            np.testing.assert_array_equal(p.sigma_coeffs, q.sigma_coeffs)
            np.testing.assert_array_equal(p.u_coeffs, q.u_coeffs)
