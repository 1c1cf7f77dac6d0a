"""Eigensolver contracts: oracle agreement, determinism, orthogonality,
error paths."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from rrteig import eigensolve
from rrteig.assembly import assemble_mixed
from rrteig.eigensolve import (
    _DENSE_MAX_CELLS,
    SolveOptions,
    _modes_1d,
    solve_mixed_eigs,
)
from rrteig.errors import InvalidConfig, KTooLarge, NotConverged
from rrteig.exact import enumerate_exact
from rrteig.mesh import build_mesh, uniform_mesh, uniform_refine

from oracles import (
    assembled,
    dense_eigenvalues,
    full_table_pairs,
    k_product,
    modes_1d_saddle,
    residual_2d,
    sigma_coeffs,
    u_coeffs,
)

PI = np.pi


def _table_1d(h, k):
    """One direction's table (mu, v, flux, sums): a stack of one."""
    return _modes_1d([h], k)[0]


def _ops_1d(h):
    """What the product with K reads on one direction: a stack of one."""
    return eigensolve._k_ops(h[None], *eigensolve._a1_bands(h[None]))


def test_options_validation():
    """k < 1, and a k that is no integer (a float, even 2.0 or NaN, a bool
    or a str), is refused with InvalidConfig, which is a ValueError too; a
    numpy integer is a k; the options hold k alone."""
    for k in (0, -1, 2.5, 2.0, float("nan"), True, False, "3"):
        with pytest.raises(InvalidConfig, match="k must be >= 1"):
            SolveOptions(k=k)
    assert SolveOptions(k=np.int64(3)).k == 3
    assert issubclass(InvalidConfig, ValueError)
    assert [f.name for f in dataclasses.fields(SolveOptions)] == ["k"]


def test_eigenvalues_positive_ascending(pairs_a0):
    lam = np.array([p.lambda_h for p in pairs_a0])
    assert np.all(lam > 0)
    assert np.all(np.diff(lam) >= -1e-12)


def test_m_orthonormality(system_a0, pairs_a0):
    u = np.column_stack([u_coeffs(p) for p in pairs_a0])
    gram = u.T @ (system_a0.M[:, None] * u)
    np.testing.assert_allclose(gram, np.eye(len(pairs_a0)), atol=1e-10)


def test_a_orthogonality_and_sigma_norm(system_a0, pairs_a0):
    """sigma_i^T A sigma_j = lambda_i delta_ij (orthogonal sequence)."""
    s = np.column_stack([sigma_coeffs(p) for p in pairs_a0])
    gram = s.T @ (system_a0.A @ s)
    lam = np.array([p.lambda_h for p in pairs_a0])
    np.testing.assert_allclose(gram, np.diag(lam), atol=1e-9 * lam.max())


def test_determinism(mesh_a0):
    system = assemble_mixed(mesh_a0)
    a = solve_mixed_eigs(system, SolveOptions(k=5))
    b = solve_mixed_eigs(system, SolveOptions(k=5))
    for pa, pb in zip(a, b):
        assert pa.lambda_h == pb.lambda_h
        np.testing.assert_array_equal(u_coeffs(pa), u_coeffs(pb))


def test_sign_convention(pairs_a0):
    """v and w each have their first largest-magnitude entry positive, so
    u is positive and largest at (argmax |w|, argmax |v|).  The sign is
    fixed on the 1-D factors because np.argmax over the 2-D u can pick a
    mirror entry of opposite sign where the rounding ties them, as for
    mode (2, 2) on uniform 5 x 10."""
    for p in pairs_a0:
        for f in (p.v, p.w):
            assert f[int(np.argmax(np.abs(f)))] > 0
        u = u_coeffs(p).reshape(len(p.w), len(p.v))
        top = u[int(np.argmax(np.abs(p.w))), int(np.argmax(np.abs(p.v)))]
        assert top > 0 and top == np.abs(u).max()


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
        k = min(12, mesh.n_cells)
        it = solve_mixed_eigs(assemble_mixed(mesh), SolveOptions(k=k))
        orc = dense_eigenvalues(assembled(mesh), k)
        for p, q in zip(it, orc):
            assert abs(p.lambda_h - q) <= 1e-9 * q


def test_residuals_small(pairs_a0):
    for p in pairs_a0:
        assert p.residual_norm <= 1e-10


def test_solve_reads_no_assembled_matrix(mesh_c0):
    """The solver reads only the mesh: with the layout removed from the
    system, preset c level 1 gives the same bits."""
    system = assemble_mixed(uniform_refine(mesh_c0))
    opts = SolveOptions(k=12)
    want = solve_mixed_eigs(system, opts)
    bare = dataclasses.replace(system, layout=None)
    got = solve_mixed_eigs(bare, opts)
    assert len(got) == len(want) == 12
    for p, q in zip(got, want):
        assert (p.lambda_h, p.residual_norm, p.mode) == (
            q.lambda_h, q.residual_norm, q.mode)
        for name in ("v", "w", "flux_x", "flux_y"):
            np.testing.assert_array_equal(getattr(p, name), getattr(q, name))


def test_not_converged_by_the_residual_check(monkeypatch):
    """A bound constant below roundoff fails the solve's own residual
    check: the error names the bound and N, and carries the residual of
    each of the k pairs, the values a passing solve reports."""
    system = assemble_mixed(uniform_mesh(0, PI, 8, 0, PI, 8))
    passing = solve_mixed_eigs(system, SolveOptions(k=6))
    monkeypatch.setattr(eigensolve, "_RESIDUAL_C", 1e-6)
    with pytest.raises(NotConverged, match=r"bound .* eps N\^2, N = 8$"
                       ) as info:
        solve_mixed_eigs(system, SolveOptions(k=6))
    assert info.value.residuals == [p.residual_norm for p in passing]


def _graded_nodes(rng, n, ratio):
    """Nodes of [0, pi] with n cell widths ratio ** U(0, 1)."""
    return _nodes(ratio ** rng.uniform(0.0, 1.0, n))


def test_strongly_graded_mesh_within_the_bound():
    """A 3 x 113 mesh whose y widths span a ratio of 8.4e3 reaches a
    worst residual of 8.7e-10 (mode (1, 1)) at k = 48, above a fixed
    1e-10 and far below 64 eps N^2 = 1.9e-4 (N = 1.2e5).  It solves, and
    its eigenvalues are the Kronecker sums of the saddle-LU 1-D oracle to
    1e-12 relative, well within the bound."""
    rng = np.random.default_rng(5)
    mesh = build_mesh(_graded_nodes(rng, 3, 8.5e3),
                      _graded_nodes(rng, 113, 8.5e3))
    n_eff = max(PI / mesh.hx.min(), PI / mesh.hy.min())
    bound = 64.0 * np.finfo(float).eps * n_eff**2
    pairs = solve_mixed_eigs(assemble_mixed(mesh), SolveOptions(k=48))
    assert 1e-10 < max(p.residual_norm for p in pairs) <= bound
    system = assembled(mesh)
    mu = modes_1d_saddle(system, 0, 3)[0]
    nu = modes_1d_saddle(system, 1, 48)[0]
    want = np.sort(np.add.outer(nu, mu), axis=None)[:48]
    lam = np.array([p.lambda_h for p in pairs])
    np.testing.assert_allclose(lam, want, rtol=1e-12, atol=0.0)


def test_full_spectrum_size():
    """k = n_cell is solvable: the reduced pencil has exactly n_cell modes."""
    m = uniform_mesh(0, PI, 3, 0, PI, 3)
    system = assemble_mixed(m)
    pairs = solve_mixed_eigs(system, SolveOptions(k=9))
    assert len(pairs) == 9
    with pytest.raises(KTooLarge):
        solve_mixed_eigs(system, SolveOptions(k=10))


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
def _tensor_meshes(draw, max_n=40):
    """Random tensor meshes of [0, pi]^2, n1, n2 in [1, max_n], cell widths
    drawn from [1, 4] so the width ratio per direction is <= 4."""
    nodes = []
    for axis in "xy":
        n = draw(st.integers(1, max_n), label=f"n_{axis}")
        nodes.append(_nodes(draw(st.lists(
            st.floats(1.0, 4.0), min_size=n, max_size=n))))
    return build_mesh(*nodes)


def _sign_changes(v):
    """Sign changes along v, its roundoff-sized entries skipped."""
    s = np.sign(v[np.abs(v) > 1e-10 * np.abs(v).max()])
    return int(np.count_nonzero(s[1:] != s[:-1]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mesh=_tensor_meshes(), data=st.data())
def test_random_tensor_meshes_against_oracle(mesh, data):
    """Tensor-product solver vs the dense 2-D oracle on random meshes:
    eigenvalues to 1e-10 relative, M-orthonormal u, residuals within the
    bound 64 eps N^2, N = max(pi / min h_x, pi / min h_y), and within
    1e-15 of the residual from 2-D sparse products, the upper
    bound lambda_h >= m^2 + n^2, each sigma (cluster members
    too) against a direct 2-D solve A^-1 B^T u to 1e-12 in the A-norm, and
    each mode label (m, n): u is rank one, its x factor has m - 1 and its
    y factor n - 1 sign changes (discrete Sturm oscillation), and no two
    pairs share a label; the first pair is the (1, 1) mode with both
    factors positive, which the sweep measures without a sign match."""
    system = assembled(mesh)
    k = data.draw(st.integers(1, min(12, mesh.n_cells)), label="k")
    pairs = solve_mixed_eigs(assemble_mixed(mesh), SolveOptions(k=k))
    assert len(pairs) == k
    lam = np.array([p.lambda_h for p in pairs])
    want = dense_eigenvalues(system, k)
    np.testing.assert_allclose(lam, want, rtol=1e-10, atol=0.0)
    u = np.column_stack([u_coeffs(p) for p in pairs])
    gram = u.T @ (system.M[:, None] * u)
    np.testing.assert_allclose(gram, np.eye(k), atol=1e-10)
    n_eff = max(PI / mesh.hx.min(), PI / mesh.hy.min())
    bound = 64.0 * np.finfo(float).eps * n_eff**2
    assert all(p.residual_norm <= bound for p in pairs)
    for p in pairs:
        assert abs(p.residual_norm - residual_2d(system, p)) <= 1e-15
    a = system.A.tocsc()
    want_sigma = spla.splu(a).solve(system.B.T @ u)  # one column per pair
    for p, want in zip(pairs, want_sigma.T):
        err = sigma_coeffs(p) - want
        assert np.sqrt(err @ (a @ err)) <= 1e-12 * np.sqrt(want @ (a @ want))
    exact = np.array([e.value for e in enumerate_exact((PI, PI), count=k)])
    assert np.all(lam >= exact)
    for p in pairs:
        y, s, xt = np.linalg.svd(u_coeffs(p).reshape(mesh.n2, mesh.n1))
        assert np.all(s[1:] <= 1e-12 * s[0])
        assert p.mode == (_sign_changes(xt[0]) + 1, _sign_changes(y[:, 0]) + 1)
    assert len({p.mode for p in pairs}) == k
    assert pairs[0].mode == (1, 1)
    assert np.all(pairs[0].v > 0) and np.all(pairs[0].w > 0)


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
    u2, u3 = (u_coeffs(full[t]).reshape(8, 8) for t in (1, 2))  # [j, i]
    np.testing.assert_allclose(u2[:, ::-1], -u2, atol=1e-12)
    np.testing.assert_allclose(u3[::-1, :], -u3, atol=1e-12)
    for p, q, r in zip(cut, again, full):
        assert p.lambda_h == q.lambda_h == r.lambda_h
        np.testing.assert_array_equal(u_coeffs(p), u_coeffs(q))
        np.testing.assert_array_equal(u_coeffs(p), u_coeffs(r))


def _bits(pairs):
    return [(p.lambda_h, p.v.tobytes(), p.w.tobytes(), p.flux_x.tobytes(),
             p.flux_y.tobytes(), p.residual_norm, p.mode) for p in pairs]


def test_equal_widths_take_the_1d_modes_once(monkeypatch, mesh_a0):
    """When the y widths equal the x widths bitwise, the solve takes the
    1-D modes of one direction (one _modes_1d call on a stack of one), and
    its pairs are the bits of the solve that takes both directions (here
    one call on a stack of two); on the closed form (preset a), the dense
    and the inverse-iteration path.  y widths one ulp off take both
    directions in one call, n1 != n2 in one call each."""
    calls = []
    modes_1d = eigensolve._modes_1d

    def counted(hs, k):
        calls.append([len(h) for h in hs])
        return modes_1d(hs, k)

    monkeypatch.setattr(eigensolve, "_modes_1d", counted)
    rng = np.random.default_rng(5)
    nodes = _nodes(rng.uniform(1.0, 4.0, 9))
    off = nodes.copy()
    off[4] = np.nextafter(off[4], np.inf)  # two y widths one ulp off
    big = _nodes(rng.uniform(1.0, 4.0, _DENSE_MAX_CELLS + 22))
    n_a = mesh_a0.n1
    cases = [(mesh_a0.node_x, mesh_a0.node_y, 6, [[n_a]]),
             (nodes, nodes, 12, [[9]]), (big, big, 13, [[150]]),
             (nodes, off, 12, [[9, 9]]),
             (nodes, _nodes(rng.uniform(1.0, 4.0, 8)), 12, [[9], [8]])]
    for nx, ny, k, want in cases:
        system = assemble_mixed(build_mesh(nx, ny))
        del calls[:]
        pairs = solve_mixed_eigs(system, SolveOptions(k=k))
        assert calls == want
        if len(want) == len(want[0]) == 1:  # one direction solved
            with monkeypatch.context() as m:
                m.setattr(np, "array_equal", lambda a, b: False)
                two = solve_mixed_eigs(system, SolveOptions(k=k))
            assert calls == [*want, want[0] * 2]
            assert _bits(pairs) == _bits(two)


@st.composite
def _width_pairs(draw):
    """Two width sets of one cell count on one 1-D path: equal widths of
    spans from 0.1 to 10 (the closed form), widths from [1, 4] on 1 to 128
    cells (the dense path) or graded up to ratio 1e3 on 129 to 512 cells
    (the inverse iteration); in a quarter of the draws the second set is
    equal widths, so that the stack mixes the closed form with the path
    of the first."""
    path = draw(st.sampled_from(["closed", "dense", "inverse"]), label="path")
    n = draw(st.integers(1, 128) if path != "inverse" else
             st.integers(_DENSE_MAX_CELLS + 1, 512), label="n")
    pair = []
    for i in range(2):
        seed = draw(st.integers(0, 2**32 - 1), label=f"seed {i}")
        rng = np.random.default_rng(seed)
        if path == "closed" or (i and draw(st.integers(0, 3)) == 0):
            w = np.ones(n)
        else:
            w = (rng.uniform(1.0, 4.0, n) if path == "dense" else
                 1e3 ** rng.uniform(0.0, 1.0, n))
        span = 10.0 ** draw(st.floats(-1.0, 1.0), label=f"log span {i}")
        pair.append(np.diff(np.concatenate([[0.0], np.cumsum(w)])
                            * (span / w.sum())))
    return pair


@settings(max_examples=60, deadline=None, derandomize=True)
@given(widths=_width_pairs(), data=st.data())
def test_stacked_tables_bitwise_against_each_direction_alone(widths, data):
    """Two directions of one cell count solved as one stack give each the
    bits of its table solved alone (mu, v, flux and sums, np.array_equal),
    at 1 to 16 modes, on the closed form, the dense path, the inverse
    iteration and stacks that mix the closed form with either.  A solve on
    the mesh of the two width sets, whose fresh tables of one column count
    are one stack, has the bits of the solve offered an x table solved
    alone, and reuses that table."""
    n = len(widths[0])
    p = data.draw(st.integers(1, min(n, 16)), label="p")
    stacked = _modes_1d(widths, p)
    for h, table in zip(widths, stacked):
        for got, want in zip(table, _table_1d(h, p)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    mesh = build_mesh(*(np.concatenate([[0.0], np.cumsum(h)])
                        for h in widths))
    k = data.draw(st.integers(1, min(mesh.n_cells, 40)), label="k")
    system = assemble_mixed(mesh)
    both = solve_mixed_eigs(system, SolveOptions(k=k))
    alone = eigensolve._tables([(mesh.hx, both.x[1].shape[1])], ())[0]
    offered = solve_mixed_eigs(system, SolveOptions(k=k), tables=[alone])
    assert offered.x is alone
    for a, b in zip((*both.x, *both.y, both.lambdas, both.ii, both.jj,
                     both.residuals), (*offered.x, *offered.y,
                                       offered.lambdas, offered.ii,
                                       offered.jj, offered.residuals)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert both.modes == offered.modes


def test_extra_pairs_leave_the_first_k_bitwise(mesh_a0, mesh_c0):
    """A solve of k + 3 pairs in place of k, as the 2-D equivalence
    certificate oracle asks, leaves the first k the same bits (lambda,
    sigma, u), also when k cuts the tied pair lambda_12 = lambda_13 of
    case c, and for every k <= 12 on two random tensor meshes, one of
    them square with hx == hy bitwise, where k cuts the exact ties of the
    (m, n) and (n, m) pairs, and for every k <= 13 on such a square mesh
    above the cutoff, whose 1-D modes come from the inverse iteration, one
    mode at a time."""
    rng = np.random.default_rng(2)
    nx, ny = (_nodes(rng.uniform(1.0, 4.0, n)) for n in (9, 7))
    big = _nodes(rng.uniform(1.0, 4.0, _DENSE_MAX_CELLS + 22))
    cases = [(assemble_mixed(mesh_a0), 6), (assemble_mixed(mesh_c0), 12)]
    cut_ties = 0
    for mesh in (build_mesh(nx, ny), build_mesh(nx, nx)):
        system = assemble_mixed(mesh)
        cases += [(system, k) for k in range(1, 13)]
    system = assemble_mixed(build_mesh(big, big))
    cases += [(system, k) for k in range(1, 14)]
    for system, k in cases:
        base = solve_mixed_eigs(system, SolveOptions(k=k))
        more = solve_mixed_eigs(system, SolveOptions(k=k + 3))
        cut_ties += more[k - 1].lambda_h == more[k].lambda_h
        for p, q in zip(base, more[:k]):
            assert p.lambda_h == q.lambda_h
            np.testing.assert_array_equal(sigma_coeffs(p), sigma_coeffs(q))
            np.testing.assert_array_equal(u_coeffs(p), u_coeffs(q))
    assert cut_ties >= 2  # case c once, the square mesh at least once


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mesh=_tensor_meshes(max_n=64), data=st.data())
def test_modes_1d_against_saddle_oracle(mesh, data):
    """The cumulative-sum 1-D modes on the cell widths vs the strip pencils
    sliced from the assembled matrices and inverted by a saddle LU, in
    both directions of random meshes (n <= 64, width ratio <= 4, k <=
    min(n, 15)): eigenvalues to 2e-13 relative, modes and fluxes to 5e-12
    of their largest entry, once the oracle's sign is matched and its
    cross-width factor 1/sqrt(c) is taken out."""
    system = assembled(mesh)
    for axis, h, cross in ((0, mesh.hx, mesh.hy[0]), (1, mesh.hy, mesh.hx[0])):
        k = data.draw(st.integers(1, min(len(h), 15)), label=f"k_{axis}")
        mu, v, flux, _ = _table_1d(h, k)
        want_mu, want_v, want_flux = modes_1d_saddle(system, axis, k)
        np.testing.assert_allclose(mu, want_mu, rtol=2e-13, atol=0.0)
        sign = np.sign(np.sum(want_v * v, axis=0)) * np.sqrt(cross)
        for got, want in ((v, want_v * sign), (flux, want_flux * sign)):
            err = np.abs(got - want)
            assert np.all(err <= 5e-12 * np.abs(got).max(axis=0))


@pytest.mark.parametrize("n", [1, 2, 8, 16, 64, 256, 1024, 4096])
def test_modes_1d_closed_form_uniform(monkeypatch, n):
    """On n equal widths h the 1-D modes come from the closed form alone
    (the dense and inverse-iteration paths are not called): the m-th
    eigenvalue is 12 sin^2(t/2) / (h^2 (2 + cos t)), t = m pi / n, to
    2e-15 relative, and the m-th mode is sin(t (i + 1/2)) / sqrt(pi / 2),
    D-normalised (sqrt(pi) at m = n), to 1e-13 of its largest entry (the
    rounding of the unreduced phase here, up to 48 pi), once signed by the
    shared rule; the modes, the eigenvalues and the fluxes of every
    k <= min(48, n) are the first k columns of the largest, bitwise."""
    def refused(*args):
        raise AssertionError("equal widths left the closed form")

    monkeypatch.setattr(eigensolve, "_dense_top", refused)
    monkeypatch.setattr(eigensolve, "_inverse_modes", refused)
    h = np.diff(np.linspace(0.0, PI, n + 1))
    k = min(48, n)
    mu, v, flux, _ = _table_1d(h, k)
    t = np.arange(1, k + 1) * PI / n
    want = 12.0 * np.sin(t / 2) ** 2 / (h.mean() ** 2 * (2.0 + np.cos(t)))
    np.testing.assert_allclose(mu, want, rtol=2e-15, atol=0.0)
    modes = np.sin(np.outer(np.arange(n) + 0.5, t)) / np.sqrt(PI / 2)
    if k == n:
        modes[:, -1] /= np.sqrt(2.0)
    assert _first_max_positive(v)
    sign = np.sign(np.sum(v * modes, axis=0))
    assert np.all(np.abs(v - modes * sign) <= 1e-13 * np.abs(v).max(axis=0))
    for j in sorted({1, 2, 5, 16, k} & set(range(1, k + 1))):
        part = _table_1d(h, j)
        for got, full in zip(part[:3], (mu, v, flux)):
            want = np.ascontiguousarray(full[..., :j])
            assert got.tobytes() == want.tobytes()


# (x0, a) of the intervals [x0, x0 + a] whose linspace nodes give the
# equal widths of the closed-form oracle tests: spans pi, 1 and 7.3, and
# one origin away from 0
_EQUAL_SPANS = [(0.0, PI), (0.0, 1.0), (0.0, 7.3), (-3.1, 7.3)]


@pytest.mark.parametrize("n, k", [(8, 8), (16, 16), (64, 64), (129, 16),
                                  (512, 48), (2048, 48)])
def test_closed_form_against_dense_and_lanczos(n, k):
    """The closed form against the dense path (n <= 512) and the inverse
    iteration (n > 128), both forced onto equal widths, for spans pi, 1 and
    7.3 and a translated origin.  Against the inverse iteration, mu agrees
    to 1e-14 relative and v and the fluxes to 1e-11 of their largest entry
    (at most 3.1e-15, 4.5e-14 and 3.7e-12, measured; a row stopped at the
    roundoff bound without its last step missed the bound on the fluxes by
    up to 40x at n = 2048).  The dense path resolves theta = 1/mu
    to eps theta_1, so its own error in mode m grows like eps mu_m / mu_1
    (1.5e-13 relative at m = 64 of 64): against it both bounds are scaled
    by mu_m / mu_1 (at most 2.3e-15 and 3e-14 times it, measured)."""
    for x0, a in _EQUAL_SPANS:
        h = np.diff(np.linspace(x0, x0 + a, n + 1))
        got = _table_1d(h, k)
        ratio = got[0] / got[0][0]
        oracles = [(_dense(h, k), ratio)] if n <= 512 else []
        if n > _DENSE_MAX_CELLS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(eigensolve, "uniform_widths", lambda h, span: False)
                oracles.append((_table_1d(h, k), 1.0))
        assert oracles
        for want, scale in oracles:
            err = np.abs(got[0] - want[0])
            assert np.all(err <= 1e-14 * scale * want[0])
            sign = np.sign(np.sum(h[:, None] * got[1] * want[1], axis=0))
            for g, w in zip(got[1:3], want[1:3]):
                err = np.abs(g - w * sign)
                assert np.all(err <= 1e-11 * scale * np.abs(w).max(axis=0))


@pytest.mark.parametrize("n", [4096, 8192])
def test_closed_form_against_the_h_series(n):
    """On n equal widths h of [0, pi], mu_m - m^2 = m^4 h^2 / 12 + m^6 h^4 /
    360 - 17 m^8 h^6 / 60480 + O(h^8): the first 48 modes match the series
    to 6 eps mu (2.3 eps mu at most, measured; the O(h^8) term is below
    2e-16 mu here, and the meshed [0, fl(pi)] moves mu by 1.6e-16 mu)."""
    h = np.diff(np.linspace(0.0, PI, n + 1))
    mu = _table_1d(h, 48)[0]
    m = np.arange(1, 49, dtype=float)
    hh = PI / n
    series = (m**2 + m**4 * hh**2 / 12 + m**6 * hh**4 / 360
              - 17 * m**8 * hh**6 / 60480)
    assert np.all(np.abs(mu - series) <= 6 * np.finfo(float).eps * mu)


def _widths(kind, n, rng):
    """n cell widths of [0, pi]: equal, mirror-symmetric or random, the
    last two with width ratio <= 4, geometric (ratio 1e3), log-random
    (ratio up to 1e3) or graded (ratio up to 6.2e3), the last two in
    random order."""
    if kind == "uniform":
        w = np.ones(n)
    elif kind == "geometric":
        w = 1e3 ** (np.arange(n) / (n - 1))
    elif kind == "log-random":
        w = 1e3 ** rng.uniform(0.0, 1.0, n)
    elif kind == "graded":
        w = 6.2e3 ** rng.uniform(0.0, 1.0, n)
    else:
        w = rng.uniform(1.0, 4.0, n)
        if kind == "mirror":
            w[n - n // 2:] = w[: n // 2][::-1]
    return w * (PI / w.sum())


def _dense(h, k):
    """_modes_1d on its dense path whatever n is, also on equal widths:
    the oracle of the inverse iteration and of the closed form."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigensolve, "_DENSE_MAX_CELLS", len(h))
        mp.setattr(eigensolve, "uniform_widths", lambda h, span: False)
        return _table_1d(h, k)


def _first_max_positive(v):
    """Each column's first largest-magnitude entry is positive."""
    return np.all(v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])] > 0)


@pytest.mark.parametrize("kind", ["uniform", "mirror", "random"])
@pytest.mark.parametrize("n", [_DENSE_MAX_CELLS + 1, 200, 333, 600])
def test_lanczos_modes_against_dense_oracle(kind, n):
    """Above the cutoff the 1-D modes come from the inverse iteration, and
    from the closed form on equal widths; against the dense path on the
    same widths: mu to 1e-13 relative, v and the fluxes to 1e-10 of their
    largest entry, |D v|^2 and |A1 f|^2 to 1e-13 relative,
    and the residual sums |rho1|^2, |rho2|^2 and <D v, rho2> of both paths
    at roundoff size: |rho1| <= 1e-14 |A1 f| and |rho2| <= 1e-8 mu |D v|.
    Both paths obey the shared sign rule; they may only differ in sign
    where it ties mirror entries, on a mirror-symmetric mesh."""
    rng = np.random.default_rng(n)
    h = _widths(kind, n, rng)
    k = 16
    got, want = _table_1d(h, k), _dense(h, k)
    np.testing.assert_allclose(got[0], want[0], rtol=1e-13, atol=0.0)
    assert _first_max_positive(got[1]) and _first_max_positive(want[1])
    sign = np.sign(np.sum(h[:, None] * got[1] * want[1], axis=0))
    if kind == "random":
        assert np.all(sign > 0)
    for g, w in zip(got[1:3], want[1:3]):
        assert np.all(np.abs(g - w * sign) <= 1e-10 * np.abs(w).max(axis=0))
    mu = got[0]
    for dv, r1, af, r2, c in (got[3], want[3]):
        np.testing.assert_allclose(dv, want[3][0], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(af, want[3][2], rtol=1e-13, atol=0.0)
        assert np.all(np.sqrt(r1) <= 1e-14 * np.sqrt(af))
        assert np.all(np.sqrt(r2) <= 1e-8 * mu * np.sqrt(dv))
        assert np.all(np.abs(c) <= np.sqrt(dv * r2))


def _product_meshes():
    """Cell widths of [0, pi] for the K product tests: random (ratio <= 4)
    and graded (ratio up to 6.2e3) on 129 to 600 cells."""
    rng = np.random.default_rng(11)
    for n in (_DENSE_MAX_CELLS + 1, 256, 411, 600):
        yield _widths("random", n, rng)
        graded = 6.2e3 ** rng.uniform(0.0, 1.0, n)
        yield graded * (PI / graded.sum())


def test_k_product_against_the_allocating_oracle():
    """The product with K = D^1/2 S^-1 D^1/2 that the inverse iteration
    takes each pass, applied to the rows x1, x2, x1 at once, gives each row
    the bits of the allocating oracle on random and graded meshes of 129
    to 600 cells, so a row's bits do not depend on the rows beside it.  On
    the unit rows it forms the K whose eigendecomposition _dense_top
    takes, which rebuilds it to 1e-12 of K's largest entry (3.4e-14 at
    most, measured), and it matches D^1/2 S^-1 D^1/2 from dense inverses
    of A1 and S to 1e-10 of it (2.1e-11 at most, measured: the inverse of
    S loses digits on the graded widths)."""
    rng = np.random.default_rng(12)
    for h in _product_meshes():
        n = len(h)
        ops = _ops_1d(h)
        diag, off = ops[1][0], ops[2][0]
        x1, x2 = rng.standard_normal((2, n))
        got = eigensolve._k_rows(ops, np.array([x1, x2, x1]))
        for row, x in zip(got, (x1, x2, x1)):
            assert row.tobytes() == k_product(h, x).tobytes()
        theta, rows = (a[0] for a in eigensolve._dense_top(ops, n))
        dense = (rows.T * theta) @ rows
        cols = eigensolve._k_rows(ops, np.eye(n)).T
        assert np.abs(cols - dense).max() <= 1e-12 * np.abs(dense).max()
        g = np.diff(np.eye(n + 1), axis=0)  # G f = diff(f)
        a1 = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        d_sqrt = np.sqrt(h)
        oracle = (d_sqrt[:, None] * np.linalg.inv(g @ np.linalg.solve(a1, g.T))
                  * d_sqrt)
        assert np.abs(cols - oracle).max() <= 1e-10 * np.abs(oracle).max()


@pytest.mark.parametrize("n", [256, 2048])
def test_inverse_top_bits_of_the_allocating_product(n):
    """The block product with K (_k_rows) on the k modes that the inverse
    iteration returns gives the bits of the allocating oracle k_product,
    mode by mode, at k = 1, 6 and 16."""
    h = _widths("random", n, np.random.default_rng(n))
    ops = _ops_1d(h)
    for k in (1, 6, 16):
        rows = np.ascontiguousarray(
            eigensolve._inverse_modes(h[None], k, ops)[1][0])
        got = eigensolve._k_rows(ops, rows)
        for row, y in zip(got, rows):
            assert row.tobytes() == k_product(h, y).tobytes()


def test_flux_solve_bits_of_solveh_banded():
    """The 1-D fluxes, from LAPACK ptsv called directly, are the bits of
    scipy's solveh_banded on the same A1 and G^T v, and the five residual
    sums those of np.sum over each column alone, on the dense and the
    inverse-iteration path."""
    rng = np.random.default_rng(13)
    for h in [_widths("random", 40, rng), *_product_meshes()]:
        mu, v, flux, sums = _table_1d(h, 6)
        diag, off = eigensolve._a1_bands(h)
        gtv = -np.diff(v, axis=0, prepend=0.0, append=0.0)
        want = sla.solveh_banded(np.stack([np.r_[0.0, off], diag]), gtv)
        assert flux.tobytes() == want.tobytes()
        a1f, dv = eigensolve._a1_times(diag, off, flux.T).T, h[:, None] * v
        rho1, rho2 = a1f - gtv, np.diff(flux, axis=0) - mu * dv
        terms = ((dv, dv), (rho1, rho1), (a1f, a1f), (rho2, rho2), (dv, rho2))
        want = np.array([[np.sum(a[:, j] * b[:, j]) for j in range(6)]
                         for a, b in terms])
        assert sums.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["uniform", "dense", "inverse"])
def test_residual_norms_do_not_depend_on_k(kind):
    """The residual of each pair has the same bits for every k, on the
    closed-form, the dense and the inverse-iteration path: each of the
    five 1-D sums is taken along one contiguous row per mode, whose order
    does not depend on how many modes are solved."""
    rng = np.random.default_rng(17)
    n = {"uniform": 64, "dense": 40, "inverse": 256}[kind]
    nx, ny = ((np.linspace(0.0, PI, n + 1), np.linspace(0.0, 2.0, n // 2 + 1))
              if kind == "uniform" else
              (_nodes(rng.uniform(1.0, 4.0, m)) for m in (n, n + 3)))
    system = assemble_mixed(build_mesh(nx, ny))
    full = {p.mode: p.residual_norm
            for p in solve_mixed_eigs(system, SolveOptions(k=16))}
    for k in (1, 2, 5, 6, 12):
        pairs = solve_mixed_eigs(system, SolveOptions(k=k))
        assert [p.residual_norm for p in pairs] == \
            [full[p.mode] for p in pairs]


def _count_calls(monkeypatch, name):
    """Record, for each call of eigensolve's 1-D routine name on a stack
    of widths hs, the cell count and mode count k of each direction."""
    calls, real = [], getattr(eigensolve, name)

    def counted(hs, k, *args):
        calls.append([(len(h), k) for h in hs])
        return real(hs, k, *args)

    monkeypatch.setattr(eigensolve, name, counted)
    return calls


def test_modes_1d_dense_up_to_the_cutoff(monkeypatch):
    """Up to _DENSE_MAX_CELLS cells the 1-D modes come from the dense path
    alone (the committed a and c artifacts pin its bits); one cell more
    takes the inverse iteration, for k modes, whatever share of the cells
    k is."""
    calls = _count_calls(monkeypatch, "_inverse_modes")
    rng = np.random.default_rng(4)
    for n, k in ((_DENSE_MAX_CELLS, 16), (5, 5)):
        _table_1d(_widths("random", n, rng), k)
    assert calls == []
    for n, k in ((_DENSE_MAX_CELLS + 1, 6), (256, 48), (255, 49)):
        _table_1d(_widths("random", n, rng), k)
    assert calls == [[(_DENSE_MAX_CELLS + 1, 6)], [(256, 48)], [(255, 49)]]


def test_sine_start_saves_products(monkeypatch):
    """From the flux of the exact mode, cos(m pi x / a) at the nodes, the
    inverse iteration takes at most 2 LAPACK gtsv solves per mode on
    random and mirror-symmetric 256-cell meshes at k = 6 (7 to 9 for the
    6 modes, measured: one step each, and a last step where the bracket of
    _gap cannot show that the stopped row is already accurate), and no
    Sturm count beyond the certificate's one."""
    solves, counts = [], []
    real_gtsv, real_count = eigensolve.dgtsv, eigensolve._count_below

    def gtsv(*args):
        solves.append(len(args[1]))
        return real_gtsv(*args)

    def count(*args):
        counts.append(args[-1])
        return real_count(*args)

    monkeypatch.setattr(eigensolve, "dgtsv", gtsv)
    monkeypatch.setattr(eigensolve, "_count_below", count)
    for seed in range(5):
        rng = np.random.default_rng(15 + seed)
        for kind in ("random", "mirror"):
            _table_1d(_widths(kind, 256, rng), 6)
            assert solves and set(solves) == {257}
            assert len(solves) <= 2 * 6 and len(counts) == 1
            solves.clear()
            counts.clear()


@pytest.mark.parametrize("seed", [2, 5, 7, 10, 16])
def test_graded_mesh_modes_certified_by_the_count(monkeypatch, seed):
    """On 265 cells whose widths span a ratio up to 6.2e3, the 64 smallest
    modes come from the inverse iteration, whose start loses about half of
    them to a neighbour, and the bisection with the Sturm count finds each
    again, the lost modes iterated as one block (a sign-change count that
    skipped entries below 1e-10 of a mode's largest refused correct modes
    on each of these seeds); mu matches the dense path to 5e-12 relative
    (5.6e-13 at most over seeds 0 to 39, measured)."""
    rng = np.random.default_rng(seed)
    graded = 6.2e3 ** rng.uniform(0.0, 1.0, 265)
    h = graded * (PI / graded.sum())
    want = _dense(h, 64)[0]
    calls = _count_calls(monkeypatch, "_inverse_modes")
    rqi = []
    real = eigensolve._rqi

    def counted(st, di, ms, y, lo, hi):
        rqi.append(len(y))
        return real(st, di, ms, y, lo, hi)

    monkeypatch.setattr(eigensolve, "_rqi", counted)
    mu = _table_1d(h, 64)[0]
    assert calls == [[(265, 64)]]
    assert rqi[0] == 64 and 10 < rqi[1] < 64  # the lost modes as a block
    np.testing.assert_allclose(mu, want, rtol=5e-12, atol=0.0)


def test_count_below_against_the_dense_spectrum():
    """The Sturm count against the whole spectrum of the dense path, an
    independent eigh, on random (ratio <= 4) and graded (ratio up to
    6.2e3) meshes of 5 to 300 cells: 1 (the constant flux) below mu_1,
    i + 1 at the midpoint of mu_i and mu_i+1, and n + 1 above mu_n."""
    rng = np.random.default_rng(16)
    for n in (5, 6, 17, 64, 129, 300):
        graded = 6.2e3 ** rng.uniform(0.0, 1.0, n)
        for h in (_widths("random", n, rng), graded * (PI / graded.sum())):
            mu = _dense(h, n)[0]
            shifts = np.r_[mu[0] / 2.0, (mu[:-1] + mu[1:]) / 2.0, 2.0 * mu[-1]]
            g = np.r_[0.0, 1.0 / h, 0.0]  # T = G^T D^-1 G, then A1
            pencil = (g[:-1] + g[1:], -g[1:-1]), eigensolve._a1_bands(h)
            got = [eigensolve._count_below(pencil, s) for s in shifts]
            assert got == list(range(1, n + 2))


@pytest.mark.parametrize("kind", ["random", "mirror", "geometric", "graded"])
def test_inverse_modes_stop_at_the_roundoff_bound(kind):
    """Every mode that the inverse iteration returns, on 129 to 2048 cells
    at k = 3, 16 and 48, has |K y - theta y| <= tau theta_1, tau = _STOP_C
    eps n and theta_1 its largest theta: a row stops at that bound, and a
    last step leaves it at roundoff (below 0.019 eps n theta_1, measured
    over 129 to 8192 cells)."""
    rng = np.random.default_rng(29)
    for n in (_DENSE_MAX_CELLS + 1, 600, 2048):
        h = _widths(kind, n, rng)
        ops = _ops_1d(h)
        tau = eigensolve._STOP_C * np.finfo(float).eps * n
        for k in (3, 16, 48)[: 2 if n < 192 else 3]:
            theta, y = (a[0] for a in eigensolve._inverse_modes(h[None], k,
                                                                ops))
            r = eigensolve._k_rows(ops, y) - theta[:, None] * y
            assert np.all(np.sqrt(np.sum(r * r, axis=1)) <= tau * theta[0])


def _few_cell_widths():
    """Random and log-random widths of 2 to 16 cells on seeds 0-11 and
    768, and geometric widths, ascending and descending, of as many."""
    for seed in (*range(12), 768):
        rng = np.random.default_rng(seed)
        for n in range(2, 17):
            for kind in ("random", "log-random"):
                yield _widths(kind, n, rng)
    for n in range(2, 17):
        h = _widths("geometric", n, None)
        yield from (h, h[::-1].copy())


def test_inverse_modes_keep_every_mode_at_few_cells():
    """_inverse_modes, called directly on 2 to 16 cells at k = 1, min(4,
    n) and n (1 176 calls), loses no mode and agrees with the dense path
    to 1e-14 theta_1 (2.6e-15 at most over 75 768 such calls).  There tau
    = eps n / 8 lies below the roundoff floor of a converged row: without
    the floor _STOP_FLOOR = 2, 72 of these calls raise NotConverged, and
    at 1.75 seed 768's 5 log-random cells still lose mode 1."""
    calls = 0
    for h in _few_cell_widths():
        ops, n = _ops_1d(h), len(h)
        for k in sorted({1, min(4, n), n}):
            theta = eigensolve._inverse_modes(h[None], k, ops)[0][0]
            dense = eigensolve._dense_top(ops, k)[0][0]
            assert np.abs(theta - dense).max() <= 1e-14 * dense[0], (n, k)
            calls += 1
    assert calls == 1176


@pytest.mark.parametrize("kind", ["random", "mirror", "geometric", "graded"])
def test_inverse_path_solves_every_width_family(monkeypatch, kind):
    """Random and mirror-symmetric (ratio <= 4), geometric (ratio 1e3) and
    graded (ratio up to 6.2e3) widths of 129 to 8192 cells solve on the
    inverse path at k = 3, 16 and 48: no converged row stays above the
    stop bound, which grows with n.  The modes ascend and lie in the
    bracket of _gap."""
    calls = _count_calls(monkeypatch, "_inverse_modes")
    rng = np.random.default_rng(31)
    for n in (_DENSE_MAX_CELLS + 1, 1000, 8192):
        h = _widths(kind, n, rng)
        q = h.max() / PI
        for k in (3, 16, 48)[: 2 if n < 192 else 3]:
            mu = _table_1d(h, k)[0]
            m = np.arange(1, k + 1)
            assert np.all(np.diff(mu) > 0) and np.all(mu >= m**2)
            fine = m * q < 1.0
            assert np.all(mu[fine] <= m[fine]**2 / (1.0 - (m[fine] * q)**2)**2)
    assert len(calls) == 8


def test_gap_bounds_the_distance_to_the_other_modes():
    """The bracket behind _gap, (m pi / a)^2 <= mu_m <= (m pi / a)^2 /
    (1 - (m q)^2)^2 where m q < 1, q = h_max / a, against the whole
    spectrum of the dense path on random (ratio <= 4) and graded (ratio up
    to 6.2e3) widths of 5 to 300 cells, spans pi and 7.3: at theta = 1/mu_m
    _gap is at most the distance to the nearest other 1/mu_j (to 0 for the
    last), and it is positive for the lowest modes of the random widths."""
    rng = np.random.default_rng(37)
    for n in (5, 17, 64, 129, 300):
        for kind in ("random", "graded"):
            for span in (PI, 7.3):
                h = _widths(kind, n, rng) * (span / PI)
                theta = 1.0 / _dense(h, n)[0]
                q = h.max() / span
                gaps = [eigensolve._gap(span, q, m, t)
                        for m, t in enumerate(theta.tolist(), 1)]
                near = np.minimum(np.r_[np.inf, -np.diff(theta)],
                                  np.r_[-np.diff(theta), theta[-1]])
                assert np.all(np.array(gaps) <= near)
                if kind == "random" and n >= 64:
                    assert min(gaps[:3]) > 0.0


def test_lost_mode_raises_not_converged(monkeypatch):
    """A mode that the inverse iteration and its bisection cannot find
    (here a Sturm count that reads one eigenvalue too many everywhere, so
    that no bracket ever holds mode 1 alone) raises NotConverged naming
    the stage, the cell count and the mode, after one call of the path."""
    calls = _count_calls(monkeypatch, "_inverse_modes")
    real = eigensolve._count_below
    monkeypatch.setattr(eigensolve, "_count_below",
                        lambda *args: real(*args) + 1)
    h = _widths("mirror", 256, np.random.default_rng(6))
    with pytest.raises(NotConverged, match="1-D inverse iteration on 256 "
                       "cells: mode 1 lost in "):
        _table_1d(h, 6)
    assert calls == [[(256, 6)]]


@pytest.mark.parametrize("seed", [93, 114, 159, 195])
def test_graded_rows_on_one_mode_refused(seed):
    """On 129 graded cells (ratio up to 6.2e3) at k = 16, the starts of
    modes 14 and 15 both converge to mu_14, their quotients rising by 1e-14
    to 1e-13 relative, while row 16 holds mu_16, so a count above it reads
    17.  The certificate refuses the pair (its quotients do not rise by the
    lift): mu_15 is found again and mu matches the dense path to 5e-12
    relative, where a certificate asking only a strict rise returned mu_14
    twice."""
    rng = np.random.default_rng(seed)
    graded = 6.2e3 ** rng.uniform(0.0, 1.0, 129)
    h = graded * (PI / graded.sum())
    np.testing.assert_allclose(_table_1d(h, 16)[0], _dense(h, 16)[0],
                               rtol=5e-12, atol=0.0)


def test_duplicated_mode_refused_by_the_certificate(monkeypatch):
    """Two rows of the block iteration that converge to one eigenvector
    have quotients that differ by roundoff, and may rise: here row 3
    repeats row 2 with its quotient mu one ulp up (theta = 1/mu one ulp
    down), while row 6 still holds mu_6, so one Sturm count above it reads
    7.  The certificate asks the quotients to rise by its lift, so the
    duplicate goes to the bisection, which finds mu_3 again, and mu
    matches the dense path."""
    h = _widths("random", 256, np.random.default_rng(19))
    want = _dense(h, 6)[0]
    rqi, real = [], eigensolve._rqi

    def duplicating(st, di, ms, y, lo, hi):
        y, theta, done = real(st, di, ms, y, lo, hi)
        if not rqi:
            y[2], theta[2] = y[1], np.nextafter(theta[1], 0.0)
        rqi.append(len(y))
        return y, theta, done

    monkeypatch.setattr(eigensolve, "_rqi", duplicating)
    mu = _table_1d(h, 6)[0]
    assert rqi == [6, 1]
    np.testing.assert_allclose(mu, want, rtol=5e-12, atol=0.0)


@pytest.mark.parametrize("failure", ["maxiter", "singular_pivot"])
def test_inverse_iteration_failure_is_not_converged(monkeypatch, failure):
    """The inverse iteration's own failures leave the solve as NotConverged
    naming the stage and the cell count, with no raw exception: no
    iterate converges (here no solve is allowed, the id "maxiter"), so
    every mode is lost, or LAPACK gtsv reports a singular pivot also at
    the moved shift (the id "singular_pivot")."""
    if failure == "maxiter":
        monkeypatch.setattr(eigensolve, "_MAX_SOLVES", 0)
        want = "1-D inverse iteration on 200 cells: mode 1 lost"
    else:
        monkeypatch.setattr(eigensolve, "dgtsv",
                            lambda dl, d, du, b: (dl, d, du, b, len(d)))
        want = "1-D inverse iteration on 200 cells: T - s A1 is singular"
    rng = np.random.default_rng(17)
    system = assemble_mixed(build_mesh(np.linspace(0, PI, 5),
                                       _nodes(rng.uniform(1.0, 4.0, 200))))
    with pytest.raises(NotConverged, match=want) as info:
        solve_mixed_eigs(system, SolveOptions(k=6))
    assert info.value.__cause__ is None and info.value.__context__ is None


def test_dense_path_on_a_nonfinite_k_is_not_converged():
    """On preset c's widths scaled to side 1e160, K's entries (about the
    side squared) overflow: the dense path raises NotConverged naming the
    stage and the cell count, not numpy's LinAlgError from eigh.
    (solve_mixed_eigs refuses such a side before any 1-D solve; see
    test_side_outside_the_normal_range_refused.)"""
    nodes = np.array([0.0, 1 / 4, 1 / 2, 2 / 3, 5 / 6, 1.0]) * 1e160
    with pytest.raises(NotConverged, match="1-D dense solve on 5 cells: K "
                       "is not finite") as info:
        with np.errstate(over="ignore"):  # numpy's own overflow warning
            _table_1d(np.diff(nodes), 3)
    assert info.value.__cause__ is None and info.value.__context__ is None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("side", [1e-300, 1e-160, 1e160, 1e180, 1e200,
                                  1e300])
def test_side_outside_the_normal_range_refused(monkeypatch, side):
    """A mesh with a side s where (pi / s)^2 or its inverse, the scale of
    the 1-D modes' quotients theta = 1/mu, is not a normal float is
    refused with InvalidConfig before any 1-D solve, with no warning, also
    when only the y side is out: on a uniform 8 x 8 mesh the sides 1e180
    to 1e300 raised a bare ValueError from _reach, and 1e-300, 1e-160 and
    1e160 warned of overflow, then raised NotConverged on a NaN residual.
    The sides 1e-100 and 1e150 still solve, lambda s^2 as at side 1."""
    def refused(*args):
        raise AssertionError("a 1-D solve ran")

    unit = np.linspace(0.0, 1.0, 9)
    want = solve_mixed_eigs(assemble_mixed(build_mesh(unit, unit)),
                            SolveOptions(k=6)).lambdas
    for ok in (1e-100, 1e150):
        system = assemble_mixed(build_mesh(unit * ok, unit * ok))
        got = solve_mixed_eigs(system, SolveOptions(k=6)).lambdas
        np.testing.assert_allclose(got * ok**2, want, rtol=1e-12)
    monkeypatch.setattr(eigensolve, "_modes_1d", refused)
    for nx in (unit * side, unit):
        system = assemble_mixed(build_mesh(nx, unit * side))
        match = re.escape(f"side {side:.6g}:")
        with pytest.raises(InvalidConfig, match=match):
            solve_mixed_eigs(system, SolveOptions(k=6))


def _on_one_and_two_blas_threads(script, tmp_path):
    """The stdout of ``script`` in a child process under one and under two
    BLAS threads; the thread count is read when BLAS loads."""
    src = str(Path(eigensolve.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out.append(subprocess.run([sys.executable, "-c", script], env=env,
                                  check=True, capture_output=True, text=True,
                                  timeout=300, cwd=tmp_path).stdout)
    return out


def test_inverse_modes_bits_on_one_and_two_blas_threads(tmp_path):
    """_modes_1d on random widths of more than 128 cells, whose modes come
    from the inverse iteration, writes the same bytes under one and two
    BLAS threads, each in a child process: 256 cells at k = 6 and 16, 150
    cells at k = 16 and 40, and 255 cells at k = 49.  The last two once
    took the dense path, as a direction that needed more modes than about
    a quarter of its cells, and its bytes differed under two threads.  A
    table of k columns is the prefix of one of more columns on the same
    widths: 6 of 16 and 16 of 40, bit for bit."""
    cases = ((21, 256, (6, 16)), (22, 150, (16, 40)), (23, 255, (49,)))
    out = _on_one_and_two_blas_threads(
        "import sys, numpy as np\n"
        "from rrteig.eigensolve import _modes_1d\n"
        f"for seed, n, ks in {cases!r}:\n"
        "    w = np.random.default_rng(seed).uniform(1.0, 4.0, n)\n"
        "    h = w * (np.pi / w.sum())\n"
        "    for k in ks:\n"
        "        for a in _modes_1d([h], k)[0]:\n"
        "            a = np.ascontiguousarray(a)\n"
        "            sys.stdout.write(a.tobytes().hex())\n"
        "        sys.stdout.write('\\n')\n", tmp_path)
    assert out[0] == out[1]
    lines = iter(out[0].split())
    for seed, n, ks in cases:
        w = np.random.default_rng(seed).uniform(1.0, 4.0, n)
        mu, v, flux, sums = _table_1d(w * (PI / w.sum()), ks[-1])
        for k in ks:  # the first k columns of the largest table
            got = (mu[:k], v[:, :k], flux[:, :k], sums[:, :k])
            assert next(lines) == "".join(
                np.ascontiguousarray(a).tobytes().hex() for a in got)


@pytest.mark.parametrize("seed", [2, 3])
def test_solve_bits_on_one_and_two_blas_threads(seed, tmp_path):
    """solve_mixed_eigs on a random 255^2 mesh (widths ratio <= 4) at
    k = 49 writes the same bytes under one and two BLAS threads, each in
    a child process: each direction solves the 9 modes that the 49
    smallest sums can use, by the inverse iteration.  With 49 modes per
    direction it took the dense path, whose bits differed on these
    seeds."""
    out = _on_one_and_two_blas_threads(
        "import sys, numpy as np\n"
        "from rrteig.assembly import assemble_mixed\n"
        "from rrteig.eigensolve import SolveOptions, solve_mixed_eigs\n"
        "from rrteig.mesh import build_mesh\n"
        f"rng = np.random.default_rng({seed})\n"
        "nodes = []\n"
        "for axis in 'xy':\n"
        "    w = rng.uniform(1.0, 4.0, 255)\n"
        "    x = np.concatenate([[0.0], np.cumsum(w)]) * (np.pi / w.sum())\n"
        "    x[-1] = np.pi\n"
        "    nodes.append(x)\n"
        "s = solve_mixed_eigs(assemble_mixed(build_mesh(*nodes)),\n"
        "                     SolveOptions(k=49))\n"
        "assert s.x[1].shape == s.y[1].shape == (255, 9)\n"
        "for a in (*s.x, *s.y, s.lambdas, s.ii, s.jj, s.residuals):\n"
        "    sys.stdout.write(a.tobytes().hex())\n"
        "sys.stdout.write(repr(s.modes))\n", tmp_path)
    assert out[0] == out[1]


def test_dense_path_bits_on_one_and_two_blas_threads(tmp_path):
    """Preset c's sweep, whose nonuniform directions take the dense eigh
    of _dense_top, writes the same report bytes under one and two BLAS
    threads, each in a child process, and so does _modes_1d at k = 16 on
    random widths of 100 and 128 cells, the dense path's largest."""
    out = _on_one_and_two_blas_threads(
        "import sys, numpy as np\n"
        "from rrteig.cli import _report_json, case_preset, run_case\n"
        "from rrteig.eigensolve import _modes_1d\n"
        "sys.stdout.write(_report_json(vars(run_case(case_preset('c')))))\n"
        "for n in (100, 128):\n"
        "    w = np.random.default_rng(n).uniform(1.0, 4.0, n)\n"
        "    for a in _modes_1d([w * (np.pi / w.sum())], 16)[0]:\n"
        "        sys.stdout.write(a.tobytes().hex())\n", tmp_path)
    assert out[0] == out[1]


def _assert_full_table_bits(spectrum, mesh, k):
    """The Spectrum holds the k pairs of the tables of min(k, n) modes
    (full_table_pairs), bit for bit: eigenvalues, columns, residuals,
    labels and each built pair's four factors."""
    x, y, lams, ii, jj, residuals, modes = full_table_pairs(
        mesh, k, _modes_1d, eigensolve._residuals)
    for a, b in zip((spectrum.lambdas, spectrum.ii, spectrum.jj,
                     spectrum.residuals), (lams, ii, jj, residuals)):
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())
    assert spectrum.modes == tuple(modes)
    for pair, i, j in zip(spectrum, ii, jj):
        assert [f.tobytes() for f in (pair.v, pair.flux_x, pair.w, pair.flux_y)
                ] == [t[c][:, m].tobytes() for t, m in ((x, i), (y, j))
                      for c in (1, 2)]


@st.composite
def _growth_meshes(draw):
    """Random tensor meshes of [0, a] x [0, b], a / b from 1/20 to 20:
    1 to 40 cells per direction, or in a fifth of the draws 129 to 300,
    the widths equal or drawn from [1, 4]."""
    nodes = []
    for axis in "xy":
        n = draw(st.integers(129, 300) if draw(st.integers(0, 4)) == 0
                 else st.integers(1, 40), label=f"n_{axis}")
        seed = draw(st.integers(0, 2**32 - 1), label=f"widths {axis}")
        widths = (np.ones(n) if draw(st.booleans(), label=f"equal {axis}")
                  else np.random.default_rng(seed).uniform(1.0, 4.0, n))
        span = np.exp(draw(st.floats(-np.log(20.0), np.log(20.0)),
                           label=f"log span {axis}") / 2.0)
        nodes.append(np.concatenate([[0.0], np.cumsum(widths)])
                     * (span / widths.sum()))
    return build_mesh(*nodes)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mesh=_growth_meshes(), data=st.data())
def test_data_sized_tables_against_full_tables(mesh, data):
    """The k smallest pairs over tables sized from the data, k from 1 to
    60, are those over tables of min(k, n) modes, bit for bit: the widths
    alone choose a direction's 1-D path, so both sizes take the same."""
    k = data.draw(st.integers(1, min(mesh.n_cells, 60)), label="k")
    spectrum = solve_mixed_eigs(assemble_mixed(mesh), SolveOptions(k=k))
    _assert_full_table_bits(spectrum, mesh, k)


@pytest.mark.parametrize("nodes, k, calls", [
    # side ratio 10: the x direction needs 20 modes, more than sqrt(2k),
    # and takes them in one step (doubling solved 6 + 12 + 20 x modes)
    ((np.linspace(0.0, 10.0, 41), np.linspace(0.0, 1.0, 9)), 20,
     [[(40, 6)], [(8, 6)], [(40, 20)]]),
    # 2 x cells < sqrt(2k): fewer than k sums, so the y direction takes
    # min(n, k) modes at once (doubling solved 7 + 14 + 28)
    ((np.linspace(0.0, PI, 3), _nodes(np.arange(1.0, 31.0) % 4 + 1.0)), 30,
     [[(2, 2)], [(30, 7)], [(30, 30)]]),
    # k = 2 cuts the tie (1, 2) / (2, 1): 2 modes, one table for both
    ((np.linspace(0.0, PI, 9), np.linspace(0.0, PI, 9)), 2, [[(8, 2)]]),
    # two 30-cell directions, their nodes an ulp apart: one stack of both
    ((_nodes(np.arange(1.0, 31.0) % 4 + 1.0),
      np.nextafter(_nodes(np.arange(1.0, 31.0) % 4 + 1.0), 0.0)), 30,
     [[(30, 7), (30, 7)]]),
])
def test_tables_grow_while_a_mode_could_enter(monkeypatch, nodes, k, calls):
    """A direction starts from min(n, k, isqrt(2k)) modes and, while its
    next mode, at least (m pi / s)^2, could still enter the k smallest
    sums, grows at once to the most modes that could, up to min(n, k); the
    directions of one cell count that need fresh tables of one column
    count are solved in one _modes_1d call; the pairs are those of tables
    of min(k, n) modes, bit for bit."""
    solved = []
    modes_1d = eigensolve._modes_1d

    def counted(hs, k):
        solved.append([(len(h), k) for h in hs])
        return modes_1d(hs, k)

    monkeypatch.setattr(eigensolve, "_modes_1d", counted)
    mesh = build_mesh(*nodes)
    spectrum = solve_mixed_eigs(assemble_mixed(mesh), SolveOptions(k=k))
    assert solved == calls
    monkeypatch.undo()
    _assert_full_table_bits(spectrum, mesh, k)
    if k == 2:
        assert spectrum.modes == ((1, 1), (2, 1))
