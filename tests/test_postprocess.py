"""Postprocessing: polynomial reproduction, of the per-cell oracle and of
the library's 1-D interpolant, locality, boundedness, input checks;
supercloseness norm plumbing; the refusal of an exact field whose domain
is not the mesh's."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rrteig.analysis import expansion_term
from rrteig.assembly import assemble_mixed
from rrteig.eigensolve import SolveOptions, solve_mixed_eigs
from rrteig.errors import (DegenerateFactor, LayoutMismatch,
                           OddMeshDimensions, RRTError)
from rrteig.exact import FieldSample
from rrteig.mesh import build_mesh, uniform_mesh
from rrteig.postprocess import (
    _gauss_table,
    _interpolant,
    postprocessing_norms,
    supercloseness_norms,
)

from oracles import (
    eval_cell,
    factor_pair,
    l2_project_exact,
    reconstruction,
    rt_interpolate_exact,
    sigma_coeffs,
    supercloseness_norms_2d,
    u_coeffs,
)

PI = np.pi


def _nonuniform_even_mesh():
    return build_mesh([0.0, 0.5, 0.9, 1.6, 2.0], [0.0, 0.4, 1.0, 1.3, 2.1])


def _mids(nodes):
    return (nodes[:-1] + nodes[1:]) / 2


def _cell_points(mesh, rng, i, j, n=3):
    return (rng.uniform(mesh.node_x[i], mesh.node_x[i + 1], n),
            rng.uniform(mesh.node_y[j], mesh.node_y[j + 1], n))


def test_q11_reproduction_sigma():
    """Rank-one bilinear flux data, sx = (0.3 - 0.7 x)(1.1 + 0.5 y) and
    sy = (-1.0 + 0.2 x)(0.9 - 0.8 y), every monomial coefficient nonzero,
    is reconstructed exactly (to 1e-13); the sign and size of each
    product are split between its factors, -1.5 on the x factors and
    1 / -1.5 on the y factors."""
    mesh = _nonuniform_even_mesh()
    nx, ny = mesh.node_x, mesh.node_y
    c = -1.5

    def fx(x, y):
        return (0.3 - 0.7 * x) * (1.1 + 0.5 * y)

    def fy(x, y):
        return (-1.0 + 0.2 * x) * (0.9 - 0.8 * y)

    # edge means of a field linear along the edge are midpoint values
    pair = factor_pair(v=c * (-1.0 + 0.2 * _mids(nx)),
                       w=(1.1 + 0.5 * _mids(ny)) / c,
                       flux_x=c * (0.3 - 0.7 * nx),
                       flux_y=(0.9 - 0.8 * ny) / c)
    field = reconstruction(mesh, pair, "sigma")
    rng = np.random.default_rng(2)
    for _ in range(20):
        i = int(rng.integers(0, mesh.n1))
        j = int(rng.integers(0, mesh.n2))
        x, y = _cell_points(mesh, rng, i, j)
        sx, sy = eval_cell(field, i, j, x, y)
        np.testing.assert_allclose(sx, fx(x, y), atol=1e-13)
        np.testing.assert_allclose(sy, fy(x, y), atol=1e-13)


def test_q11_reproduction_u():
    """u = (2.0 + 0.3 x)(-0.6 + 0.9 y), every monomial coefficient
    nonzero, from its cell means, which are its centroid values."""
    mesh = _nonuniform_even_mesh()

    def f(x, y):
        return (2.0 + 0.3 * x) * (-0.6 + 0.9 * y)

    nx, ny = mesh.node_x, mesh.node_y
    pair = factor_pair(v=2.0 + 0.3 * _mids(nx), w=-0.6 + 0.9 * _mids(ny),
                       flux_x=np.zeros(mesh.n1 + 1),
                       flux_y=np.zeros(mesh.n2 + 1))
    field = reconstruction(mesh, pair, "u")
    rng = np.random.default_rng(3)
    for _ in range(20):
        i = int(rng.integers(0, mesh.n1))
        j = int(rng.integers(0, mesh.n2))
        x, y = _cell_points(mesh, rng, i, j)
        np.testing.assert_allclose(eval_cell(field, i, j, x, y), f(x, y),
                                   atol=1e-13)


@st.composite
def _even_nodes(draw):
    """n + 1 nodes, n even in [2, 16], of [x0, x0 + length] with cell
    widths from [1, 4] (width ratio <= 4)."""
    n = 2 * draw(st.integers(1, 8), label="n / 2")
    widths = draw(st.lists(st.floats(1.0, 4.0), min_size=n, max_size=n))
    x0 = draw(st.floats(-2.0, 2.0), label="x0")
    length = draw(st.floats(0.5, 4.0), label="length")
    cum = np.concatenate([[0.0], np.cumsum(widths)])
    return x0 + length * cum / cum[-1]


_COEF = st.floats(-2.0, -0.5) | st.floats(0.5, 2.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(nodes=_even_nodes(), a=_COEF, b=_COEF, c=_COEF)
@example(nodes=np.array([0.0, 0.3, 1.0]), a=0.7, b=-1.3, c=2.1)
def test_interpolant_reproduces_quadratic_and_linear(nodes, a, b, c):
    """At every cell's Gauss points the macro-element interpolant of a
    global quadratic's node values, and of a global linear's cell-midpoint
    values, is that polynomial, values and derivatives to 1e-13 relative
    to the largest; coefficients of size [0.5, 2], either sign."""
    pts, _ = _gauss_table(nodes)
    for at, f, df in (
        (nodes, lambda x: a + x * (b + c * x), lambda x: b + 2.0 * c * x),
        (_mids(nodes), lambda x: a + b * x, lambda x: np.full_like(x, b)),
    ):
        got = _interpolant(nodes, f(at), pts)
        for deriv, want in ((0, f(pts)), (1, df(pts))):
            assert (np.max(np.abs(got[deriv] - want))
                    <= 1e-13 * np.max(np.abs(want)))


def test_locality():
    """Perturbing one factor value changes the reconstruction only in the
    macro-elements whose window holds it: flux_x[1], an x-line inside macro
    column 0, moves sx there alone; w[0], a row midpoint of macro row 0,
    moves sx and u there alone; sy moves in neither case."""
    mesh = uniform_mesh(0.0, 1.0, 4, 0.0, 1.0, 4)
    rng = np.random.default_rng(4)
    base = factor_pair(*(rng.standard_normal(n) for n in (4, 4, 5, 5)))
    cells = [(i, j) for i in range(4) for j in range(4)]
    points = {c: _cell_points(mesh, rng, *c, n=2) for c in cells}

    def moved(kind, bumped, i, j):
        """Per component: does the bump change it on cell (i, j)?"""
        before, after = (np.atleast_2d(eval_cell(
            reconstruction(mesh, p, kind), i, j, *points[i, j]))
            for p in (base, bumped))
        return [not np.array_equal(b, a) for b, a in zip(before, after)]

    bump_x = dataclasses.replace(base, flux_x=base.flux_x + np.eye(5)[1])
    bump_w = dataclasses.replace(base, w=base.w + np.eye(4)[0])
    for i, j in cells:
        assert moved("sigma", bump_x, i, j) == [i < 2, False]
        assert moved("sigma", bump_w, i, j) == [j < 2, False]
        assert moved("u", bump_w, i, j) == [j < 2]


def test_boundedness():
    """Reconstruction values are bounded by a fixed multiple of the
    largest product of a component's factor values."""
    mesh = _nonuniform_even_mesh()
    rng = np.random.default_rng(5)
    pair = factor_pair(*(rng.standard_normal(n) for n in (4, 4, 5, 5)),
                       scale=0.7)
    fs = reconstruction(mesh, pair, "sigma")
    fu = reconstruction(mesh, pair, "u")
    worst = 0.0
    for j in range(mesh.n2):
        y = np.linspace(mesh.node_y[j], mesh.node_y[j + 1], 5)
        for i in range(mesh.n1):
            x = np.linspace(mesh.node_x[i], mesh.node_x[i + 1], 5)
            xg, yg = np.meshgrid(x, y)
            sx, sy = eval_cell(fs, i, j, xg, yg)
            uu = eval_cell(fu, i, j, xg, yg)
            worst = max(worst, np.abs(sx).max(), np.abs(sy).max(),
                        np.abs(uu).max())
    bound = 10.0 * max(np.abs(xv).max() * np.abs(yv).max()
                       for xv, yv in fs.components + fu.components)
    assert worst <= bound


def test_odd_mesh_rejected():
    mesh = uniform_mesh(0.0, 1.0, 3, 0.0, 1.0, 4)
    pair = factor_pair(np.zeros(3), np.zeros(4), np.zeros(4), np.zeros(5))
    with pytest.raises(OddMeshDimensions):
        postprocessing_norms(mesh, pair, FieldSample(1, 1))


def test_length_mismatch():
    """Each factor the reconstructions read must fit the mesh: v n1, w n2,
    flux_x n1 + 1 and flux_y n2 + 1 values."""
    mesh = uniform_mesh(0.0, 1.0, 4, 0.0, 1.0, 4)
    fld = FieldSample(1, 1, (1.0, 1.0))
    fits = factor_pair(np.zeros(4), np.zeros(4), np.zeros(5), np.zeros(5))
    postprocessing_norms(mesh, fits, fld)
    for name in ("v", "w", "flux_x", "flux_y"):
        short = dataclasses.replace(fits, **{name: np.zeros(3)})
        with pytest.raises(LayoutMismatch):
            postprocessing_norms(mesh, short, fld)


def test_supercloseness_refuses_an_all_zero_factor():
    """A pair whose v or w is all zeros has no divergence split: its
    projection mu = <v, gx> / <v, v> divides 0 by 0.  supercloseness_norms
    raises DegenerateFactor naming the factor, where it returned a NaN
    norm_div (or raised numpy's RuntimeWarning); postprocessing_norms,
    which divides by no factor norm, still measures such a pair."""
    mesh = uniform_mesh(0.0, 1.0, 4, 0.0, 1.0, 4)
    fld = FieldSample(1, 1, (1.0, 1.0))
    ones = factor_pair(np.ones(4), np.ones(4), np.ones(5), np.ones(5))
    for name in ("v", "w"):
        zero = dataclasses.replace(ones, **{name: np.zeros(4)})
        with pytest.raises(DegenerateFactor, match=f"{name} factor 0 is"):
            supercloseness_norms(mesh, zero, fld)
        assert all(np.isfinite(list(
            postprocessing_norms(mesh, zero, fld).values())))


def test_error_norm_exact_field_small():
    """Postprocessed exact interpolants are close to the exact field.  The
    interpolants of mode (1, 1) are rank one: their factors are the 1-D
    cell means of the two sines and the flux amp kx cos(kx x), ky cos(ky y)
    on the node lines, checked here against the 2-D interpolants of the
    oracles."""
    mesh = uniform_mesh(0.0, PI, 8, 0.0, PI, 8)
    fld = FieldSample(1, 1)
    nx, ny = mesh.node_x, mesh.node_y
    kx, ky, amp = fld.kx, fld.ky, fld.amp
    pair = factor_pair(
        v=amp * (np.cos(kx * nx[:-1]) - np.cos(kx * nx[1:])) / kx / mesh.hx,
        w=(np.cos(ky * ny[:-1]) - np.cos(ky * ny[1:])) / ky / mesh.hy,
        flux_x=-amp * kx * np.cos(kx * nx), flux_y=-ky * np.cos(ky * ny))
    np.testing.assert_allclose(u_coeffs(pair), l2_project_exact(mesh, fld),
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(sigma_coeffs(pair),
                               rt_interpolate_exact(mesh, fld),
                               rtol=0, atol=1e-14)
    norms = postprocessing_norms(mesh, pair, fld)
    # h^2-superconvergent ballpark at h = pi/8
    assert norms["sigma_l2"] < 0.1
    assert norms["u_l2"] < 0.05
    assert norms["u_h1"] < 0.5


def test_supercloseness_norms_plumbing(system_a0, pairs_a0):
    """The 1-D norms against dense algebra on the 2-D vectors; a factor
    whose length does not fit the mesh raises LayoutMismatch, as does a
    2-D vector of the wrong length in the oracle."""
    fld = FieldSample(1, 1)
    mesh = system_a0.mesh
    sigma_i = rt_interpolate_exact(mesh, fld)
    pi0 = l2_project_exact(mesh, fld)
    rep = supercloseness_norms(mesh, pairs_a0[0], fld)
    d = sigma_i - sigma_coeffs(pairs_a0[0])
    want = float(np.sqrt(d @ (system_a0.A.toarray() @ d)))
    assert set(rep) == {"norm_sigma", "norm_div", "norm_u"}
    assert rep["norm_sigma"] == pytest.approx(want, rel=1e-12)
    assert rep["norm_u"] > 0 and rep["norm_div"] > 0
    short = dataclasses.replace(pairs_a0[0], flux_x=pairs_a0[0].flux_x[:-1])
    with pytest.raises(LayoutMismatch):
        supercloseness_norms(mesh, short, fld)
    with pytest.raises(LayoutMismatch):
        supercloseness_norms_2d(system_a0, pairs_a0[0], sigma_i[:-1], pi0)


_MISFITS = {
    "2x1": (np.linspace(0.0, 2.0, 9), np.linspace(0.0, 1.0, 9)),
    "x0=5": (np.linspace(5.0, 5.0 + PI, 9), np.linspace(0.0, PI, 9)),
    "b=pi(1+1e-11)": (np.linspace(0.0, PI, 9),
                      np.linspace(0.0, PI * (1.0 + 1e-11), 9)),
}


@pytest.mark.parametrize("name", sorted(_MISFITS))
def test_field_on_another_domain_refused(name):
    """supercloseness_norms, postprocessing_norms and expansion_term refuse
    the default field of [0, pi]^2 on a mesh of another domain, 2 x 1,
    shifted to x0 = 5 or 1e-11 too tall, with LayoutMismatch, an RRTError,
    instead of evaluating it at the wrong coordinates."""
    mesh = build_mesh(*_MISFITS[name])
    (pair,) = solve_mixed_eigs(assemble_mixed(mesh), SolveOptions(k=1))
    fld = FieldSample(1, 1)
    for analysis in (supercloseness_norms, postprocessing_norms):
        with pytest.raises(LayoutMismatch, match="does not fit the mesh"):
            analysis(mesh, pair, fld)
    with pytest.raises(LayoutMismatch, match="does not fit the mesh"):
        expansion_term(mesh, [fld])
    assert issubclass(LayoutMismatch, RRTError)


def test_field_on_its_own_domain_measured():
    """On [0, 2] x [0, 1] the field of that domain is measured (norm_u
    near 0.013, where the default [0, pi]^2 field read 0.78), and so is a
    field whose domain is 1e-13 relative off the mesh's."""
    mesh = build_mesh(*_MISFITS["2x1"])
    (pair,) = solve_mixed_eigs(assemble_mixed(mesh), SolveOptions(k=1))
    for domain in ((2.0, 1.0), (2.0, 1.0 + 1e-13)):
        fld = FieldSample(1, 1, domain)
        assert 0.01 < supercloseness_norms(mesh, pair, fld)["norm_u"] < 0.02
        assert postprocessing_norms(mesh, pair, fld)["u_l2"] > 0.0
        assert expansion_term(mesh, [fld])[0] > 0.0
