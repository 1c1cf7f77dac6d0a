"""Whole-mesh kernels against their per-cell oracles on random tensor
meshes: postprocessed error norms of random and of solved pairs
(oracles.eval_cell and oracles.exact_derivative, 5x5 Gauss per fine
cell), cell means
(oracles.cell_integral_u), edge-flux means (oracles.mean_flux_x /
mean_flux_y), the h^2 expansion term (Gauss quadrature of kx^2 u_x^2
and ky^2 u_y^2 per cell, and to roundoff the 2-D strip integrals of
oracles.expansion_term_per_mode, each field of a list with the bits of
a one-field call); the stacked
supercloseness and postprocessing norms bit for bit against the same
formulas one distance at a time (oracles.supercloseness_norms_per_term,
oracles.postprocessing_norms_per_term); and 1-D kernels against their
2-D oracles: the supercloseness norms (oracles.supercloseness_norms_2d,
with the assembled A, B and M) and the regularity constant (every width
pair)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rrteig.analysis import expansion_term
from rrteig.assembly import assemble_mixed
from rrteig.cli import case_preset
from rrteig.eigensolve import SolveOptions, solve_mixed_eigs
from rrteig.errors import LayoutMismatch
from rrteig.exact import FieldSample, cell_mean_factors, enumerate_exact
from rrteig.mesh import (
    build_mesh,
    regularity_constant,
    uniform_mesh,
    uniform_refine,
)
from rrteig.postprocess import postprocessing_norms, supercloseness_norms

from oracles import (
    assembled,
    cell_integral_u,
    eval_cell,
    exact_derivative,
    expansion_term_per_mode,
    factor_pair,
    l2_project_exact,
    mean_flux_x,
    mean_flux_y,
    numbering,
    postprocessing_norms_per_term,
    reconstruction,
    regularity_constant_2d,
    rt_interpolate_exact,
    sign_matched,
    supercloseness_norms_2d,
    supercloseness_norms_per_term,
)

_GX, _GW = np.polynomial.legendre.leggauss(5)
# int_K u_xx^2 oscillates up to ~14 pi across one cell of the coarsest
# meshes below: 5 points leave 1e-4 of quadrature error there, 24 points
# 1e-12; 48 points reach roundoff
_QX, _QW = np.polynomial.legendre.leggauss(48)


def _nodes(widths, length):
    """Nodes of [0, length] with cells proportional to ``widths``."""
    w = np.asarray(widths)
    nodes = np.concatenate([[0.0], np.cumsum(w)]) * (length / w.sum())
    nodes[-1] = length
    return nodes


@st.composite
def _meshes(draw, even=True):
    """Random tensor meshes of [0, a] x [0, b] with n1, n2 even in
    [2, 16] (any in [1, 16] when not ``even``) and cell widths from
    [1, 4] (width ratio <= 4); half of them square, where eigenspaces of
    m != n hold two modes."""
    a = draw(st.floats(0.5, 4.0), label="a")
    b = a if draw(st.booleans(), label="square") else draw(
        st.floats(0.5, 4.0), label="b")
    nodes = []
    for axis, length in (("x", a), ("y", b)):
        if even:
            n = 2 * draw(st.integers(1, 8), label=f"n_{axis} / 2")
        else:
            n = draw(st.integers(1, 16), label=f"n_{axis}")
        nodes.append(_nodes(draw(st.lists(
            st.floats(1.0, 4.0), min_size=n, max_size=n)), length))
    return build_mesh(*nodes)


@st.composite
def _fields(draw, mesh, domain=None):
    """A single mode, one spanning any of the first eight eigenspaces of
    the exact problem on ``domain`` (default: the mesh's)."""
    domain = domain or (mesh.node_x[-1], mesh.node_y[-1])
    modes = enumerate_exact(domain, count=8)[draw(st.integers(0, 7))].modes
    m, n = modes[draw(st.integers(0, len(modes) - 1))]
    return FieldSample(m, n, domain)


def _oracle_norm(field, exact, order):
    """The per-cell loop: 5x5 Gauss per fine cell, eval_cell against the
    pointwise exact derivative."""
    mesh = field.mesh
    nx, ny = mesh.node_x, mesh.node_y
    total = 0.0
    for j in range(mesh.n2):
        ym, yh = (ny[j] + ny[j + 1]) / 2, (ny[j + 1] - ny[j]) / 2
        for i in range(mesh.n1):
            xm, xh = (nx[i] + nx[i + 1]) / 2, (nx[i + 1] - nx[i]) / 2
            xg, yg = np.meshgrid(xm + xh * _GX, ym + yh * _GX)
            w = np.outer(yh * _GW, xh * _GW)

            def u(dx, dy):
                return exact_derivative(exact, xg, yg, dx, dy)

            if order == 0 and field.kind == "sigma":
                sx, sy = eval_cell(field, i, j, xg, yg)
                sq = (sx + u(1, 0)) ** 2 + (sy + u(0, 1)) ** 2
            elif order == 0:
                sq = (eval_cell(field, i, j, xg, yg) - u(0, 0)) ** 2
            elif field.kind == "sigma":
                sxdx, sydx = eval_cell(field, i, j, xg, yg, deriv="x")
                sxdy, sydy = eval_cell(field, i, j, xg, yg, deriv="y")
                sq = ((sxdx + u(2, 0)) ** 2 + (sxdy + u(1, 1)) ** 2
                      + (sydx + u(1, 1)) ** 2 + (sydy + u(0, 2)) ** 2)
            else:
                vdx = eval_cell(field, i, j, xg, yg, deriv="x")
                vdy = eval_cell(field, i, j, xg, yg, deriv="y")
                sq = (vdx - u(1, 0)) ** 2 + (vdy - u(0, 1)) ** 2
            total += np.sum(w * sq)
    return float(np.sqrt(total))


def _assert_close(got, want, rel):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(mesh=_meshes(), data=st.data())
def test_error_norms_against_per_cell_oracle(mesh, data):
    """Both reconstructions of random 1-D factors, L2 and broken H1, to
    1e-12 relative to the error, which is O(1) here; a random signed size
    c multiplies the x factors and divides the y factors."""
    exact = data.draw(_fields(mesh), label="field")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n1, n2 = mesh.n1, mesh.n2
    v, w, flux_x, flux_y = (rng.standard_normal(n)
                            for n in (n1, n2, n1 + 1, n2 + 1))
    c = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    pair = factor_pair(c * v, w / c, c * flux_x, flux_y / c)
    norms = postprocessing_norms(mesh, pair, exact)
    for kind in ("sigma", "u"):
        for order, norm in ((0, "l2"), (1, "h1")):
            got = norms[f"{kind}_{norm}"]
            want = _oracle_norm(reconstruction(mesh, pair, kind), exact, order)
            assert abs(got - want) <= 1e-12 * want, (kind, order)


def _even_random_mesh():
    rng = np.random.default_rng(17)
    return build_mesh(_nodes(rng.uniform(1.0, 4.0, 12), 2.0),
                      _nodes(rng.uniform(1.0, 4.0, 16), 1.3))


@pytest.mark.parametrize("mesh", [uniform_mesh(0, np.pi, 32, 0, np.pi, 32),
                                  _even_random_mesh()],
                         ids=["a_32", "random_12x16"])
def test_solved_pair_norms_against_per_cell_oracle(mesh):
    """The first solved pair against mode (1, 1), unflipped as the sweep
    measures it, on preset a's 32^2 level and on a random even nonuniform
    mesh: every norm to 1e-14 times the exact field's norm of the same
    order, sqrt(lambda) to the power order + 1 for sigma and order for u.
    Its errors are near 1e-4 to 1e-3, so a bound relative to them would
    ask for what neither path resolves."""
    system = assemble_mixed(mesh)
    fld = FieldSample(1, 1, (mesh.node_x[-1], mesh.node_y[-1]))
    (pair,) = solve_mixed_eigs(system, SolveOptions(k=1))
    norms = postprocessing_norms(mesh, pair, fld)
    for kind in ("sigma", "u"):
        for order, norm in ((0, "l2"), (1, "h1")):
            power = order + (kind == "sigma")
            got = norms[f"{kind}_{norm}"]
            want = _oracle_norm(reconstruction(mesh, pair, kind), fld, order)
            assert abs(got - want) <= 1e-14 * fld.value ** (power / 2), (
                kind, order)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mesh=_meshes(), data=st.data())
def test_cell_and_edge_means_against_per_cell_oracle(mesh, data):
    """l2_project_exact against cell_integral_u / |K| and
    rt_interpolate_exact against per-edge mean fluxes, to 1e-13; the
    library's cell_mean_factors (X, Y), with the flux factors of
    FieldSample.factors on the node lines, against both 2-D interpolants
    to 1e-15: Pi0 u = Y (x) X and sigma_I = [Y (x) fx; fy (x) X], f the
    negative first derivatives."""
    fld = data.draw(_fields(mesh), label="field")
    lay = numbering(mesh)
    nx, ny = mesh.node_x, mesh.node_y
    means = np.empty(lay.n_cell)
    fluxes = np.empty(lay.n_sigma)
    for j in range(mesh.n2):
        for i in range(mesh.n1):
            means[lay.cell_index(i, j)] = cell_integral_u(
                fld, nx[i], nx[i + 1], ny[j], ny[j + 1]
            ) / ((nx[i + 1] - nx[i]) * (ny[j + 1] - ny[j]))
        for i in range(mesh.n1 + 1):
            fluxes[lay.xedge_index(i, j)] = mean_flux_x(
                fld, nx[i], ny[j], ny[j + 1])
    for j in range(mesh.n2 + 1):
        for i in range(mesh.n1):
            fluxes[lay.yedge_index(i, j)] = mean_flux_y(
                fld, ny[j], nx[i], nx[i + 1])
    pi0, sigma_i = l2_project_exact(mesh, fld), rt_interpolate_exact(mesh, fld)
    _assert_close(pi0, means, 1e-13)
    _assert_close(sigma_i, fluxes, 1e-13)
    X, Y = cell_mean_factors(mesh, fld)
    fx, fy = (f[1] for f in fld.factors(nx, ny))
    _assert_close(np.outer(Y, X).ravel(), pi0, 1e-15)
    _assert_close(np.concatenate([np.outer(Y, -fx).ravel(),
                                  np.outer(-fy, X).ravel()]), sigma_i, 1e-15)


def _oracle_expansion_term(mesh, exact):
    """(1/12) sum_K (kx^2 h_x^2 int_K u_x^2 + ky^2 h_y^2 int_K u_y^2), with
    the cell integrals by 48x48 Gauss quadrature of the pointwise
    derivative."""
    nx, ny = mesh.node_x, mesh.node_y
    total = 0.0
    for j in range(mesh.n2):
        ym, yh = (ny[j] + ny[j + 1]) / 2, (ny[j + 1] - ny[j]) / 2
        for i in range(mesh.n1):
            xm, xh = (nx[i] + nx[i + 1]) / 2, (nx[i + 1] - nx[i]) / 2
            xg, yg = np.meshgrid(xm + xh * _QX, ym + yh * _QX)
            w = np.outer(yh * _QW, xh * _QW)
            total += np.sum(w * (
                (2 * xh * exact.kx) ** 2
                * exact_derivative(exact, xg, yg, 1, 0) ** 2
                + (2 * yh * exact.ky) ** 2
                * exact_derivative(exact, xg, yg, 0, 1) ** 2))
    return total / 12.0


@settings(max_examples=120, deadline=None, derandomize=True)
@given(mesh=_meshes(even=False), data=st.data())
def test_expansion_term_against_per_cell_quadrature(mesh, data):
    """expansion_term against per-cell quadrature to 1e-12 relative, on
    odd and even meshes.  Half of the fields live on the mesh's domain
    scaled up by 1.25 to 2, which does not fit the mesh: expansion_term
    refuses them."""
    domain = None
    if data.draw(st.booleans(), label="larger domain"):
        scale = data.draw(st.floats(1.25, 2.0), label="scale")
        domain = (mesh.node_x[-1] * scale, mesh.node_y[-1] * scale)
    exact = data.draw(_fields(mesh, domain), label="field")
    if domain:
        with pytest.raises(LayoutMismatch):
            expansion_term(mesh, [exact])
        return
    got = expansion_term(mesh, [exact])[0]
    want = _oracle_expansion_term(mesh, exact)
    assert abs(got - want) <= 1e-12 * want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mesh=_meshes(even=False), data=st.data())
def test_expansion_term_bitwise_against_per_mode_oracle(mesh, data):
    """expansion_term over a list of 12 to 30 labels (repeats allowed) on
    a random rectangle gives each field the bits of a one-field call and
    the 2-D strip integrals of the per-mode oracle to roundoff; half of
    the lists live on the mesh's domain scaled up by 1.25 to 2, which
    expansion_term refuses.  An empty list gives an empty array."""
    domain = (mesh.node_x[-1], mesh.node_y[-1])
    larger = data.draw(st.booleans(), label="larger domain")
    if larger:
        scale = data.draw(st.floats(1.25, 2.0), label="scale")
        domain = (domain[0] * scale, domain[1] * scale)
    modes = data.draw(st.lists(st.tuples(st.integers(1, 12),
                                         st.integers(1, 12)),
                               min_size=12, max_size=30), label="modes")
    fields = [FieldSample(m, n, domain) for m, n in modes]
    if larger:
        with pytest.raises(LayoutMismatch):
            expansion_term(mesh, fields)
        return
    _assert_expansion_term(mesh, fields)
    assert expansion_term(mesh, []).shape == (0,)


def _assert_expansion_term(mesh, fields):
    """expansion_term of a list of fields: each field's bits those of a
    one-field call, whatever the other fields, and each value within
    1e-14 relative of the 2-D strip integrals of the per-mode oracle."""
    got = expansion_term(mesh, fields)
    alone = np.array([expansion_term(mesh, [f])[0] for f in fields])
    want = np.array([expansion_term_per_mode(mesh, f) for f in fields])
    assert got.shape == want.shape
    assert got.tobytes() == alone.tobytes()
    assert np.all(np.abs(got - want) <= 1e-14 * want)


def _supercloseness_gaps(mesh, pair, fld):
    """|1-D - 2-D| of the three supercloseness norms, and the 2-D norms."""
    got = supercloseness_norms(mesh, pair, fld)
    want = supercloseness_norms_2d(assembled(mesh), pair,
                                   rt_interpolate_exact(mesh, fld),
                                   l2_project_exact(mesh, fld))
    names = ("norm_sigma", "norm_div", "norm_u")
    return (np.array([abs(got[n] - want[n]) for n in names]),
            np.array([want[n] for n in names]))


def _assert_supercloseness(mesh, pair, fld):
    """supercloseness_norms against the 2-D oracle: each norm to 1e-14
    times the exact field's norm of its order, sqrt(lambda) for sigma,
    lambda for its divergence and 1 for u.  Expanding the divergence into
    four rank-one terms, unbalanced, misses this bound on every preset
    from level 1 on (1.4e-14 to 5.5e-14 lambda there)."""
    gaps, _ = _supercloseness_gaps(mesh, pair, fld)
    assert np.all(gaps <= 1e-14 * np.array([np.sqrt(fld.value), fld.value, 1]))


def _preset_level(case, level):
    mesh = case_preset(case).initial_mesh()
    for _ in range(level):
        mesh = uniform_refine(mesh)
    return mesh


@pytest.mark.parametrize("mesh, t", [
    *((_preset_level(case, level), 0) for case in "abc" for level in range(5)),
    (build_mesh([0.0, 2.0], [0.0, 1.3]), 0),
    (build_mesh([0.0, 0.3, 1.0, 1.2], [0.0, 0.5, 0.6, 1.1, 1.9, 2.5]), 2),
    (build_mesh([0.0, 3.0], [0.0, 0.1, 0.4, 0.5, 0.9, 1.0]), 3),
], ids=[*(f"{c}{lvl}" for c in "abc" for lvl in range(5)),
        "one_cell", "odd_3x5", "one_by_5"])
def test_supercloseness_norms_against_2d_oracle_on_fixed_meshes(mesh, t):
    """Levels 0-4 of each preset with the first pair against mode (1, 1),
    as the sweep measures it; and one-cell and odd meshes of non-square
    domains, pair t sign-matched to its own labelled mode, which is not
    (1, 1) for t > 0."""
    pair = solve_mixed_eigs(assemble_mixed(mesh), SolveOptions(k=t + 1))[t]
    assert (pair.mode == (1, 1)) == (t == 0)
    fld = FieldSample(*pair.mode, (mesh.node_x[-1], mesh.node_y[-1]))
    _assert_supercloseness(mesh, sign_matched(mesh, pair, fld), fld)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mesh=_meshes(even=False), data=st.data())
def test_supercloseness_norms_against_2d_oracle(mesh, data):
    """On random odd and even meshes: a solved pair against its own
    labelled mode and against one mode of the first eight eigenspaces;
    and random 1-D factors, far from any eigenpair, so that the remainders
    of the divergence split are as large as its main part, to 1e-14
    relative to the oracle's norms, which are O(1) or larger there."""
    k = min(8, mesh.n_cells)
    pairs = solve_mixed_eigs(assemble_mixed(mesh), SolveOptions(k=k))
    pair = pairs[data.draw(st.integers(0, k - 1), label="pair")]
    domain = (mesh.node_x[-1], mesh.node_y[-1])
    fld = data.draw(_fields(mesh), label="field")
    _assert_supercloseness(mesh, pair, FieldSample(*pair.mode, domain))
    _assert_supercloseness(mesh, pair, fld)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    noise = factor_pair(*(rng.standard_normal(n) for n in (
        mesh.n1, mesh.n2, mesh.n1 + 1, mesh.n2 + 1)))
    gaps, want = _supercloseness_gaps(mesh, noise, fld)
    assert np.all(gaps <= 1e-14 * want)


def _bits(norms):
    """A dict of norms as its keys and the bytes of its values."""
    return list(norms), np.array(list(norms.values())).tobytes()


def _assert_bitwise(mesh, pair, fields):
    """supercloseness_norms and postprocessing_norms of the pair against
    each field have the bits of the per-term oracles, postprocessing only
    on even meshes; expansion_term of the fields as
    _assert_expansion_term."""
    for fld in fields:
        assert _bits(supercloseness_norms(mesh, pair, fld)) == _bits(
            supercloseness_norms_per_term(mesh, pair, fld))
        if mesh.n1 % 2 == 0 and mesh.n2 % 2 == 0:
            assert _bits(postprocessing_norms(mesh, pair, fld)) == _bits(
                postprocessing_norms_per_term(mesh, pair, fld))
    _assert_expansion_term(mesh, fields)


@st.composite
def _wide_even_meshes(draw):
    """Random tensor meshes of [0, a] x [0, b] with n1, n2 even in
    [2, 300] and cell widths whose ratio reaches up to 1e3."""
    nodes = []
    for axis in "xy":
        n = 2 * draw(st.integers(1, 150), label=f"n_{axis} / 2")
        ratio = draw(st.floats(1.0, 1e3), label=f"width ratio {axis}")
        seed = draw(st.integers(0, 2**32 - 1), label=f"widths {axis}")
        logs = np.random.default_rng(seed).uniform(0.0, np.log(ratio), n)
        nodes.append(_nodes(np.exp(logs), draw(st.floats(0.5, 4.0))))
    return build_mesh(*nodes)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mesh=_wide_even_meshes(), data=st.data())
def test_stacked_norms_bitwise_against_per_term_oracle(mesh, data):
    """On random even meshes of up to 300 x 300 cells, width ratios up to
    1e3: the first solved pair and random 1-D factors, against one to
    four modes m, n <= 20 of the mesh's domain, bit for bit; and the
    postprocessing of zero factors, which skips the balancing."""
    domain = (mesh.node_x[-1], mesh.node_y[-1])
    modes = data.draw(st.lists(st.tuples(st.integers(1, 20),
                                         st.integers(1, 20)),
                               min_size=1, max_size=4), label="modes")
    fields = [FieldSample(m, n, domain) for m, n in modes]
    (pair,) = solve_mixed_eigs(assemble_mixed(mesh), SolveOptions(k=1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    noise = factor_pair(*(rng.standard_normal(n) for n in (
        mesh.n1, mesh.n2, mesh.n1 + 1, mesh.n2 + 1)))
    zero = factor_pair(*(np.zeros(n) for n in (
        mesh.n1, mesh.n2, mesh.n1 + 1, mesh.n2 + 1)))
    for p in (pair, noise):
        _assert_bitwise(mesh, p, fields)
    assert _bits(postprocessing_norms(mesh, zero, fields[0])) == _bits(
        postprocessing_norms_per_term(mesh, zero, fields[0]))


@pytest.mark.parametrize("case", "abc")
def test_stacked_norms_bitwise_on_presets(case):
    """Levels 0-5 of each preset: the first pair against each pair's
    labelled mode, (1, 1) first as the sweep measures it, bit for bit
    against the per-term oracles, and the expansion terms of all the
    labels as _assert_expansion_term."""
    k = case_preset(case).k
    for level in range(6):
        mesh = _preset_level(case, level)
        pairs = solve_mixed_eigs(assemble_mixed(mesh), SolveOptions(k=k))
        domain = (mesh.node_x[-1], mesh.node_y[-1])
        _assert_bitwise(mesh, pairs[0],
                        [FieldSample(*p.mode, domain) for p in pairs])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(widths=st.lists(st.lists(st.floats(1e-2, 1e2), min_size=1,
                                max_size=20), min_size=2, max_size=2))
def test_regularity_constant_against_every_width_pair(widths):
    """The four 1-D extrema give the 2-D maximum bitwise: division rounds
    monotonically, so the extreme ratios are those of the extreme widths."""
    mesh = build_mesh(*(np.concatenate([[0.0], np.cumsum(w)]) for w in widths))
    assert regularity_constant(mesh) == regularity_constant_2d(mesh)
