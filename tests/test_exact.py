"""Exact eigenpairs: enumeration, PDE identity, analytic integrals
against Gauss quadrature, and discrete images."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rrteig.exact import (FieldSample, enumerate_exact,
                          strip_integrals_k2_du_sq)
from rrteig.errors import InvalidConfig

from oracles import (
    assembled,
    cell_integral_u,
    enumerate_exact_search,
    exact_derivative,
    l2_project_exact,
    mean_flux_x,
    mean_flux_y,
    numbering,
    rt_interpolate_exact,
)

PI = np.pi
_GX, _GW = np.polynomial.legendre.leggauss(24)


def _quad2d(f, x0, x1, y0, y1):
    xm, xh = (x0 + x1) / 2, (x1 - x0) / 2
    ym, yh = (y0 + y1) / 2, (y1 - y0) / 2
    xg, yg = np.meshgrid(xm + xh * _GX, ym + yh * _GX)
    return float(xh * yh * np.sum(np.outer(_GW, _GW) * f(xg, yg)))


def test_enumeration_square():
    """First eigenvalues on [0, pi]^2: 2, 5, 5, 8, 10, 10, 13, 13, 17, 17, 18."""
    ex = enumerate_exact((PI, PI), count=11)
    np.testing.assert_allclose(
        [e.value for e in ex], [2, 5, 5, 8, 10, 10, 13, 13, 17, 17, 18],
        rtol=1e-12,
    )
    mults = [e.multiplicity for e in ex]
    assert mults == [1, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1]


def test_lambda_50_multiplicity_three():
    """50 = 25 + 25 = 1 + 49: one (5,5) family plus a (1,7) pair."""
    ex = enumerate_exact((PI, PI), count=60)
    fifty = [e for e in ex if abs(e.value - 50.0) < 1e-9]
    assert len(fifty) == 3
    e = fifty[0]
    assert e.multiplicity == 3
    assert sorted(e.modes) == [(1, 7), (5, 5), (7, 1)]


def test_enumeration_rectangle_domain():
    """On [0,1] x [0,2]: lambda = pi^2 (m^2 + n^2/4)."""
    ex = enumerate_exact((1.0, 2.0), count=4)
    want = sorted(
        PI**2 * (m * m + n * n / 4.0) for m in (1, 2) for n in (1, 2, 3)
    )[:4]
    np.testing.assert_allclose([e.value for e in ex], want, rtol=1e-12)


def _assert_same_spectrum(domain, count):
    """enumerate_exact against the brute-force search: bitwise values and
    identical mode tuples, cluster by cluster."""
    got, want = (f(domain, count=count)
                 for f in (enumerate_exact, enumerate_exact_search))
    assert len(got) == len(want) == count
    for g, w in zip(got, want):
        assert (g.value, g.modes, g.domain) == (w.value, w.modes, w.domain)


@pytest.mark.parametrize("domain, counts", [
    ((PI, PI), [*range(1, 201), 2000]),
    ((100 * PI, PI), [50]),
], ids=["square", "elongated"])
def test_enumeration_against_search(domain, counts):
    """[0, pi]^2 for counts 1-200 and 2000, and a 100:1 domain, where
    the search scans far more modes than the selection."""
    for count in counts:
        _assert_same_spectrum(domain, count)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(side=st.floats(0.1, 10.0), ratio=st.floats(1.0, 10.0),
       wide=st.booleans(), count=st.integers(1, 300))
def test_enumeration_against_search_on_rectangles(side, ratio, wide, count):
    """Rectangles with side ratios up to 10, either way round."""
    domain = (side * ratio, side) if wide else (side, side * ratio)
    _assert_same_spectrum(domain, count)


def test_enumeration_refuses_a_count_below_one():
    """count < 1 is refused, not sliced off the end of the spectrum."""
    for count in (0, -1):
        with pytest.raises(InvalidConfig, match="count must be >= 1"):
            enumerate_exact((PI, PI), count=count)


def test_eigenfunction_pde_identity():
    """-(u_xx + u_yy) = lambda u pointwise, and Dirichlet boundary zero."""
    fld = FieldSample(2, 3)
    rng = np.random.default_rng(0)
    x = rng.uniform(0, PI, 50)
    y = rng.uniform(0, PI, 50)
    np.testing.assert_allclose(
        -(exact_derivative(fld, x, y, 2, 0)
          + exact_derivative(fld, x, y, 0, 2)),
        fld.value * exact_derivative(fld, x, y),
        rtol=1e-12, atol=1e-12,
    )
    t = np.linspace(0, PI, 17)
    for bx, by in ((0 * t, t), (PI + 0 * t, t), (t, 0 * t), (t, PI + 0 * t)):
        np.testing.assert_allclose(exact_derivative(fld, bx, by), 0.0,
                                   atol=1e-12)


def test_unit_l2_norm():
    for m, n in ((1, 1), (2, 3)):
        fld = FieldSample(m, n)
        nrm2 = _quad2d(lambda x, y: exact_derivative(fld, x, y) ** 2,
                       0, PI, 0, PI)
        assert nrm2 == pytest.approx(1.0, rel=1e-12)


def test_analytic_integrals_vs_quadrature():
    """Closed-form cell and strip integrals agree with an independent
    Gauss oracle, for both modes of the lambda = 5 eigenspace; the strips
    cover part of the domain, where sin^2 and cos^2 do not integrate to
    half the width."""
    cell = (0.3, 1.1, 0.4, 0.9)
    nx, ny = (0.3, 0.7, 1.1), (0.4, 0.9)
    for m, n in enumerate_exact((PI, PI), count=2)[1].modes:
        fld = FieldSample(m, n)
        assert cell_integral_u(fld, *cell) == pytest.approx(
            _quad2d(partial(exact_derivative, fld), *cell), rel=1e-12
        )
        ix, iy = (a[0] for a in strip_integrals_k2_du_sq([fld], nx, ny))
        kux_sq = lambda x, y: (fld.kx * exact_derivative(fld, x, y, 1, 0)) ** 2
        kuy_sq = lambda x, y: (fld.ky * exact_derivative(fld, x, y, 0, 1)) ** 2
        for i in range(2):
            assert ix[i] == pytest.approx(
                _quad2d(kux_sq, nx[i], nx[i + 1], 0.4, 0.9), rel=1e-12
            )
        assert iy[0] == pytest.approx(_quad2d(kuy_sq, *cell), rel=1e-12)


def test_derivative_order_out_of_range_raises():
    """Orders above 2 or below 0 raise instead of cycling back to u_xx."""
    fld = FieldSample(1, 2)
    for dx, dy in ((3, 0), (0, 3), (-1, 0)):
        with pytest.raises(ValueError):
            exact_derivative(fld, 0.3, 0.4, dx, dy)


def test_mode_below_one_raises():
    """Mode (0, n) is identically zero and cannot be unit norm."""
    for m, n in ((0, 1), (1, 0), (-1, 2)):
        with pytest.raises(ValueError):
            FieldSample(m, n)


def test_mean_flux_vs_quadrature():
    fld = FieldSample(2, 1)
    t, w = (_GX + 1) / 2, _GW / 2
    y0, y1, xi = 0.4, 0.9, 1.3
    want = np.sum(w * -exact_derivative(fld, xi, y0 + (y1 - y0) * t, 1, 0))
    assert mean_flux_x(fld, xi, y0, y1) == pytest.approx(want, rel=1e-12)
    x0, x1, yj = 0.1, 0.8, 2.0
    want = np.sum(w * -exact_derivative(fld, x0 + (x1 - x0) * t, yj, 0, 1))
    assert mean_flux_y(fld, yj, x0, x1) == pytest.approx(want, rel=1e-12)


def test_commuting_interpolation_identity(mesh_a0):
    """B sigma_I equals the exact cell integrals of div sigma = lambda u."""
    system = assembled(mesh_a0)
    for m, n in ((1, 1), (2, 1)):
        fld = FieldSample(m, n)
        sigma_i = rt_interpolate_exact(mesh_a0, fld)
        got = system.B @ sigma_i
        want = np.empty(mesh_a0.n_cells)
        nx, ny = mesh_a0.node_x, mesh_a0.node_y
        for j in range(mesh_a0.n2):
            for i in range(mesh_a0.n1):
                want[numbering(mesh_a0).cell_index(i, j)] = fld.value * (
                    cell_integral_u(fld, nx[i], nx[i + 1], ny[j], ny[j + 1])
                )
        assert np.max(np.abs(got - want)) <= 1e-12


def test_l2_projection_means(mesh_c0):
    fld = FieldSample(1, 2)
    proj = l2_project_exact(mesh_c0, fld)
    nx, ny = mesh_c0.node_x, mesh_c0.node_y
    i, j = 2, 1
    area = (nx[i + 1] - nx[i]) * (ny[j + 1] - ny[j])
    want = _quad2d(partial(exact_derivative, fld),
                   nx[i], nx[i + 1], ny[j], ny[j + 1]) / area
    assert proj[numbering(mesh_c0).cell_index(i, j)] == pytest.approx(want, rel=1e-12)


def _aligned_mode(pair, exact_pair):
    """The mode (m, n) of the aligned exact field."""
    from rrteig.cli import _aligned_field

    fld = _aligned_field(pair, exact_pair)
    return fld.m, fld.n


def test_align_representative_recovers_mode(pairs_a0):
    """A simple exact eigenvalue pairs by index, whatever the label: the
    (2, 2) pair against lambda = 2 takes the single mode (1, 1)."""
    ex = enumerate_exact((PI, PI), count=6)
    assert _aligned_mode(pairs_a0[0], ex[0]) == (1, 1)
    assert pairs_a0[3].mode == (2, 2)
    assert _aligned_mode(pairs_a0[3], ex[0]) == (1, 1)


def test_align_representative_cluster_unit(pairs_a0):
    """The two members of the (1, 2) cluster take distinct unit modes,
    each its own label."""
    ex = enumerate_exact((PI, PI), count=6)
    members = [_aligned_mode(pairs_a0[t], ex[t]) for t in (1, 2)]
    assert members == [pairs_a0[1].mode, pairs_a0[2].mode]
    assert sorted(members) == [(1, 2), (2, 1)]


def test_align_wrong_eigenvalue_raises(pairs_a0):
    """A label outside a multiple eigenvalue's eigenspace raises."""
    from rrteig.cli import _aligned_field
    from rrteig.errors import AmbiguousCluster

    ex = enumerate_exact((PI, PI), count=6)
    with pytest.raises(AmbiguousCluster):
        _aligned_field(pairs_a0[3], ex[1])
