"""Expansion terms, convergence rates, extrapolation, bounds, frequency
matching and eigenspace gaps."""

import numpy as np
import pytest

from rrteig.analysis import (
    EigenspaceBasis,
    check_upper_bound,
    convergence_rate,
    eigenspace_gap,
    expansion_term,
    extrapolate,
    lower_bound_margin,
    match_frequencies,
)
from rrteig.errors import AmbiguousAssignment, DimensionMismatch
from rrteig.exact import enumerate_exact, field_for_mode
from rrteig.mesh import uniform_mesh, uniform_refine

PI = np.pi


def test_expansion_term_uniform_closed_form():
    """For u_{1,1} on a uniform h-mesh the dominant term is exactly h^2/6."""
    fld = field_for_mode(1, 1)
    for n in (4, 8, 16):
        mesh = uniform_mesh(0, PI, n, 0, PI, n)
        h = PI / n
        assert expansion_term(mesh, fld) == pytest.approx(
            h * h / 6.0, rel=1e-12
        )


def test_expansion_term_mode_weights():
    """For u_{m,n} on a uniform mesh: (m^4 + n^4) h^2 / 12."""
    mesh = uniform_mesh(0, PI, 8, 0, PI, 8)
    h = PI / 8
    for m, n in ((1, 2), (2, 2), (1, 3)):
        fld = field_for_mode(m, n)
        want = (m**4 + n**4) * h * h / 12.0
        assert expansion_term(mesh, fld) == pytest.approx(want, rel=1e-12)


def test_rate_table():
    vals = [1.0 + 0.5**k for k in range(4)]  # errors halve: rate 1
    errs = [v - 1.0 for v in vals]
    for a, b in zip(errs[:-1], errs[1:]):
        assert convergence_rate(a, b) == pytest.approx(1.0, abs=1e-12)
    assert convergence_rate(-4.0, 1.0) == 2.0  # signs are ignored
    # an error below 1e-300 on either side gives NaN
    assert np.isnan(convergence_rate(1.0, 0.0))
    assert np.isnan(convergence_rate(1e-301, 1.0))
    assert convergence_rate(1e-299, 1e-299) == 0.0


def test_extrapolate_kills_h2_term():
    lam, c, h = 2.0, 0.7, 0.1
    lam_h = lam + c * h * h
    lam_half = lam + c * (h / 2) ** 2
    assert extrapolate(lam_h, lam_half) == pytest.approx(lam, abs=1e-14)


def test_check_upper_bound():
    out = check_upper_bound([2.1, 4.9], [2.0, 5.0])
    assert out[0] == (pytest.approx(0.1), True)
    assert out[1][1] is False


def test_lower_bound_margin_formula():
    got = lower_bound_margin(2.5, 2.0, a=1.0, h=0.1)
    assert got == pytest.approx(0.5 - 4.0 * 0.01 / 24.0, rel=1e-12)


def test_match_frequencies_single_pair():
    ex = enumerate_exact((PI, PI), count=3)[1]  # lambda = 5, pair (1, 2)
    h = 0.05
    shift = 17 * h * h / 12.0
    matches = match_frequencies([5 + shift, 5 + shift * 1.001], ex, h)
    assert all((m.frequency.m, m.frequency.n) == (1, 2) for m in matches)


def test_match_frequencies_triple_cluster():
    """lambda = 50 splits into one (5,5) member and two (1,7) members."""
    ex = [e for e in enumerate_exact((PI, PI), count=60)
          if abs(e.value - 50) < 1e-9][0]
    h = 0.02
    s55 = 1250 * h * h / 12.0
    s17 = 2402 * h * h / 12.0
    matches = match_frequencies(
        [50 + s55 * 1.0001, 50 + s17 * 0.9999, 50 + s17 * 1.0001], ex, h
    )
    got = [(m.frequency.m, m.frequency.n) for m in matches]
    assert got == [(5, 5), (1, 7), (1, 7)]


def test_match_frequencies_errors():
    ex = enumerate_exact((PI, PI), count=3)[1]
    with pytest.raises(AmbiguousAssignment):
        match_frequencies([5.1], ex, 0.05)  # cluster size != multiplicity
    ex50 = [e for e in enumerate_exact((PI, PI), count=60)
            if abs(e.value - 50) < 1e-9][0]
    h = 0.02
    mid = 50 + (1250 + 2402) / 2 * h * h / 12.0  # equidistant prediction
    with pytest.raises(AmbiguousAssignment):
        match_frequencies([mid, mid, mid], ex50, h)


def test_eigenvalue_error_dominated_by_h2_term():
    """e1 tracks e2 with a residual two orders smaller under refinement."""
    from rrteig.assembly import assemble_mixed
    from rrteig.eigensolve import SolveOptions, solve_mixed_eigs

    fld = field_for_mode(1, 1)
    mesh = uniform_mesh(0, PI, 8, 0, PI, 8)
    for _ in range(3):
        system = assemble_mixed(mesh)
        lam_h = solve_mixed_eigs(system, SolveOptions(k=1))[0].lambda_h
        e1 = lam_h - 2.0
        e2 = expansion_term(mesh, fld)
        assert abs(e1 - e2) < 0.02 * e1
        mesh = uniform_refine(mesh)


def _basis(vectors, metric):
    return EigenspaceBasis(tuple(vectors), metric)


def test_gap_same_span_zero():
    rng = np.random.default_rng(9)
    metric = np.abs(rng.standard_normal(20)) + 0.5  # diagonal SPD
    v = rng.standard_normal((20, 2))
    mix = v @ np.array([[2.0, 1.0], [-1.0, 0.5]])  # same span, other basis
    g = eigenspace_gap(_basis(list(v.T), metric), _basis(list(mix.T), metric))
    assert g <= 1e-12


def test_gap_orthogonal_spans_one():
    metric = np.ones(6)
    e = np.eye(6)
    g = eigenspace_gap(_basis([e[0], e[1]], metric),
                       _basis([e[2], e[3]], metric))
    assert g == pytest.approx(1.0, abs=1e-12)


def test_gap_symmetry():
    rng = np.random.default_rng(10)
    metric = np.abs(rng.standard_normal(15)) + 0.5
    v = rng.standard_normal((15, 3))
    w = v + 0.05 * rng.standard_normal((15, 3))
    b1, b2 = _basis(list(v.T), metric), _basis(list(w.T), metric)
    assert abs(eigenspace_gap(b1, b2) - eigenspace_gap(b2, b1)) <= 1e-12


def test_gap_known_angle():
    """Two lines at angle theta have gap sin(theta)."""
    theta = 0.3
    metric = np.ones(2)
    b1 = _basis([np.array([1.0, 0.0])], metric)
    b2 = _basis([np.array([np.cos(theta), np.sin(theta)])], metric)
    assert eigenspace_gap(b1, b2) == pytest.approx(np.sin(theta), rel=1e-12)


def test_gap_dimension_mismatch():
    metric = np.ones(4)
    e = np.eye(4)
    with pytest.raises(DimensionMismatch):
        eigenspace_gap(_basis([e[0]], metric), _basis([e[1], e[2]], metric))
    # ill-conditioned basis rejected
    with pytest.raises(DimensionMismatch):
        eigenspace_gap(
            _basis([e[0], e[0] + 1e-12 * e[1]], metric),
            _basis([e[0], e[1]], metric),
        )
