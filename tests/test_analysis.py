"""Expansion terms (the exact ModeTables' sums), convergence rates,
extrapolation, bounds, frequency matching (cli._matches), and the
eigenspace gaps of the equivalence certificate oracle."""

import numpy as np
import pytest
import scipy.sparse as sp

from rrteig.analysis import (
    check_upper_bound,
    convergence_rate,
    extrapolate,
    lower_bound_margin,
)
from rrteig.cli import ExperimentConfig, _matches, run_case
from rrteig.errors import DimensionMismatch
from rrteig.exact import mode_tables
from rrteig.mesh import uniform_mesh, uniform_refine

from oracles import eigenspace_gap

PI = np.pi


def _term(mesh, mode, domain=(PI, PI)):
    """The h^2 expansion term of label (m, n): x.sums[m - 1] + y.sums[n - 1]
    of the domain's mode_tables."""
    (m, n), (x, y) = mode, mode_tables(mesh, domain, *mode)
    return x.sums[m - 1] + y.sums[n - 1]


def test_expansion_term_uniform_closed_form():
    """For u_{1,1} on a uniform h-mesh the dominant term is exactly h^2/6."""
    for n in (4, 8, 16):
        mesh = uniform_mesh(0, PI, n, 0, PI, n)
        h = PI / n
        assert _term(mesh, (1, 1)) == pytest.approx(h * h / 6.0, rel=1e-12)


def test_expansion_term_mode_weights():
    """For u_{m,n} on a uniform mesh: (m^4 + n^4) h^2 / 12."""
    mesh = uniform_mesh(0, PI, 8, 0, PI, 8)
    h = PI / 8
    for m, n in ((1, 2), (2, 2), (1, 3)):
        want = (m**4 + n**4) * h * h / 12.0
        assert _term(mesh, (m, n)) == pytest.approx(want, rel=1e-12)


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


def _matched(pairs, mesh, domain):
    """cli._matches of (lambda_h, label) pairs, each label's expansion term
    on the mesh and exact eigenvalue read from the domain's mode_tables."""
    x, y = mode_tables(mesh, domain, *(max(q) for q in zip(
        *(mode for _, mode in pairs))))
    return _matches([(lam, (m, n), x.sums[m - 1] + y.sums[n - 1],
                      x.values[m - 1] + y.values[n - 1])
                     for lam, (m, n) in pairs], domain)


def test_match_frequencies_single_pair():
    """lambda = 5: the (2, 1) and (1, 2) modes are both the unordered pair
    (1, 2) on the square, and on a uniform h-mesh of [0, pi]^2 their
    predicted shift, the expansion term, is 17 h^2 / 12; on a rectangle a
    label keeps its order."""
    n = 60
    h = PI / n
    shift = 17 * h * h / 12.0
    pairs = [(5 + shift, (2, 1)), (5 + shift * 1.001, (1, 2))]
    matches = _matched(pairs, uniform_mesh(0, PI, n, 0, PI, n), (PI, PI))
    assert all((m["m"], m["n"]) == (1, 2) for m in matches)
    assert all(m["predicted_shift"] == pytest.approx(shift, rel=1e-14)
               for m in matches)
    assert [m["observed_shift"] for m in matches] == [lam - 5.0
                                                      for lam, _ in pairs]
    (rect,) = _matched([(5.0, (2, 1))],
                       uniform_mesh(0, PI, n, 0, 2 * PI, 2 * n), (PI, 2 * PI))
    assert (rect["m"], rect["n"]) == (2, 1)
    assert rect["observed_shift"] == 5.0 - (4.0 + 0.25)


def test_match_frequencies_triple_cluster():
    """lambda = 50 splits into one (5,5) member and two (1,7) members,
    predicted (m^4 + n^4) h^2 / 12 on a uniform mesh of [0, pi]^2."""
    n = 150
    h = PI / n
    s55 = 1250 * h * h / 12.0
    s17 = 2402 * h * h / 12.0
    matches = _matched(
        [(50 + s55 * 1.0001, (5, 5)), (50 + s17 * 0.9999, (7, 1)),
         (50 + s17 * 1.0001, (1, 7))],
        uniform_mesh(0, PI, n, 0, PI, n), (PI, PI)
    )
    got = [(m["m"], m["n"]) for m in matches]
    assert got == [(5, 5), (1, 7), (1, 7)]
    assert [m["predicted_shift"] for m in matches] == [
        pytest.approx(s, rel=1e-14) for s in (s55, s17, s17)]


def test_match_frequencies_off_the_pi_square():
    """On uniform 32^2 of [0, 1]^2 the predicted shift of each cluster
    member is within 1 % of its observed shift lambda_h - lambda; a weight
    of m^4 + n^4 in place of the wave numbers' (kx^4 + ky^4) misses it by
    a factor pi^4."""
    nodes = tuple(np.linspace(0.0, 1.0, 9))
    config = ExperimentConfig(name="unit", node_x=nodes, node_y=nodes,
                              levels=2, analyses=("frequencies",))
    report = run_case(config)
    assert "failures" not in report.config
    matches = report.levels[2]["frequency_matches"]
    assert {(m["m"], m["n"]) for m in matches} == {(1, 2), (1, 3)}
    for m in matches:
        assert abs(m["predicted_shift"] - m["observed_shift"]) <= (
            0.01 * m["observed_shift"])


def test_eigenvalue_error_dominated_by_h2_term():
    """e1 tracks e2 with a residual two orders smaller under refinement."""
    from rrteig.assembly import assemble_mixed
    from rrteig.eigensolve import SolveOptions, solve_mixed_eigs

    mesh = uniform_mesh(0, PI, 8, 0, PI, 8)
    for _ in range(3):
        system = assemble_mixed(mesh)
        lam_h = solve_mixed_eigs(system, SolveOptions(k=1))[0].lambda_h
        e1 = lam_h - 2.0
        e2 = _term(mesh, (1, 1))
        assert abs(e1 - e2) < 0.02 * e1
        mesh = uniform_refine(mesh)


def test_gap_same_span_zero():
    rng = np.random.default_rng(9)
    metric = sp.diags(np.abs(rng.standard_normal(20)) + 0.5)  # diagonal SPD
    v = rng.standard_normal((20, 2))
    mix = v @ np.array([[2.0, 1.0], [-1.0, 0.5]])  # same span, other basis
    g = eigenspace_gap(v, mix, metric)
    assert g <= 1e-12


def test_gap_orthogonal_spans_one():
    metric = sp.identity(6)
    e = np.eye(6)
    g = eigenspace_gap(e[:, :2], e[:, 2:4], metric)
    assert g == pytest.approx(1.0, abs=1e-12)


def test_gap_symmetry():
    rng = np.random.default_rng(10)
    metric = sp.diags(np.abs(rng.standard_normal(15)) + 0.5)
    v = rng.standard_normal((15, 3))
    w = v + 0.05 * rng.standard_normal((15, 3))
    assert abs(eigenspace_gap(v, w, metric)
               - eigenspace_gap(w, v, metric)) <= 1e-12


def test_gap_known_angle():
    """Two lines at angle theta have gap sin(theta)."""
    theta = 0.3
    metric = sp.identity(2)
    v = np.array([[1.0], [0.0]])
    w = np.array([[np.cos(theta)], [np.sin(theta)]])
    assert eigenspace_gap(v, w, metric) == pytest.approx(np.sin(theta),
                                                         rel=1e-12)


def test_gap_dimension_mismatch():
    metric = sp.identity(4)
    e = np.eye(4)
    with pytest.raises(DimensionMismatch):
        eigenspace_gap(e[:, :1], e[:, 1:3], metric)
    # ill-conditioned basis rejected
    with pytest.raises(DimensionMismatch):
        eigenspace_gap(
            np.column_stack([e[0], e[0] + 1e-12 * e[1]]), e[:, :2], metric,
        )
