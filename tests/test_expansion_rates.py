"""The h^2 expansion captures the eigenvalue error to O(h^4), cluster
members included: on random tensor meshes, direction-wise uniform or
with random cell widths, the residual r = (lambda_h - lambda) -
expansion_term(mesh, u_{m,n}) of every labelled pair decays at rate 4
under refinement.

Half of the meshes are square with the same nodes in x and y, so every
eigenvalue with m != n is a discrete cluster of two pairs, each labelled
with its own mode.  Pairs are matched across levels by label, not by
index: near ties such as (1, 4) and (2, 3) on a rectangle swap order
between levels.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rrteig.analysis import expansion_term
from rrteig.assembly import assemble_mixed
from rrteig.cli import case_preset, run_case
from rrteig.eigensolve import SolveOptions, solve_mixed_eigs
from rrteig.exact import FieldSample, enumerate_exact
from rrteig.mesh import build_mesh, uniform_refine

# the coarse level resolves every tested mode to k h <= _KH
_KH = 0.25
# pairs solved past the first k, so that a label of the first k on the
# coarse level is among the solved pairs of the fine level
_EXTRA = 4


def _nodes(length, widths):
    """Nodes of [0, length] with cells proportional to ``widths``."""
    w = np.asarray(widths, dtype=float)
    nodes = np.concatenate([[0.0], np.cumsum(w)]) * (length / w.sum())
    nodes[-1] = length
    return nodes


@st.composite
def _cases(draw):
    """(node_x, node_y, k): a domain [0, a] x [0, b] with sides in
    [0.5, 2], initial cell counts in [1, 8] and k in [3, 10]; half of the
    meshes uniform in each direction, half with cell widths drawn from
    [1, 4] (width ratio <= 4); half of them square, with node_y =
    node_x."""
    uniform = draw(st.booleans(), label="uniform")

    def nodes(axis):
        length = draw(st.floats(0.5, 2.0), label=axis)
        n = draw(st.integers(1, 8), label=f"n_{axis}")
        widths = [1.0] * n if uniform else draw(st.lists(
            st.floats(1.0, 4.0), min_size=n, max_size=n), label=f"w_{axis}")
        return _nodes(length, widths)

    node_x = nodes("a")
    node_y = node_x if draw(st.booleans(), label="square") else nodes("b")
    return node_x, node_y, draw(st.integers(3, 10), label="k")


def _residuals(mesh, domain, k):
    """{mode: r} of the first k + _EXTRA pairs on ``mesh``, and the
    labels of the first k."""
    pairs = solve_mixed_eigs(assemble_mixed(mesh), SolveOptions(k=k + _EXTRA))
    fields = [FieldSample(*p.mode, domain) for p in pairs]
    r = {p.mode: (p.lambda_h - fld.value) - e2 for p, fld, e2
         in zip(pairs, fields, expansion_term(mesh, fields))}
    return r, [p.mode for p in pairs[:k]]


def _kh(mesh, domain, mode):
    """The largest k h of a mode on a mesh: m pi h_x / a and n pi h_y / b
    on the widest cells."""
    (a, b), (m, n) = domain, mode
    return max(m * np.pi * mesh.hx.max() / a, n * np.pi * mesh.hy.max() / b)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=_cases())
# b / a near sqrt(7/3), where lambda(1, 4) and lambda(2, 3) nearly tie:
# (2, 3) is the sixth pair on the 64 x 64 level and the seventh on
# 128 x 128, and matching by index reads a rate of 1.8 there
@example(case=(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.53, 5), 6))
def test_expansion_residual_rate_four(case):
    """log2(|r_h| / |r_{h/2}|) >= 3.5 for each of the first k labels."""
    node_x, node_y, k = case
    mesh = build_mesh(node_x, node_y)
    domain = (node_x[-1], node_y[-1])
    modes = [m for e in enumerate_exact(domain, count=k + _EXTRA)
             for m in e.modes]
    while max(_kh(mesh, domain, mode) for mode in modes) > _KH:
        mesh = uniform_refine(mesh)
    coarse, labels = _residuals(mesh, domain, k)
    fine, _ = _residuals(uniform_refine(mesh), domain, k)
    for m, n in labels:
        assert _kh(mesh, domain, (m, n)) <= _KH, (m, n)
        rate = np.log2(abs(coarse[m, n]) / abs(fine[m, n]))
        assert rate >= 3.5, ((m, n), rate, coarse[m, n], fine[m, n])


@pytest.mark.parametrize("case, levels", [("a", 8), ("b", 7)])
def test_deep_preset_residual_rates(case, levels):
    """Preset a to 2048 x 2048 cells and preset b to 1024 x 2048, with no
    failed analysis: every residual rate between the last two levels lies
    in [3.95, 4.05].  Their 1-D modes come from the closed form, so that
    lambda_h stays within a few ulps; from the dense and Lanczos paths
    preset a's r_1 rate read 4.24 there."""
    report = run_case(dataclasses.replace(case_preset(case), levels=levels))
    assert "failures" not in report.config
    rates = report.residual_rates
    assert rates and all(3.95 <= r <= 4.05 for r in rates.values()), rates
