"""The h^2 expansion captures the eigenvalue error to O(h^4), cluster
members included: on random direction-wise uniform meshes the residual
r = (lambda_h - lambda) - expansion_term(mesh, u_{m,n}) of every labelled
pair decays at rate 4 under refinement.

Half of the meshes are square with n1 = n2, so every eigenvalue with
m != n is a discrete cluster of two pairs, each labelled with its own
mode.  Pairs are matched across levels by label, not by index: near
ties such as (1, 4) and (2, 3) on a rectangle swap order between levels.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from rrteig.analysis import expansion_term
from rrteig.assembly import assemble_mixed
from rrteig.eigensolve import SolveOptions, solve_mixed_eigs
from rrteig.exact import FieldSample, enumerate_exact
from rrteig.mesh import uniform_mesh, uniform_refine

# the coarse level resolves every tested mode to k h <= _KH
_KH = 0.25
# pairs solved past the first k, so that a label of the first k on the
# coarse level is among the solved pairs of the fine level
_EXTRA = 4


@st.composite
def _cases(draw):
    """(domain, n1, n2, k): a domain [0, a] x [0, b] with sides in
    [0.5, 2], initial cell counts in [1, 8] and k in [3, 10]; half of
    them square with n1 = n2."""
    a = draw(st.floats(0.5, 2.0), label="a")
    n1 = draw(st.integers(1, 8), label="n1")
    if draw(st.booleans(), label="square"):
        b, n2 = a, n1
    else:
        b = draw(st.floats(0.5, 2.0), label="b")
        n2 = draw(st.integers(1, 8), label="n2")
    return (a, b), n1, n2, draw(st.integers(3, 10), label="k")


def _residuals(mesh, domain, k):
    """{mode: r} of the first k + _EXTRA pairs on ``mesh``, and the
    labels of the first k."""
    pairs = solve_mixed_eigs(assemble_mixed(mesh), SolveOptions(k=k + _EXTRA))
    r = {}
    for p in pairs:
        fld = FieldSample(*p.mode, domain)
        r[p.mode] = (p.lambda_h - fld.value) - expansion_term(mesh, fld)
    return r, [p.mode for p in pairs[:k]]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=_cases())
# b / a near sqrt(7/3), where lambda(1, 4) and lambda(2, 3) nearly tie:
# (2, 3) is the sixth pair on the 64 x 64 level and the seventh on
# 128 x 128, and matching by index reads a rate of 1.8 there
@example(case=((1.0, 1.53), 4, 4, 6))
def test_expansion_residual_rate_four(case):
    """log2(|r_h| / |r_{h/2}|) >= 3.5 for each of the first k labels."""
    (a, b), n1, n2, k = case
    modes = [m for e in enumerate_exact((a, b), count=k + _EXTRA)
             for m in e.modes]
    # k h = m pi / n1 in x and n pi / n2 in y, whatever a and b
    while max(max(m * np.pi / n1, n * np.pi / n2) for m, n in modes) > _KH:
        n1, n2 = 2 * n1, 2 * n2
    mesh = uniform_mesh(0.0, a, n1, 0.0, b, n2)
    coarse, labels = _residuals(mesh, (a, b), k)
    fine, _ = _residuals(uniform_refine(mesh), (a, b), k)
    for m, n in labels:
        assert max(m * np.pi / n1, n * np.pi / n2) <= _KH, (m, n)
        rate = np.log2(abs(coarse[m, n]) / abs(fine[m, n]))
        assert rate >= 3.5, ((m, n), rate, coarse[m, n], fine[m, n])
