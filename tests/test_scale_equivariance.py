"""Exact scale equivariance of a sweep and of a solve: scaling a preset's
nodes by 4^e scales every number of its report by an exact power of 2,
and scaling a random mesh by 4^e every array of its Spectrum.

Powers of 4 keep sqrt(h) exact, and every sum, sine argument and
quotient of the library scales by a power of 2 with its inputs, so a
report float x of the sweep scaled by s = 4^e is x(1) s^p, with p the
float's own law: p = 1 for lengths, -2 for eigenvalues and their
errors, 0 for rates and relative quantities, and -1 for the flux norms
(sigma in L2, u in H1).  A scale-dependent constant anywhere on the
report path, a tolerance or an offset, moves some float off its power
of 2, or gives one key two laws."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rrteig.assembly import assemble_mixed
from rrteig.cli import case_preset, run_case
from rrteig.eigensolve import SolveOptions, solve_mixed_eigs
from rrteig.mesh import build_mesh

_POWERS = (-20, -3, 3, 20, 40)


def _leaves(obj, path=()):
    """(path, value) of every leaf of a report dict, each list index
    read as "*", without the wall-clock time_seconds."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key != "time_seconds":
                yield from _leaves(value, (*path, key))
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _leaves(value, (*path, "*"))
    else:
        yield path, obj


def _law(got, want, e):
    """The p of got == want 2^(p e) for an integer p, None for a zero or a
    NaN, which must stay what it is; AssertionError if got is no such
    multiple."""
    if want == 0.0 or math.isnan(want):
        assert got == want or (math.isnan(got) and math.isnan(want))
        return None
    j = math.frexp(got)[1] - math.frexp(want)[1]
    assert got == math.ldexp(want, j), (got, want)
    assert j % e == 0, (got, want)
    return j // e


@pytest.mark.parametrize("case", "abc")
def test_report_scales_by_exact_powers_of_two(case):
    """Preset a, b or c at levels = 3, its nodes scaled by 4^e for e in
    -20, -3, 3, 20 and 40: every report float is the unscaled one times
    4^(p e), with one p per key whatever e and the entry; rates read p =
    0, so they are equal, as are the flags, the integers and the labels."""
    base = dataclasses.replace(case_preset(case), levels=3)
    want = list(_leaves(run_case(base).to_dict()))
    laws = {}
    for e in _POWERS:
        scale = 4.0 ** e
        scaled = dataclasses.replace(
            base, node_x=tuple(np.multiply(base.node_x, scale)),
            node_y=tuple(np.multiply(base.node_y, scale)))
        got = list(_leaves(run_case(scaled).to_dict()))
        assert [path for path, _ in got] == [path for path, _ in want]
        for (path, g), (_, w) in zip(got, want):
            if isinstance(w, float):
                law = _law(g, w, 2 * e)
                if law is not None:
                    laws.setdefault(path, set()).add(law)
            else:
                assert type(g) is type(w) and g == w, path
    assert all(len(found) == 1 for found in laws.values()), laws
    rates = [path for path in laws
             if any(str(key).endswith("rates") for key in path)]
    assert rates and all(laws[path] == {0} for path in rates)
    assert laws[("levels", "*", "lambdas", "*")] == {-2}
    assert laws[("levels", "*", "h")] == {1}


# the exponent p of each table array's law x(4^e) = x(1) 2^(p e): mu, v,
# the flux and the five sums |D v|^2, |rho1|^2, |A1 f|^2, |rho2|^2 and
# <D v, rho2>, one row each
_TABLE_LAWS = (-4, -1, -3, np.array([2, -2, -2, -6, -2])[:, None])


@st.composite
def _random_meshes(draw):
    """Random tensor meshes of [0, a] x [0, b]: 2 to 300 cells per
    direction, so that the closed form, the dense path and the inverse
    iteration all run, and a width ratio up to 1e3 (1, equal widths,
    often)."""
    nodes = []
    for axis in "xy":
        n = draw(st.integers(2, 300), label=f"n_{axis}")
        ratio = draw(st.floats(1.0, 1e3), label=f"width ratio {axis}")
        seed = draw(st.integers(0, 2**32 - 1), label=f"widths {axis}")
        widths = np.exp(np.random.default_rng(seed).uniform(
            0.0, np.log(ratio), n))
        span = draw(st.floats(0.5, 4.0), label=f"span {axis}")
        nodes.append(np.concatenate([[0.0], np.cumsum(widths)])
                     * (span / widths.sum()))
    return nodes


def _assert_scaled(got, want, p, e):
    """got is want times 2^(p e) bit for bit; p broadcasts against want."""
    want = np.ldexp(want, np.multiply(p, e))
    assert (got.dtype, got.shape, got.tobytes()) == (
        want.dtype, want.shape, want.tobytes())


@settings(max_examples=20, deadline=None, derandomize=True)
@given(nodes=_random_meshes(), e=st.integers(-60, 60),
       k=st.integers(1, 48))
def test_spectrum_scales_by_exact_powers_of_two(nodes, e, k):
    """A random mesh scaled by 4^e, e in [-60, 60], solved for its k <= 48
    smallest pairs: every array of its Spectrum is the unscaled one times
    its power of 2, bit for bit, in each 1-D table mu and the eigenvalues
    by 4^-2e, v by 2^-e, the flux by 2^-3e and the five sums by 4^e,
    4^-e, 4^-e, 4^-3e and 4^-e; the residuals, table columns and labels
    are equal."""
    k = min(k, (len(nodes[0]) - 1) * (len(nodes[1]) - 1))
    want, got = (solve_mixed_eigs(assemble_mixed(build_mesh(
        *(x * 4.0 ** s for x in nodes))), SolveOptions(k)) for s in (0, e))
    _assert_scaled(got.lambdas, want.lambdas, -4, e)
    for g, w in ((got.x, want.x), (got.y, want.y)):
        for a, b, p in zip(g, w, _TABLE_LAWS):
            _assert_scaled(a, b, p, e)
    for a, b in ((got.residuals, want.residuals), (got.ii, want.ii),
                 (got.jj, want.jj)):
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())
    assert got.modes == want.modes
