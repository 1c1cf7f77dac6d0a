"""Exact scale equivariance of a sweep: scaling a preset's nodes by 4^e
scales every number of its report by an exact power of 2.

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

from rrteig.cli import case_preset, run_case

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
