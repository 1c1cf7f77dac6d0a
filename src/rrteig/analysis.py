"""Quantitative eigenvalue analysis: expansion terms, convergence rates,
extrapolation, bounds and frequency matching."""

from __future__ import annotations

import numpy as np

from .exact import FieldSample, mode_tables
from .mesh import TensorMesh

_BOUND_REL_TOL = 1e-12  # relative roundoff slack of the upper-bound flag


def expansion_term(mesh: TensorMesh, fields) -> np.ndarray:
    """Dominant h^2 term of the eigenvalue error of each mode u = amp
    sin(kx x) sin(ky y) of ``fields`` on any tensor mesh, one array entry
    per field: (1/12) sum_K (kx^2 h_x^2 int_K u_x^2 + ky^2 h_y^2 int_K u_y^2),
    derived and verified numerically (rate 4 of the remainder on random
    meshes), not proved: as sin^2 integrates to half a side across a
    direction, it is rows m - 1 and n - 1 of the x and y ModeTable sums."""
    terms = []
    for f in fields:
        x, y = mode_tables(mesh, f.domain, f.m, f.n)
        terms.append(x.sums[f.m - 1] + y.sums[f.n - 1])
    return np.array(terms, dtype=float)


def convergence_rate(coarse_err: float, fine_err: float) -> float:
    """log2 |coarse_err / fine_err| between successive levels; NaN when
    either error is below 1e-300."""
    if abs(coarse_err) < 1e-300 or abs(fine_err) < 1e-300:
        return float("nan")
    return float(np.log2(abs(coarse_err) / abs(fine_err)))


def extrapolate(lambda_h: float, lambda_half: float) -> float:
    """Richardson combination (4 lambda_{h/2} - lambda_h) / 3."""
    return (4.0 * lambda_half - lambda_h) / 3.0


def check_upper_bound(lambdas_h, exact):
    """Margins lambda_h - lambda with a flag per matched index."""
    out = []
    for lh, lam in zip(lambdas_h, exact):
        margin = lh - lam
        out.append((margin, bool(margin >= -_BOUND_REL_TOL * lam)))
    return out


def lower_bound_margin(lambda_h: float, lam: float, a: float, h: float) -> float:
    """(lambda_h - lambda) minus the guaranteed h^2 floor lambda^2 h^2 / (24 a^2)."""
    return (lambda_h - lam) - lam**2 * h**2 / (24.0 * a**2)


def match_frequencies(pairs, shifts, domain) -> list[dict]:
    """Frequency and h^2 shifts of labelled pairs on a mesh of
    [0, a] x [0, b], one record (lambda_h, m, n, predicted_shift,
    observed_shift) per pair.

    Each pair's mode label (m, n) names its frequency, unordered on a
    square, where (m, n) and (n, m) share one eigenvalue.  The predicted
    shift, one of ``shifts``, is the label's expansion term on the mesh,
    and the observed shift is lambda_h minus the label's exact eigenvalue.
    """
    return _matches([(p.lambda_h, p.mode, shift,
                      FieldSample(*p.mode, domain).value)
                     for p, shift in zip(pairs, shifts)], domain)


def _matches(rows, domain) -> list[dict]:
    """The records of match_frequencies, one per row (lambda_h, (m, n),
    predicted shift, exact eigenvalue of the label)."""
    square = abs(domain[0] - domain[1]) <= 1e-12 * max(domain)
    return [{"lambda_h": lam, "m": min(mode) if square else mode[0],
             "n": max(mode) if square else mode[1],
             "predicted_shift": shift, "observed_shift": lam - value}
            for lam, mode, shift, value in rows]
