"""Quantitative eigenvalue analysis: convergence rates, extrapolation and
bounds.  The h^2 expansion terms are the exact ModeTables' sums."""

from __future__ import annotations

import numpy as np

_BOUND_REL_TOL = 1e-12  # relative roundoff slack of the upper-bound flag


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
