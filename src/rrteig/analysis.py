"""Quantitative eigenvalue analysis: expansion terms, convergence rates,
extrapolation, bounds and frequency matching."""

from __future__ import annotations

import numpy as np

from .exact import FieldSample, _require_domain, strip_integrals_k2_du_sq
from .mesh import TensorMesh

_BOUND_REL_TOL = 1e-12  # relative roundoff slack of the upper-bound flag


def expansion_term(mesh: TensorMesh, fields) -> np.ndarray:
    """Dominant h^2 term of the eigenvalue error of each mode u = amp
    sin(kx x) sin(ky y) of ``fields`` on any tensor mesh, one array entry
    per field:

    (1/12) sum_K ( kx^2 h_x^2 int_K u_x^2 + ky^2 h_y^2 int_K u_y^2 ),

    with all cell integrals in closed form: the sum of the 1-D terms
    (mu / 12) sum_K h_K^2 int_K phi'^2 of the two factors.  It is derived
    and verified numerically (rate 4 of the remainder on random meshes),
    not proved; on a uniform mesh it equals the u_xx^2, u_yy^2 form.  The
    strip terms of each field are added in sequence, x-strips first (a
    running sum, not numpy's pairwise one), which fixes the rounding of
    the 17-digit e2 column.
    """
    _require_domain(mesh, fields)
    ix, iy = strip_integrals_k2_du_sq(fields, mesh.node_x, mesh.node_y)
    # float_power squares through libm pow like a scalar h ** 2; np.square
    # (an array's h ** 2) rounds 1 ulp apart on rare widths
    terms = np.concatenate([np.float_power(mesh.hx, 2) * ix,
                            np.float_power(mesh.hy, 2) * iy], axis=1)
    return np.cumsum(terms, axis=1)[:, -1] / 12.0


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
    square = abs(domain[0] - domain[1]) <= 1e-12 * max(domain)
    out = []
    for p, shift in zip(pairs, shifts):
        m, n = sorted(p.mode) if square else p.mode
        out.append({"lambda_h": p.lambda_h, "m": m, "n": n,
                    "predicted_shift": shift, "observed_shift":
                    p.lambda_h - FieldSample(*p.mode, domain).value})
    return out
