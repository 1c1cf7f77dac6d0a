"""Quantitative eigenvalue analysis: expansion terms, convergence rates,
extrapolation, bounds and frequency matching."""

from __future__ import annotations

import numpy as np

from .exact import FieldSample, _cos_sq_integrals, _require_domain
from .mesh import TensorMesh

_BOUND_REL_TOL = 1e-12  # relative roundoff slack of the upper-bound flag


def expansion_term(mesh: TensorMesh, fields) -> np.ndarray:
    """Dominant h^2 term of the eigenvalue error of each mode u = amp
    sin(kx x) sin(ky y) of ``fields`` on any tensor mesh, one array entry
    per field: (1/12) sum_K (kx^2 h_x^2 int_K u_x^2 + ky^2 h_y^2 int_K u_y^2),
    derived and verified numerically (rate 4 of the remainder on random
    meshes), not proved.  As sin^2 integrates to half the side a across a
    direction, it is the sum of two 1-D terms (k^4 / 6a) sum_i h_i^2 int_I_i
    cos(k x)^2, each field's row reduced alone, so the other fields do not
    change its bits."""
    _require_domain(mesh, fields)
    side = np.array([f.domain for f in fields], float).reshape(-1, 2)
    k = np.array([(f.kx, f.ky) for f in fields]).reshape(-1, 2)
    total = np.zeros(len(fields))
    for d, nodes in enumerate((mesh.node_x, mesh.node_y)):
        cells = np.diff(nodes) ** 2 * _cos_sq_integrals(k[:, d:d + 1], nodes)
        total += (k[:, d] ** 2) ** 2 / (6.0 * side[:, d]) * cells.sum(axis=1)
    return total


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
