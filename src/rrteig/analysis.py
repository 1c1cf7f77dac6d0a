"""Quantitative eigenvalue analysis: expansion terms, convergence rates,
extrapolation, bounds, frequency matching and eigenspace gaps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolve import MixedEigenpair
from .errors import AmbiguousAssignment, DimensionMismatch
from .exact import ExactEigenpair, FieldSample, Frequency
from .mesh import TensorMesh


def expansion_term(mesh: TensorMesh, exact_rep: FieldSample) -> float:
    """Dominant h^2 term of the eigenvalue error:

    (1/12) sum_K ( h_x^2 int_K u_xx^2 + h_y^2 int_K u_yy^2 ),

    with all cell integrals in closed form.
    """
    nx, ny = mesh.node_x, mesh.node_y
    hx, hy = mesh.hx, mesh.hy
    x0, x1 = nx[0], nx[-1]
    y0, y1 = ny[0], ny[-1]
    # separable: weights depend on one direction only
    total = 0.0
    for i in range(mesh.n1):
        total += hx[i] ** 2 * exact_rep.cell_integral_uxx_sq(
            nx[i], nx[i + 1], y0, y1
        )
    for j in range(mesh.n2):
        total += hy[j] ** 2 * exact_rep.cell_integral_uyy_sq(
            x0, x1, ny[j], ny[j + 1]
        )
    return total / 12.0


def convergence_rate(coarse_err: float, fine_err: float) -> float:
    """log2 |coarse_err / fine_err| between successive levels; NaN when
    either error is below 1e-300."""
    if abs(coarse_err) < 1e-300 or abs(fine_err) < 1e-300:
        return float("nan")
    return float(np.log2(abs(coarse_err) / abs(fine_err)))


def extrapolate(lambda_h: float, lambda_half: float) -> float:
    """Richardson combination (4 lambda_{h/2} - lambda_h) / 3."""
    return (4.0 * lambda_half - lambda_h) / 3.0


def check_upper_bound(lambdas_h, exact, rel_tol: float = 1e-12):
    """Margins lambda_h - lambda with a flag per matched index."""
    out = []
    for lh, lam in zip(lambdas_h, exact):
        margin = lh - lam
        out.append((margin, bool(margin >= -rel_tol * lam)))
    return out


def lower_bound_margin(lambda_h: float, lam: float, a: float, h: float) -> float:
    """(lambda_h - lambda) minus the guaranteed h^2 floor lambda^2 h^2 / (24 a^2)."""
    return (lambda_h - lam) - lam**2 * h**2 / (24.0 * a**2)


@dataclass(frozen=True)
class FrequencyMatch:
    lambda_h: float
    frequency: Frequency
    predicted_shift: float
    observed_shift: float


def match_frequencies(
    pairs, exact: ExactEigenpair, h: float
) -> list[FrequencyMatch]:
    """Assign cluster members to frequency pairs on a uniform mesh.

    Each discrete eigenvalue takes the frequency whose predicted shift
    (m^4 + n^4) h^2 / 12 is nearest to the observed shift; the assignment
    must respect the eigenspace dimensions (one member for m = n, two
    otherwise) and be well separated, else AmbiguousAssignment.
    """
    lam = exact.value
    lambdas = [p.lambda_h if isinstance(p, MixedEigenpair) else float(p)
               for p in pairs]
    if len(lambdas) != exact.multiplicity:
        raise AmbiguousAssignment(
            f"cluster size {len(lambdas)} != multiplicity {exact.multiplicity}"
        )
    preds = {f: f.shift_weight * h * h / 12.0 for f in exact.frequencies}
    out = []
    for lh in lambdas:
        shift = lh - lam
        ranked = sorted(preds, key=lambda f: abs(shift - preds[f]))
        best = ranked[0]
        resid = abs(shift - preds[best])
        if len(ranked) > 1:
            gap = abs(preds[ranked[0]] - preds[ranked[1]])
            if gap < 2.0 * resid:
                raise AmbiguousAssignment(
                    f"predictions separated by {gap:.3e} but residual {resid:.3e}"
                )
        out.append(FrequencyMatch(
            lambda_h=lh, frequency=best,
            predicted_shift=preds[best], observed_shift=shift,
        ))
    counts = {f: 0 for f in exact.frequencies}
    for m in out:
        counts[m.frequency] += 1
    for f, c in counts.items():
        if c != f.multiplicity:
            raise AmbiguousAssignment(
                f"frequency {f} received {c} members, expected {f.multiplicity}"
            )
    return out


@dataclass(frozen=True)
class EigenspaceBasis:
    """Spanning vectors of a discrete subspace with the metric that
    measures angles (A for flux space, M for cell space)."""

    vectors: tuple[np.ndarray, ...]
    metric: object  # sparse matrix or 1-D diagonal array

    def matrix(self) -> np.ndarray:
        return np.column_stack(self.vectors)

    def apply_metric(self, v):
        if isinstance(self.metric, np.ndarray) and self.metric.ndim == 1:
            return self.metric[:, None] * v if v.ndim == 2 else self.metric * v
        return self.metric @ v


def eigenspace_gap(basis_r: EigenspaceBasis, basis_s: EigenspaceBasis) -> float:
    """Gap sup over unit x in R of ||x - P_S x|| via principal angles."""
    vr, vs = basis_r.matrix(), basis_s.matrix()
    if vr.shape != vs.shape:
        raise DimensionMismatch(
            f"basis shapes {vr.shape} and {vs.shape} differ"
        )
    hr = basis_r.apply_metric(vr)
    gram_r = vr.T @ hr
    gram_s = vs.T @ basis_s.apply_metric(vs)
    for g in (gram_r, gram_s):
        if np.linalg.cond(g) > 1e8:
            raise DimensionMismatch("basis Gram matrix is ill-conditioned")
    lr = np.linalg.cholesky(gram_r)
    ls = np.linalg.cholesky(gram_s)
    # metric-orthonormal bases Q = V L^-T
    qr = np.linalg.solve(lr, vr.T).T
    qs = np.linalg.solve(ls, vs.T).T
    # residual of projecting Q_R onto span(Q_S); forming it directly keeps
    # the result accurate near zero (no 1 - cos^2 cancellation)
    cross = qs.T @ basis_r.apply_metric(qr)
    resid = qr - qs @ cross
    gram_e = resid.T @ basis_r.apply_metric(resid)
    ev = np.linalg.eigvalsh((gram_e + gram_e.T) / 2.0)
    return float(np.sqrt(max(0.0, float(ev.max()))))
