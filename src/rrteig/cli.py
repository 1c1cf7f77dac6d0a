"""Experiment driver: refinement sweeps over the built-in mesh cases with
eigenvalue tables, expansion residuals, supercloseness / postprocessing
norms, extrapolation, bounds, frequency matching and equivalence checks,
emitted as deterministic text tables and a full-precision report."""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .analysis import (
    check_upper_bound,
    convergence_rate,
    expansion_term,
    extrapolate,
    lower_bound_margin,
    match_frequencies,
)
from .assembly import assemble_mixed
from .eigensolve import SolveOptions, solve_mixed_eigs
from .equivalence import verify_equivalence
from .errors import RRTError, InvalidConfig, IoFailure
from .exact import (
    align_exact_representative,
    enumerate_exact,
    field_for_mode,
    l2_project_exact,
    rt_interpolate_exact,
)
from .eigensolve import MixedEigenpair
from .mesh import (
    TensorMesh,
    build_mesh,
    mesh_size,
    regularity_constant,
    uniform_refine,
)
from .postprocess import (
    error_norms_postprocessed,
    i2h_sigma,
    j2h_u,
    supercloseness_norms,
)

ALL_ANALYSES = (
    "eigenvalues",
    "residuals",
    "supercloseness",
    "postprocessing",
    "extrapolation",
    "bounds",
    "frequencies",
    "equivalence",
)

_FORMATS = ("delimited-text", "aligned-text", "structured-document")
_EXT = {"delimited-text": "csv", "aligned-text": "txt",
        "structured-document": "json"}

_NUMBER = (int, float)
# JSON type of each config value and, for an array, of its items; a
# boolean is never a number here
_VALUE_TYPES = {
    "name": (str, None, "a string"),
    "node_x": (list, _NUMBER, "an array of numbers"),
    "node_y": (list, _NUMBER, "an array of numbers"),
    "levels": (int, None, "an integer"),
    "k": (int, None, "an integer"),
    "tol": (_NUMBER, None, "a number"),
    "analyses": (list, str, "an array of strings"),
    "equiv_max_cells": (int, None, "an integer"),
}


def _is_json_type(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """One refinement-sweep experiment.

    ``levels`` is the number of refinements L; levels 0..L are all solved.
    ``analyses`` selects which per-level computations run.
    """

    name: str
    node_x: tuple[float, ...]
    node_y: tuple[float, ...]
    levels: int = 4
    k: int = 6
    tol: float = 1e-10
    analyses: tuple[str, ...] = ALL_ANALYSES
    equiv_max_cells: int = 1200

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        unknown = set(self.analyses) - set(ALL_ANALYSES)
        if unknown:
            raise ValueError(f"unknown analyses: {sorted(unknown)}")

    def initial_mesh(self) -> TensorMesh:
        return build_mesh(np.array(self.node_x), np.array(self.node_y))


def case_preset(name: str) -> ExperimentConfig:
    """Built-in experiment cases on [0, pi]^2.

    a) uniform 8x8; b) quasi-uniform 8x16; c) nonuniform 5x5.
    """
    pi = np.pi
    if name == "a":
        return ExperimentConfig(
            name="a",
            node_x=tuple(np.linspace(0.0, pi, 9)),
            node_y=tuple(np.linspace(0.0, pi, 9)),
            k=6,
        )
    if name == "b":
        return ExperimentConfig(
            name="b",
            node_x=tuple(np.linspace(0.0, pi, 9)),
            node_y=tuple(np.linspace(0.0, pi, 17)),
            k=12,
            analyses=tuple(
                a for a in ALL_ANALYSES
                if a not in ("frequencies", "supercloseness", "postprocessing")
            ),
        )
    if name == "c":
        return ExperimentConfig(
            name="c",
            node_x=(0.0, pi / 4, pi / 2, 2 * pi / 3, 5 * pi / 6, pi),
            node_y=(0.0, pi / 6, pi / 3, pi / 2, 3 * pi / 4, pi),
            k=12,
            analyses=tuple(
                a for a in ALL_ANALYSES
                if a not in ("frequencies", "supercloseness", "postprocessing")
            ),
        )
    raise ValueError(f"unknown case {name!r}; choose from a, b, c")


def load_config(path: str) -> ExperimentConfig:
    """Read an ExperimentConfig from a JSON document."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise IoFailure(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidConfig(f"config {path} must be a JSON object")
    known = fields(ExperimentConfig)
    unknown = sorted(set(raw) - {f.name for f in known})
    missing = [f.name for f in known if f.default is MISSING and f.name not in raw]
    if unknown or missing:
        raise InvalidConfig(
            f"config {path}: unknown keys {unknown}, missing keys {missing}"
        )
    for key, value in raw.items():
        kind, item, want = _VALUE_TYPES[key]
        if not _is_json_type(value, kind) or (
            item and not all(_is_json_type(v, item) for v in value)
        ):
            raise InvalidConfig(f"config {path}: {key} must be {want}, "
                                f"got {json.dumps(value)}")
    for key in ("node_x", "node_y", "analyses"):
        if key in raw:
            raw[key] = tuple(raw[key])
    return ExperimentConfig(**raw)


# ---------------------------------------------------------------------------
# per-level computation
# ---------------------------------------------------------------------------


def _residual_indices(config, mesh, exact):
    """Table rows: all of the first k on uniform meshes, else the simple
    eigenvalues among the first k."""
    if mesh.is_uniform():
        return list(range(min(config.k, 6)))
    return [i for i, e in enumerate(exact[: config.k]) if e.multiplicity == 1]


def _aligned_field(pair, exact_pair, mesh):
    if exact_pair.multiplicity == 1:
        m, n = exact_pair.modes()[0]
        return field_for_mode(m, n, exact_pair.domain)
    return align_exact_representative(pair, exact_pair, mesh)


def _sign_matched(pair, pi0_u, areas):
    """Flip the discrete pair so its cell means correlate positively with
    the exact projection."""
    s = 1.0 if float(np.sum(areas * pi0_u * pair.u_coeffs)) >= 0 else -1.0
    if s > 0:
        return pair
    return MixedEigenpair(
        lambda_h=pair.lambda_h,
        sigma_coeffs=-pair.sigma_coeffs,
        u_coeffs=-pair.u_coeffs,
        residual_norm=pair.residual_norm,
    )


def _solve(config: ExperimentConfig, mesh: TensorMesh, equivalence: bool):
    """Assemble and solve one level.  For the equivalence check three pairs
    more than k are solved, where the spectrum holds them, so that a
    cluster straddling index k is compared in full; the first k pairs are
    bitwise the same either way."""
    system = assemble_mixed(mesh)
    k = config.k
    if equivalence:
        k = max(k, min(k + 3, mesh.n_cells))
    return system, solve_mixed_eigs(system, SolveOptions(k=k, tol=config.tol))


def _solve_level(config: ExperimentConfig, mesh: TensorMesh, exact):
    t0 = time.perf_counter()
    run = set(config.analyses)
    equivalence = ("equivalence" in run
                   and mesh.n_cells <= config.equiv_max_cells)
    system, solved = _solve(config, mesh, equivalence)
    pairs = solved[: config.k]
    rec = {
        "level": mesh.level,
        "n1": mesh.n1,
        "n2": mesh.n2,
        "h": mesh_size(mesh),
        "lambdas": [p.lambda_h for p in pairs],
    }
    areas = system.M

    if "residuals" in run:
        resid = {}
        for t in _residual_indices(config, mesh, exact):
            fld = _aligned_field(pairs[t], exact[t], mesh)
            e1 = pairs[t].lambda_h - exact[t].value
            e2 = expansion_term(mesh, fld)
            resid[str(t + 1)] = {"e1": e1, "e2": e2, "r": e1 - e2}
        rec["residuals"] = resid

    if "supercloseness" in run:
        fld = field_for_mode(1, 1, exact[0].domain)
        sigma_i = rt_interpolate_exact(mesh, fld)
        pi0 = l2_project_exact(mesh, fld)
        pair = _sign_matched(pairs[0], pi0, areas)
        sc = supercloseness_norms(system, pair, sigma_i, pi0)
        rec["supercloseness"] = {
            "norm_sigma": sc.norm_sigma,
            "norm_div": sc.norm_div,
            "norm_u": sc.norm_u,
        }

    if "postprocessing" in run and mesh.n1 % 2 == 0 and mesh.n2 % 2 == 0:
        fld = field_for_mode(1, 1, exact[0].domain)
        pi0 = l2_project_exact(mesh, fld)
        pair = _sign_matched(pairs[0], pi0, areas)
        f_sigma = i2h_sigma(mesh, pair.sigma_coeffs)
        f_u = j2h_u(mesh, pair.u_coeffs)
        rec["postprocessing"] = {
            "sigma_l2": error_norms_postprocessed(f_sigma, fld, order=0),
            "sigma_h1": error_norms_postprocessed(f_sigma, fld, order=1),
            "u_l2": error_norms_postprocessed(f_u, fld, order=0),
            "u_h1": error_norms_postprocessed(f_u, fld, order=1),
        }

    if "bounds" in run:
        margins = check_upper_bound(
            [p.lambda_h for p in pairs], [e.value for e in exact[: config.k]]
        )
        rec["upper_margins"] = [m for m, _ in margins]
        rec["upper_bound_ok"] = all(ok for _, ok in margins)
        a_reg = regularity_constant(mesh)
        rec["lower_margins"] = [
            lower_bound_margin(p.lambda_h, e.value, a_reg, mesh_size(mesh))
            for p, e in zip(pairs, exact)
        ]

    if "frequencies" in run and mesh.is_uniform():
        matches = []
        h = float(mesh.hx[0])
        start = 0
        while start < config.k:
            mult = exact[start].multiplicity
            if start + mult > config.k:
                break
            if mult > 1:
                for m in match_frequencies(
                    pairs[start : start + mult], exact[start], h
                ):
                    matches.append({
                        "lambda_h": m.lambda_h,
                        "m": m.frequency.m,
                        "n": m.frequency.n,
                        "predicted_shift": m.predicted_shift,
                        "observed_shift": m.observed_shift,
                    })
            start += mult
        rec["frequency_matches"] = matches

    if equivalence:
        eq = verify_equivalence(system, solved, config.k)
        rec["equivalence"] = {
            "max_eig_rel_diff": eq.max_eig_rel_diff,
            "max_sigma_discrepancy": eq.max_sigma_discrepancy,
            "max_u_discrepancy": eq.max_u_discrepancy,
            "max_flux_jump": eq.max_flux_jump,
        }

    rec["time_seconds"] = time.perf_counter() - t0
    return rec


@dataclass
class RunReport:
    """All raw numbers of one experiment, JSON-serializable."""

    config: dict
    exact_values: list[float]
    levels: list[dict]
    eigen_rates: list[float]
    residual_rates: dict
    extrapolation: dict | None

    def to_dict(self) -> dict:
        return asdict(self)


def run_case(config: ExperimentConfig) -> RunReport:
    """Solve every refinement level of the configured case and analyze.

    Exact fields live on [0, a] x [0, b], so the node vectors must start
    at 0; any other origin raises InvalidConfig before level 0."""
    mesh = config.initial_mesh()
    if mesh.node_x[0] != 0.0 or mesh.node_y[0] != 0.0:
        raise InvalidConfig(
            f"config {config.name}: node vectors must start at 0, got "
            f"x0={mesh.node_x[0]!r}, y0={mesh.node_y[0]!r}"
        )
    exact = enumerate_exact((mesh.node_x[-1], mesh.node_y[-1]), count=config.k)
    levels = []
    failures = []
    for lvl in range(config.levels + 1):
        if lvl > 0:
            mesh = uniform_refine(mesh)
        try:
            levels.append(_solve_level(config, mesh, exact))
        except RRTError as exc:  # keep partial results, mark the failure
            failures.append({"level": lvl, "error": type(exc).__name__,
                             "message": str(exc)})
            levels.append({"level": lvl, "failed": True})

    eigen_rates = []
    for t in range(config.k):
        try:
            e_coarse = levels[-2]["lambdas"][t] - exact[t].value
            e_fine = levels[-1]["lambdas"][t] - exact[t].value
            eigen_rates.append(convergence_rate(e_coarse, e_fine))
        except KeyError:
            eigen_rates.append(float("nan"))

    residual_rates = {}
    if all("residuals" in lv for lv in levels[-2:]):
        for key in levels[-1]["residuals"]:
            if key in levels[-2]["residuals"]:
                residual_rates[key] = convergence_rate(
                    levels[-2]["residuals"][key]["r"],
                    levels[-1]["residuals"][key]["r"],
                )

    extrap = None
    if "extrapolation" in config.analyses:
        lam0 = exact[0].value
        vals = [lv["lambdas"][0] for lv in levels if "lambdas" in lv]
        tilde = [extrapolate(a, b) for a, b in zip(vals[:-1], vals[1:])]
        errs = [t - lam0 for t in tilde]
        rates = [
            convergence_rate(a, b) for a, b in zip(errs[:-1], errs[1:])
        ]
        extrap = {"values": tilde, "errors": errs, "rates": rates}

    report = RunReport(
        config=asdict(config),
        exact_values=[e.value for e in exact],
        levels=levels,
        eigen_rates=eigen_rates,
        residual_rates=residual_rates,
        extrapolation=extrap,
    )
    if failures:
        report.config["failures"] = failures
    return report


# ---------------------------------------------------------------------------
# table rendering
# ---------------------------------------------------------------------------


def _render_rows(header, rows, fmt):
    if fmt == "delimited-text":
        lines = [",".join(header)]
        lines += [",".join(r) for r in rows]
        return "\n".join(lines) + "\n"
    if fmt == "aligned-text":
        widths = [
            max(len(h), *(len(r[c]) for r in rows)) if rows else len(h)
            for c, h in enumerate(header)
        ]
        def line(cells):
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
        return "\n".join([line(header)] + [line(r) for r in rows]) + "\n"
    # structured-document
    return json.dumps(
        {"header": header, "rows": rows}, sort_keys=True, indent=2
    ) + "\n"


def eigen_table(report: dict, fmt: str) -> str:
    """Eigenvalue table: one row per index, columns per level, trend, rate."""
    levels = [lv for lv in report["levels"] if "lambdas" in lv]
    k = len(report["exact_values"])
    header = ([""] + [f"T_h{lv['level']}" for lv in levels]
              + ["Trend", "Rate"])
    rows = []
    for t in range(min(k, 6)):
        vals = [lv["lambdas"][t] for lv in levels]
        trend = "↘" if all(b <= a for a, b in zip(vals[:-1], vals[1:])) else "↗"
        rate = report["eigen_rates"][t]
        rows.append(
            [f"lambda_{t + 1}"] + [f"{v:.4f}" for v in vals]
            + [trend, f"{rate:.2f}"]
        )
    return _render_rows(header, rows, fmt)


def residual_table(report: dict, fmt: str) -> str:
    """Expansion-residual table in 3-significant-digit scientific notation."""
    levels = [lv for lv in report["levels"] if "residuals" in lv]
    if not levels:
        return _render_rows([""], [], fmt)
    header = [""] + [f"T_h{lv['level']}" for lv in levels] + ["Rate"]
    rows = []
    for key in sorted(levels[-1]["residuals"], key=int):
        vals = [lv["residuals"][key]["r"] for lv in levels
                if key in lv["residuals"]]
        rate = report["residual_rates"].get(key, float("nan"))
        rows.append([f"r_{key}"] + [f"{v:.2e}" for v in vals]
                    + [f"{rate:.2f}"])
    return _render_rows(header, rows, fmt)


def figure_data(report: dict, fmt: str) -> str:
    """(h, e1, e2) triples for the first eigenvalue, one row per level."""
    header = ["h", "e1", "e2"]
    rows = []
    for lv in report["levels"]:
        if "residuals" in lv and "1" in lv["residuals"]:
            r = lv["residuals"]["1"]
            rows.append([f"{lv['h']:.17g}", f"{r['e1']:.17g}",
                         f"{r['e2']:.17g}"])
    return _render_rows(header, rows, fmt)


def emit_tables(report, fmt: str, out_dir: str) -> list[str]:
    """Write the eigenvalue / residual / figure tables and the raw report."""
    import os

    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    rep = report.to_dict() if isinstance(report, RunReport) else report
    # written artifacts are byte-deterministic: wall-clock stays in-memory
    rep = json.loads(json.dumps(rep))
    for lv in rep["levels"]:
        lv.pop("time_seconds", None)
    name = rep["config"]["name"]
    ext = _EXT[fmt]
    files = {
        f"{name}_eigenvalues.{ext}": eigen_table(rep, fmt),
        f"{name}_residuals.{ext}": residual_table(rep, fmt),
        f"{name}_figure.{ext}": figure_data(rep, fmt),
        f"{name}_report.json": json.dumps(rep, sort_keys=True, indent=2) + "\n",
    }
    written = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        for fname, text in files.items():
            path = os.path.join(out_dir, fname)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            written.append(path)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    return written


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _config_from_args(args, with_levels=True) -> ExperimentConfig:
    if getattr(args, "config", None):
        config = load_config(args.config)
    else:
        config = case_preset(args.case)
    overrides = {}
    if with_levels and getattr(args, "levels", None) is not None:
        overrides["levels"] = args.levels
    if getattr(args, "k", None) is not None:
        overrides["k"] = args.k
    if getattr(args, "tol", None) is not None:
        overrides["tol"] = args.tol
    if overrides:
        base = asdict(config)
        base.update(overrides)
        for key in ("node_x", "node_y", "analyses"):
            base[key] = tuple(base[key])
        config = ExperimentConfig(**base)
    return config


def _add_common(p, with_case=True):
    if with_case:
        p.add_argument("--case", choices=("a", "b", "c"), default="a")
        p.add_argument("--config", help="JSON config file (overrides --case)")
        p.add_argument("--levels", type=int, default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--format", choices=_FORMATS, default="aligned-text")


def _refined(config, level):
    if level < 0:
        raise ValueError(f"levels must be >= 0, got {level}")
    mesh = config.initial_mesh()
    for _ in range(level):
        mesh = uniform_refine(mesh)
    return mesh


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rrteig",
        description="Mixed rectangular flux-element eigenvalue experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("run", help="full refinement sweep"))
    _add_common(sub.add_parser("eigs", help="solve one level only"))
    _add_common(sub.add_parser("equiv", help="element-equivalence check"))
    p_table = sub.add_parser("table", help="re-render a stored report")
    p_table.add_argument("report", help="path to a *_report.json file")
    _add_common(p_table, with_case=False)
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            config = _config_from_args(args)
            report = run_case(config)
            rep = report.to_dict()
            sys.stdout.write(eigen_table(rep, args.format))
            sys.stdout.write(residual_table(rep, args.format))
            if args.out:
                for path in emit_tables(rep, args.format, args.out):
                    print(f"wrote {path}")
            if "failures" in rep["config"]:
                sys.stderr.write(json.dumps(
                    {"failures": rep["config"]["failures"]}, sort_keys=True
                ) + "\n")
                return 2
            return 0

        if args.command == "eigs":
            config = _config_from_args(args, with_levels=False)
            level = args.levels if args.levels is not None else 0
            mesh = _refined(config, level)
            _, pairs = _solve(config, mesh, equivalence=False)
            for t, p in enumerate(pairs):
                print(f"lambda_{t + 1} = {p.lambda_h:.17g}")
            return 0

        if args.command == "equiv":
            config = _config_from_args(args, with_levels=False)
            level = args.levels if args.levels is not None else 0
            mesh = _refined(config, level)
            system, pairs = _solve(config, mesh, equivalence=True)
            rep = verify_equivalence(system, pairs, config.k)
            for e in rep.entries:
                print(
                    f"lambda={e.lambda_rrt:.17g} rel_diff={e.eig_rel_diff:.3e} "
                    f"sigma={e.sigma_discrepancy:.3e} "
                    f"u={e.u_discrepancy:.3e} cluster={e.cluster_size}"
                )
            print(f"max_flux_jump={rep.max_flux_jump:.3e}")
            return 0

        # table
        try:
            with open(args.report) as f:
                rep = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise IoFailure(f"cannot read report {args.report}: {exc}")
        sys.stdout.write(eigen_table(rep, args.format))
        sys.stdout.write(residual_table(rep, args.format))
        if args.out:
            for path in emit_tables(rep, args.format, args.out):
                print(f"wrote {path}")
        return 0
    except (RRTError, ValueError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)},
            sort_keys=True,
        ) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
