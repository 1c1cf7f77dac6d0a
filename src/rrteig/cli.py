"""Experiment driver: refinement sweeps over the built-in mesh cases with
eigenvalue tables, expansion residuals, supercloseness / postprocessing
norms, extrapolation, bounds, frequency matching and equivalence checks,
emitted as deterministic text tables and a full-precision report."""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
import time
from collections import namedtuple
from dataclasses import MISSING, asdict, dataclass, fields, replace

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
from .eigensolve import SolveOptions, Spectrum, solve_mixed_eigs
from .equivalence import verify_equivalence
from .errors import AmbiguousCluster, RRTError, InvalidConfig, IoFailure
from .exact import FieldSample, enumerate_exact
from .mesh import (
    TensorMesh,
    build_mesh,
    mesh_size,
    regularity_constant,
    uniform_refine,
)
from .postprocess import postprocessing_norms, supercloseness_norms

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

_ANALYSES_B_C = tuple(
    a for a in ALL_ANALYSES
    if a not in ("frequencies", "supercloseness", "postprocessing")
)

# the finest level allowed, in cells (2048^2).  Preset a with every
# analysis (in-process, 2 vCPU, BLAS on one thread) peaks at 65 MiB RSS at
# 1024^2 (levels 7, 0.08-0.09 s) and 66 MiB at 2048^2 (levels 8, 0.11-0.14 s)
_MAX_CELLS = 2**22
# the side lengths a sweep accepts.  Presets a, b and c and two graded
# meshes scaled to side s (the finest levels allowed; k = 12, and 100 and
# 1000 on c; every analysis) keep each report value's law s^p x(1) to
# 3e-3 relative for s from 1e-60 to 1e62: outside, the expansion term's
# (m pi / s)^4 / s overflows or underflows, as do the squared
# supercloseness norms
_SIDE_RANGE = (1e-50, 1e50)

_FORMATS = ("delimited-text", "aligned-text", "structured-document")
_EXT = {"delimited-text": "csv", "aligned-text": "txt",
        "structured-document": "json"}

_ARRAY = (list, tuple, np.ndarray)
# type of each config value and, for an array (a list, tuple or 1-D
# array), of its items; a boolean is never a number here
_VALUE_TYPES = {
    "name": (str, None, "a string"),
    "node_x": (_ARRAY, numbers.Real, "an array of numbers"),
    "node_y": (_ARRAY, numbers.Real, "an array of numbers"),
    "levels": (numbers.Integral, None, "an integer"),
    "k": (numbers.Integral, None, "an integer"),
    "analyses": (_ARRAY, str, "an array of strings"),
}


def _is_a(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _plain(value):
    """A checked scalar as a plain Python value: a str, an int for an
    integral number and a float for any other real number."""
    if isinstance(value, str):
        return str(value)
    return int(value) if isinstance(value, numbers.Integral) else float(value)


def _checked(key: str, value):
    """``value`` as the plain Python value, an array as a tuple, that the
    config holds for ``key``; InvalidConfig if it is of the wrong type."""
    kind, item, want = _VALUE_TYPES[key]
    if _is_a(value, kind):
        if item is None:
            return _plain(value)
        if (getattr(value, "ndim", 1) == 1
                and all(_is_a(v, item) for v in value)):
            try:
                return tuple(_plain(v) for v in value)
            except OverflowError as exc:  # a fraction beyond the float range
                raise InvalidConfig(f"{key} must hold numbers in the float "
                                    f"range: {exc}") from exc
    raise InvalidConfig(f"{key} must be {want}, got {value!r}")


def _file_stem(name):
    """``name``, the stem of every file a report is written to, if it names
    a file inside the output directory: a non-empty string other than "."
    and "..", with no path separator and no NUL; else InvalidConfig."""
    if (not isinstance(name, str) or name in ("", ".", "..")
            or any(c in name for c in "/\\\0")):
        raise InvalidConfig(f"name must be a plain file stem, with no path "
                            f"separator or NUL and not . or .., got {name!r}")
    return name


@dataclass(frozen=True)
class ExperimentConfig:
    """One refinement-sweep experiment.

    ``levels`` is the number of refinements L; levels 0..L are all solved.
    ``analyses`` selects which per-level computations run.  ``name`` is
    the stem of the emitted file names, so it must be a plain file stem
    (_file_stem).  Every value is checked here, whether it comes from a
    JSON document or from code, and held as a plain Python value: an
    array as a tuple, a numpy number as an int or a float.
    """

    name: str
    node_x: tuple[float, ...]
    node_y: tuple[float, ...]
    levels: int = 4
    k: int = 6
    analyses: tuple[str, ...] = ALL_ANALYSES

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name,
                               _checked(f.name, getattr(self, f.name)))
        _file_stem(self.name)
        if self.levels < 1:
            raise InvalidConfig(f"levels must be >= 1, got {self.levels}")
        SolveOptions(k=self.k)  # checks k
        unknown = set(self.analyses) - set(ALL_ANALYSES)
        if unknown:
            raise InvalidConfig(f"unknown analyses: {sorted(unknown)}")

    def initial_mesh(self) -> TensorMesh:
        """The mesh of the node vectors, translated to start at 0: exact
        fields live on [0, a] x [0, b], and run, eigs and equiv all see
        this mesh.  Nodes that start at 0 keep every bit."""
        mesh = build_mesh(self.node_x, self.node_y)
        return build_mesh(mesh.node_x - mesh.node_x[0],
                          mesh.node_y - mesh.node_y[0])


def case_preset(name: str) -> ExperimentConfig:
    """Built-in experiment cases on [0, pi]^2.

    a) uniform 8x8; b) quasi-uniform 8x16; c) nonuniform 5x5.
    """
    pi = np.pi
    if name == "a":
        return ExperimentConfig(
            name="a",
            node_x=np.linspace(0.0, pi, 9),
            node_y=np.linspace(0.0, pi, 9),
            k=6,
        )
    if name == "b":
        return ExperimentConfig(
            name="b",
            node_x=np.linspace(0.0, pi, 9),
            node_y=np.linspace(0.0, pi, 17),
            k=12,
            analyses=_ANALYSES_B_C,
        )
    if name == "c":
        return ExperimentConfig(
            name="c",
            node_x=(0.0, pi / 4, pi / 2, 2 * pi / 3, 5 * pi / 6, pi),
            node_y=(0.0, pi / 6, pi / 3, pi / 2, 3 * pi / 4, pi),
            k=12,
            analyses=_ANALYSES_B_C,
        )
    raise InvalidConfig(f"unknown case {name!r}; choose from a, b, c")


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
    try:
        return ExperimentConfig(**raw)
    except InvalidConfig as exc:
        raise InvalidConfig(f"config {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# per-level computation
# ---------------------------------------------------------------------------


def _residual_indices(config, mesh, exact):
    """Table rows: all of the first k on uniform meshes, else the simple
    eigenvalues among the first k."""
    if mesh.is_uniform():
        return list(range(min(config.k, 6)))
    return [i for i, e in enumerate(exact[: config.k]) if e.multiplicity == 1]


# all that _aligned_field and match_frequencies read of a pair
_Label = namedtuple("_Label", "mode lambda_h")


def _aligned_field(pair, exact_pair):
    """The exact field a pair's residual is measured against: the one mode
    of a simple exact eigenvalue, which the table pairs with the discrete
    pair of the same index whatever its label; for a multiple eigenvalue
    the pair's own labelled mode, which must lie in the eigenspace."""
    if exact_pair.multiplicity == 1:
        mode = exact_pair.modes[0]
    elif pair.mode in exact_pair.modes:
        mode = pair.mode
    else:
        raise AmbiguousCluster(
            f"mode {pair.mode} of lambda_h={pair.lambda_h} is not in the "
            f"eigenspace of lambda={exact_pair.value}"
        )
    return FieldSample(*mode, exact_pair.domain)


def _solve(config: ExperimentConfig, mesh: TensorMesh, *, tables=()):
    """Solve one level, offered ``tables``: the Spectrum of its k pairs."""
    return solve_mixed_eigs(assemble_mixed(mesh), SolveOptions(k=config.k),
                            tables=tables)


@dataclass
class _Level:
    """One solved level: the input of every analysis.  Supercloseness and
    postprocessing measure pairs[0] against the (1, 1) mode as it is: each
    1-D spectrum is simple, so pairs[0] is the (1, 1) pair, and its two
    factors have no sign change and a positive largest entry, so they
    correlate positively with the positive cell means of the field.  The
    pairs' 1-D tables may be the level before's, bitwise equal (run_case)."""

    config: ExperimentConfig
    mesh: TensorMesh
    exact: list
    pairs: Spectrum
    # enumeration count -> the exact eigenspace of each mode, filled by
    # _frequencies and shared by the levels of one sweep
    spaces: dict


def _residuals(lv: _Level) -> dict:
    rows = _residual_indices(lv.config, lv.mesh, lv.exact)
    lams, modes = lv.pairs.lambdas.tolist(), lv.pairs.modes
    fields = [_aligned_field(_Label(modes[t], lams[t]), lv.exact[t])
              for t in rows]
    resid = {}
    for t, e2 in zip(rows, expansion_term(lv.mesh, fields).tolist()):
        e1 = lams[t] - lv.exact[t].value
        resid[str(t + 1)] = {"e1": e1, "e2": e2, "r": e1 - e2}
    return {"residuals": resid}


def _supercloseness(lv: _Level) -> dict:
    return {"supercloseness": supercloseness_norms(
        lv.mesh, lv.pairs[0], FieldSample(1, 1, lv.exact[0].domain))}


def _postprocessing(lv: _Level) -> dict:
    if lv.mesh.n1 % 2 or lv.mesh.n2 % 2:
        return {}
    return {"postprocessing": postprocessing_norms(
        lv.mesh, lv.pairs[0], FieldSample(1, 1, lv.exact[0].domain))}


def _bounds(lv: _Level) -> dict:
    lambdas = lv.pairs.lambdas.tolist()
    margins = check_upper_bound(
        lambdas, [e.value for e in lv.exact[: lv.config.k]]
    )
    a_reg = regularity_constant(lv.mesh)
    h = mesh_size(lv.mesh)
    return {
        "upper_margins": [m for m, _ in margins],
        "upper_bound_ok": all(ok for _, ok in margins),
        "lower_margins": [
            lower_bound_margin(lam, e.value, a_reg, h)
            for lam, e in zip(lambdas, lv.exact)
        ],
    }


def _frequencies(lv: _Level) -> dict:
    if not lv.mesh.is_uniform():
        return {}
    # the pairs whose label lies in a multiple exact eigenspace that the
    # labels of the first k cover in full; every eigenspace at or below the
    # largest label's eigenvalue has modes m <= sqrt(top / kx2) and
    # n <= sqrt(top / ky2), so that many exact modes enumerate them all
    domain = lv.exact[0].domain
    labels = set(lv.pairs.modes)
    kx2, ky2 = (np.pi / domain[0]) ** 2, (np.pi / domain[1]) ** 2
    top = max(FieldSample(m, n, domain).value for m, n in labels)
    count = (int(np.sqrt(top / kx2)) + 1) * (int(np.sqrt(top / ky2)) + 1)
    if count not in lv.spaces:
        lv.spaces[count] = {mode: e for e in
                            enumerate_exact(domain, count=count)
                            for mode in e.modes}
    space = lv.spaces[count]
    members = [_Label(m, lam) for m, lam in
               zip(lv.pairs.modes, lv.pairs.lambdas.tolist()) if
               space[m].multiplicity > 1 and labels.issuperset(space[m].modes)]
    shifts = expansion_term(
        lv.mesh, [FieldSample(*p.mode, domain) for p in members]).tolist()
    return {"frequency_matches": match_frequencies(members, shifts, domain)}


def _equivalence(lv: _Level) -> dict:
    eq = verify_equivalence(lv.mesh, lv.pairs)
    return {"equivalence": {
        "max_eig_rel_diff": eq.max_eig_rel_diff,
        "max_sigma_discrepancy": eq.max_sigma_discrepancy,
        "max_flux_jump": eq.max_flux_jump,
    }}


# per-level analyses in report order; "eigenvalues" is the level record
# itself and "extrapolation" spans levels (run_case)
_LEVEL_ANALYSES = {
    "residuals": _residuals,
    "supercloseness": _supercloseness,
    "postprocessing": _postprocessing,
    "bounds": _bounds,
    "frequencies": _frequencies,
    "equivalence": _equivalence,
}


def _solve_level(config: ExperimentConfig, mesh: TensorMesh, exact,
                 spaces: dict, failures: list, tables) -> tuple:
    """Solve one level, offered ``tables``, and run its analyses: its record
    and tables.  An RRTError in the solve propagates; one in an analysis
    leaves that analysis's keys out of the record and is appended to
    ``failures``."""
    t0 = time.perf_counter()
    run = set(config.analyses)
    pairs = _solve(config, mesh, tables=tables)
    lv = _Level(config, mesh, exact, pairs, spaces)
    rec = {
        "level": mesh.level,
        "n1": mesh.n1,
        "n2": mesh.n2,
        "h": mesh_size(mesh),
        "lambdas": pairs.lambdas.tolist(),
    }
    for name, analysis in _LEVEL_ANALYSES.items():
        if name not in run:
            continue
        try:
            rec.update(analysis(lv))
        except RRTError as exc:
            failures.append({"level": mesh.level, "analysis": name,
                             "error": type(exc).__name__,
                             "message": str(exc)})
    rec["time_seconds"] = time.perf_counter() - t0
    return rec, (pairs.x, pairs.y)


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


def _meshes(config: ExperimentConfig, levels: int) -> list[TensorMesh]:
    """Levels 0..``levels`` of the config's sweep: the initial mesh,
    translated to start at 0, and its uniform refinements.  A negative
    level count, a side outside _SIDE_RANGE, or a finest level with more
    than _MAX_CELLS cells (12 refinements of one cell already exceed it,
    which bounds the power for a huge level count) or fewer than k, which
    every level's solve would refuse, raises InvalidConfig before any
    refinement."""
    if levels < 0:
        raise InvalidConfig(f"levels must be >= 0, got {levels}")
    mesh = config.initial_mesh()
    lo, hi = _SIDE_RANGE
    for side in (mesh.node_x[-1], mesh.node_y[-1]):
        if not lo <= side <= hi:
            raise InvalidConfig(
                f"config {config.name}: side {side:.17g} lies outside "
                f"[{lo:g}, {hi:g}], beyond which the analyses overflow or "
                "underflow")
    cells = mesh.n_cells * 4 ** min(levels, 12)
    if cells > _MAX_CELLS:
        raise InvalidConfig(
            f"config {config.name}: {mesh.n1} x {mesh.n2} cells refined "
            f"{levels} times exceed the limit of {_MAX_CELLS} cells"
        )
    if config.k > cells:
        raise InvalidConfig(
            f"config {config.name}: k={config.k} exceeds the {cells} cells "
            "of the finest level")
    meshes = [mesh]
    for _ in range(levels):
        meshes.append(uniform_refine(meshes[-1]))
    return meshes


def run_case(config: ExperimentConfig) -> RunReport:
    """Solve every refinement level of the configured case and analyze.

    The sweep runs on the initial mesh translated to start at 0, where the
    exact fields live, so any origin is accepted; a side outside
    _SIDE_RANGE, or a finest level above _MAX_CELLS cells or below k
    cells, raises InvalidConfig before level 0.  Each solve is offered
    the 1-D mode tables of the level before, if solved (preset b's y
    widths are the next level's x widths)."""
    meshes = _meshes(config, config.levels)
    exact = enumerate_exact((meshes[0].node_x[-1], meshes[0].node_y[-1]),
                            count=config.k)
    levels = []
    failures = []
    spaces = {}  # the exact eigenspaces that _frequencies enumerates, once
    tables = ()  # the last solved level's tables; a failed level has none
    for mesh in meshes:
        try:
            rec, tables = _solve_level(config, mesh, exact, spaces, failures,
                                       tables)
            levels.append(rec)
        except RRTError as exc:  # the solve failed: the level is lost
            tables = ()
            failures.append({"level": mesh.level, "error": type(exc).__name__,
                             "message": str(exc)})
            levels.append({"level": mesh.level, "failed": True})

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
        # entry i combines levels i and i + 1; a failed level gives NaN
        lam0 = exact[0].value
        vals = [lv["lambdas"][0] if "lambdas" in lv else float("nan")
                for lv in levels]
        tilde = [extrapolate(a, b) for a, b in zip(vals[:-1], vals[1:])]
        errs = [t - lam0 for t in tilde]
        rates = [
            convergence_rate(a, b) for a, b in zip(errs[:-1], errs[1:])
        ]
        extrap = {"values": tilde, "errors": errs, "rates": rates}

    report = RunReport(
        config={f.name: getattr(config, f.name) for f in fields(config)},
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
    return _report_json({"header": header, "rows": rows}) + "\n"


def _num(value, spec: str) -> str:
    """Format one report number; NaN, and null, which a stored report
    holds in place of NaN, render as NaN."""
    return format(float("nan") if value is None else value, spec)


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
            [f"lambda_{t + 1}"] + [_num(v, ".4f") for v in vals]
            + [trend, _num(rate, ".2f")]
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
        rows.append([f"r_{key}"] + [_num(v, ".2e") for v in vals]
                    + [_num(rate, ".2f")])
    return _render_rows(header, rows, fmt)


def figure_data(report: dict, fmt: str) -> str:
    """(h, e1, e2) triples for the first eigenvalue, one row per level."""
    header = ["h", "e1", "e2"]
    rows = []
    for lv in report["levels"]:
        if "residuals" in lv and "1" in lv["residuals"]:
            r = lv["residuals"]["1"]
            rows.append([_num(lv["h"], ".17g"), _num(r["e1"], ".17g"),
                         _num(r["e2"], ".17g")])
    return _render_rows(header, rows, fmt)


# json.dumps's string encoder (ensure_ascii) and its constants
_ESCAPE = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _report_json(obj, indent="\n") -> str:
    """obj as written to disk, in one walk: the text of json.dumps(obj,
    sort_keys=True, indent=2, allow_nan=False), whose indent takes the
    pure-Python encoder, with NaN as null and no time_seconds key at any
    depth.  ``indent`` starts obj's line.  +-inf raises ValueError, a key
    that is not a str or a value of another type TypeError."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        if obj != obj:
            return "null"
        raise ValueError(f"{obj!r} is not JSON compliant")
    if isinstance(obj, str):
        return _ESCAPE(obj)
    if obj is None or obj is True or obj is False:
        return _CONSTANTS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        # sorted and _ESCAPE raise TypeError for a key that is not a str
        items = [_ESCAPE(key) + ": " + _report_json(obj[key], inner)
                 for key in sorted(obj) if key != "time_seconds"]
        ends = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [_report_json(val, inner) for val in obj]
        ends = "[]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON "
                        "serializable")
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1]


def _files(rep: dict, fmt: str) -> tuple[dict, dict]:
    """File name -> text of a report's files, as two dicts: the eigenvalue
    and residual tables, which are also printed, and the figure table and
    the raw report as written (_report_json).  A config name that is not
    a plain file stem raises InvalidConfig (_file_stem)."""
    name = _file_stem(rep["config"]["name"])
    ext = _EXT[fmt]
    tables = {
        f"{name}_eigenvalues.{ext}": eigen_table(rep, fmt),
        f"{name}_residuals.{ext}": residual_table(rep, fmt),
    }
    rest = {
        f"{name}_figure.{ext}": figure_data(rep, fmt),
        f"{name}_report.json": _report_json(rep) + "\n",
    }
    return tables, rest


def emit_tables(report, fmt: str, out_dir: str) -> list[str]:
    """Write the eigenvalue / residual / figure tables and the raw report,
    which is strict JSON: NaN is written as null.  ``report`` is a
    RunReport or its dict."""
    if fmt not in _FORMATS:
        raise InvalidConfig(f"unknown format {fmt!r}")
    rep = vars(report) if isinstance(report, RunReport) else report
    tables, rest = _files(rep, fmt)
    return _write({**tables, **rest}, out_dir)


def _write(files: dict, out_dir: str) -> list[str]:
    """Write each file of ``files`` (name -> text) into ``out_dir``: its
    UTF-8 bytes, \\n line ends on every platform, over an existing file in
    place, then cut to length; a failed write cuts the file to zero, so
    that no file mixes old and new bytes."""
    written = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        for fname, text in files.items():
            path = os.path.join(out_dir, fname)
            data = text.encode()
            # no O_TRUNC: on ext4 (Linux, 2 vCPU) open(path, "w") took
            # 110-140 us on a 10 kB file, this write and cut 10-19 us
            fd = os.open(path, os.O_WRONLY | os.O_CREAT
                         | getattr(os, "O_BINARY", 0), 0o666)
            try:
                view = memoryview(data)
                while view:  # os.write may write a part
                    view = view[os.write(fd, view):]
                os.ftruncate(fd, len(data))
            except OSError:
                os.ftruncate(fd, 0)
                raise
            finally:
                os.close(fd)
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
    return replace(config, **overrides)


def _add_common(p, with_case=True):
    if with_case:
        p.add_argument("--case", choices=("a", "b", "c"), default="a")
        p.add_argument("--config", help="JSON config file (overrides --case)")
        p.add_argument("--levels", type=int, default=None)
        p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--format", choices=_FORMATS, default="aligned-text")


def _show(rep: dict, args) -> None:
    """Print the report's eigenvalue and residual tables and, with --out,
    write its files; each is rendered once, and all before anything is
    printed or written."""
    tables, rest = _files(rep, args.format)
    paths = _write({**tables, **rest}, args.out) if args.out else []
    sys.stdout.write("".join(tables.values()))
    for path in paths:
        print(f"wrote {path}")


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
        if args.command in ("eigs", "equiv"):  # one level, 0 by default
            config = _config_from_args(args, with_levels=False)
            mesh = _meshes(config, args.levels or 0)[-1]
            pairs = _solve(config, mesh)
            if args.command == "eigs":
                for t, lam in enumerate(pairs.lambdas.tolist()):
                    print(f"lambda_{t + 1} = {lam:.17g}")
                return 0
            rep = verify_equivalence(mesh, pairs)
            for e in rep.entries:
                print(
                    f"lambda={e.lambda_rrt:.17g} rel_diff={e.eig_rel_diff:.3e} "
                    f"sigma={e.sigma_discrepancy:.3e} mode={e.mode}"
                )
            print(f"max_flux_jump={rep.max_flux_jump:.3e}")
            return 0

        # run, or table: both render a report and may write its files
        if args.command == "run":
            rep = vars(run_case(_config_from_args(args)))
            _show(rep, args)
        else:
            try:
                with open(args.report) as f:
                    rep = json.load(f)
            except (OSError, json.JSONDecodeError) as exc:
                raise IoFailure(f"cannot read report {args.report}: {exc}")
            try:
                _show(rep, args)
            except (KeyError, TypeError, IndexError, AttributeError,
                    ValueError) as exc:  # a missing key or a wrong type
                raise IoFailure(
                    f"cannot render report {args.report}: {exc!r}") from exc
        if args.command == "run" and "failures" in rep["config"]:
            sys.stderr.write(json.dumps(
                {"failures": rep["config"]["failures"]}, sort_keys=True
            ) + "\n")
            return 2
        return 0
    except (RRTError, ValueError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)},
            sort_keys=True,
        ) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
