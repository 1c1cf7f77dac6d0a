"""Experiment driver: presets, config loading, table rendering,
determinism, command-line surface."""

import dataclasses
import errno
import json
import math
import os
import stat
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rrteig import cli, eigensolve
from rrteig.assembly import assemble_mixed
from rrteig.eigensolve import Spectrum, solve_mixed_eigs
from rrteig.errors import InvalidConfig, IoFailure
from rrteig.cli import (
    ExperimentConfig,
    case_preset,
    eigen_table,
    emit_tables,
    figure_data,
    load_config,
    main,
    residual_table,
    run_case,
)

from oracles import report_json

PI = np.pi


def _small_config(**over):
    base = dict(
        name="small",
        node_x=tuple(np.linspace(0.0, PI, 5)),
        node_y=tuple(np.linspace(0.0, PI, 5)),
        levels=1,
        k=2,
        analyses=("eigenvalues", "residuals", "extrapolation", "bounds"),
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_presets_encode_cases():
    a = case_preset("a")
    np.testing.assert_allclose(a.node_x, np.linspace(0, PI, 9))
    np.testing.assert_allclose(a.node_y, np.linspace(0, PI, 9))
    b = case_preset("b")
    assert len(b.node_x) == 9 and len(b.node_y) == 17
    c = case_preset("c")
    np.testing.assert_allclose(
        c.node_x, [0, PI / 4, PI / 2, 2 * PI / 3, 5 * PI / 6, PI]
    )
    np.testing.assert_allclose(
        c.node_y, [0, PI / 6, PI / 3, PI / 2, 3 * PI / 4, PI]
    )
    with pytest.raises(InvalidConfig, match="unknown case 'd'"):
        case_preset("d")
    with pytest.raises(ValueError):
        case_preset("d")


def test_config_validation():
    """Values of the wrong type or out of range raise InvalidConfig naming
    their key, which is a ValueError too, also for a config built in code:
    a string, a float or a bool for an integer, a non-string name, a
    string, a scalar, a 2-D or a 0-d array for a node vector, a bool
    among the nodes or a fraction beyond the float range, and a
    non-string analysis."""
    for over, named in ((dict(levels=0), "levels must be >= 1"),
                        (dict(k=0), "k must be >= 1"),
                        (dict(analyses=("nonsense",)), "unknown analyses"),
                        (dict(k="6"), "k must be an integer"),
                        (dict(levels=2.5), "levels must be an integer"),
                        (dict(k=6.0), "k must be an integer"),
                        (dict(levels=True), "levels must be an integer"),
                        (dict(k=np.True_), "k must be an integer"),
                        (dict(name=7), "name must be a string"),
                        (dict(node_x="0 3.14"), "node_x must be an array"),
                        (dict(node_y=PI), "node_y must be an array"),
                        (dict(node_x=np.zeros((2, 2))),
                         "node_x must be an array"),
                        (dict(node_y=np.array(PI)), "node_y must be an array"),
                        (dict(node_x=(0.0, True)), "node_x must be an array"),
                        (dict(node_x=(0, Fraction(10**400, 3))),
                         "node_x must hold numbers in the float range"),
                        (dict(node_y=(0.0, "3.14")), "node_y must be an array"),
                        (dict(analyses="bounds"), "analyses must be an array"),
                        (dict(analyses=(("bounds",),)),
                         "analyses must be an array of strings")):
        with pytest.raises(InvalidConfig, match=named):
            _small_config(**over)
        with pytest.raises(ValueError):
            _small_config(**over)
        with pytest.raises(InvalidConfig, match=named):
            dataclasses.replace(_small_config(), **over)


def test_config_holds_plain_values(tmp_path):
    """Array and numpy-scalar values are held as tuples of plain Python
    numbers, an integer node stays an int, and a run of such a config
    writes all four files, its report's config entry as given."""
    cfg = _small_config(name=np.str_("np"), node_x=np.linspace(0.0, PI, 5),
                        node_y=[0, 1, 2, 3], levels=np.int32(1),
                        k=np.int64(2), analyses=np.array(["eigenvalues"]))
    assert cfg.node_x == tuple(np.linspace(0.0, PI, 5).tolist())
    assert cfg.node_y == (0, 1, 2, 3)
    for value in (cfg.name, cfg.levels, cfg.k, *cfg.node_x, *cfg.node_y,
                  *cfg.analyses):
        assert type(value) in (str, int, float), type(value)
    assert type(cfg.node_y[0]) is int and type(cfg.k) is int
    paths = emit_tables(run_case(cfg), "aligned-text", str(tmp_path))
    assert sorted(os.path.basename(p) for p in paths) == [
        "np_eigenvalues.txt", "np_figure.txt", "np_report.json",
        "np_residuals.txt"]
    stored = json.loads((tmp_path / "np_report.json").read_text())["config"]
    assert stored == {"name": "np", "node_x": list(cfg.node_x),
                      "node_y": [0, 1, 2, 3], "levels": 1, "k": 2,
                      "analyses": ["eigenvalues"]}


def test_load_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "name": "x",
        "node_x": [0.0, 1.5, PI],
        "node_y": [0.0, PI],
        "levels": 2,
        "k": 3,
    }))
    cfg = load_config(str(path))
    assert cfg.name == "x" and cfg.levels == 2 and cfg.k == 3
    assert cfg.node_x == (0.0, 1.5, PI)


def test_config_name_must_be_a_plain_file_stem(tmp_path, capsys):
    """The config name is the stem of every emitted file, so a name that
    is empty, . or .., or holds a path separator or a NUL is refused with
    InvalidConfig at both doors: the config, built in code or read from
    JSON, before level 0, and the rendering of a stored report, whose
    name `rrteig table --out` reads; nothing is written, inside --out or
    beside it.  The presets' names pass."""
    bad = ("", ".", "..", "../escaped", "a/b", "/abs", "a\\b", "a\0b")
    for name in bad:
        with pytest.raises(InvalidConfig, match="name must be a plain file "
                           "stem"):
            _small_config(name=name)
    assert [case_preset(c).name for c in "abc"] == ["a", "b", "c"]
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"name": "../escaped", "node_x": [0.0, PI],
                                "node_y": [0.0, PI], "levels": 1, "k": 1}))
    with pytest.raises(InvalidConfig, match=f"config {path}: name must be"):
        load_config(str(path))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidConfig" and "file stem" in err["message"]

    emit_tables(run_case(_small_config()), "aligned-text", str(tmp_path))
    stored = tmp_path / "small_report.json"
    doc = json.loads(stored.read_text())
    for name in bad:
        doc["config"]["name"] = name
        with pytest.raises(InvalidConfig, match="name must be a plain file"):
            emit_tables(doc, "aligned-text", str(out))
        stored.write_text(json.dumps(doc))
        assert main(["table", str(stored), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "IoFailure"
        assert "InvalidConfig" in err["message"]
        assert "file stem" in err["message"]
    assert sorted(os.listdir(tmp_path)) == [
        "cfg.json", "small_eigenvalues.txt", "small_figure.txt",
        "small_report.json", "small_residuals.txt"]
    assert not out.exists()


def test_run_case_structure():
    rep = run_case(_small_config()).to_dict()
    assert len(rep["levels"]) == 2
    assert len(rep["exact_values"]) == 2
    for lv in rep["levels"]:
        assert "lambdas" in lv and len(lv["lambdas"]) == 2
        assert lv["upper_bound_ok"]
        assert lv["time_seconds"] > 0
    assert len(rep["eigen_rates"]) == 2
    assert rep["extrapolation"] is not None


def test_tables_and_formats(tmp_path):
    rep = run_case(_small_config()).to_dict()
    txt = eigen_table(rep, "aligned-text")
    assert "lambda_1" in txt and ("↘" in txt or "↗" in txt)
    csv = eigen_table(rep, "delimited-text")
    assert csv.splitlines()[1].startswith("lambda_1,")
    doc = json.loads(eigen_table(rep, "structured-document"))
    assert doc["rows"][0][0] == "lambda_1"
    res = residual_table(rep, "delimited-text")
    assert "r_1" in res and "e-0" in res
    fig = figure_data(rep, "delimited-text")
    assert fig.splitlines()[0] == "h,e1,e2"
    assert len(fig.splitlines()) == 3  # header + two levels
    for bad in (pytest.raises(InvalidConfig, match="unknown format 'xml'"),
                pytest.raises(ValueError)):
        with bad:
            emit_tables(rep, "xml", str(tmp_path / "out"))
    assert not os.listdir(tmp_path)


def test_empty_report_headers_only():
    rep = {"config": {"name": "empty"}, "exact_values": [], "levels": [],
           "eigen_rates": [], "residual_rates": {}, "extrapolation": None}
    assert eigen_table(rep, "delimited-text").strip() == ",Trend,Rate"
    assert residual_table(rep, "delimited-text").strip() == ""
    assert figure_data(rep, "delimited-text").strip() == "h,e1,e2"


def test_emit_byte_determinism(tmp_path):
    cfg = _small_config()
    out1, out2 = tmp_path / "one", tmp_path / "two"
    emit_tables(run_case(cfg), "delimited-text", str(out1))
    emit_tables(run_case(cfg), "delimited-text", str(out2))
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    assert "small_report.json" in names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_emit_tables_writes_a_report_and_its_dict_alike(monkeypatch,
                                                        tmp_path):
    """A RunReport and its to_dict() write the same bytes in every format,
    with a failed level, whose NaN extrapolation entries are written as
    null; the report in memory keeps its NaN and its time_seconds."""
    from rrteig import cli
    from rrteig.errors import NotConverged

    solve = cli._solve

    def failing(config, mesh, **tables):
        if mesh.level == 1:
            raise NotConverged("injected")
        return solve(config, mesh, **tables)

    monkeypatch.setattr(cli, "_solve", failing)
    report = run_case(dataclasses.replace(case_preset("c"), levels=2))
    assert np.isnan(report.extrapolation["values"][0])
    for fmt in ("delimited-text", "aligned-text", "structured-document"):
        one, two = tmp_path / fmt / "report", tmp_path / fmt / "dict"
        emit_tables(report, fmt, str(one))
        emit_tables(report.to_dict(), fmt, str(two))
        names = sorted(os.listdir(one))
        assert names == sorted(os.listdir(two)) and len(names) == 4
        for name in names:
            assert (one / name).read_bytes() == (two / name).read_bytes()
        stored = json.loads((one / "c_report.json").read_text())
        assert stored["extrapolation"]["values"][:2] == [None, None]
        assert all("time_seconds" not in lv for lv in stored["levels"])
    assert np.isnan(report.extrapolation["values"][0])
    assert all("time_seconds" in lv for lv in report.levels
               if "failed" not in lv)


def test_report_full_precision(tmp_path):
    cfg = _small_config()
    report = run_case(cfg)
    emit_tables(report, "aligned-text", str(tmp_path))
    stored = json.loads((tmp_path / "small_report.json").read_text())
    # round-trip lossless: stored floats equal in-memory floats exactly
    assert stored["levels"][0]["lambdas"] == report.levels[0]["lambdas"]


def test_main_run_and_table_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "res")
    code = main(["run", "--case", "a", "--levels", "1", "--k", "2",
                 "--out", out, "--format", "delimited-text"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "lambda_1,2.0258,2.0064" in captured
    report_path = os.path.join(out, "a_report.json")
    assert os.path.exists(report_path)
    code = main(["table", report_path, "--format", "aligned-text"])
    assert code == 0
    assert "lambda_1" in capsys.readouterr().out


def test_main_eigs(capsys):
    code = main(["eigs", "--case", "a", "--levels", "0", "--k", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("lambda_1 = 2.025832")


def test_main_equiv(capsys):
    code = main(["equiv", "--case", "c", "--levels", "0", "--k", "4"])
    assert code == 0
    assert "max_flux_jump" in capsys.readouterr().out


def test_main_error_exit(tmp_path, capsys):
    code = main(["table", str(tmp_path / "missing.json")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IoFailure"
    # unknown keys, missing keys and a non-object fail with one JSON line
    base = {"name": "x", "node_x": [0.0, PI], "node_y": [0.0, PI]}
    for doc, named in (
        (dict(base, levles=2), "levles"),
        (dict(base, equiv_max_cells=1200), "equiv_max_cells"),
        ({"name": "x", "node_x": [0.0, PI]}, "node_y"),
        ([0.0, PI], "JSON object"),
        # values of the wrong JSON type
        (dict(base, levels="2"), "levels must be an integer"),
        (dict(base, levels=True), "levels must be an integer"),
        (dict(base, k=2.0), "k must be an integer"),
        (dict(base, k=False), "k must be an integer"),
        # tol is no key: the solve's residual bound comes from the mesh
        (dict(base, tol="1e-10"), "unknown keys ['tol']"),
        (dict(base, tol=1e-10), "unknown keys ['tol']"),
        (dict(base, node_x="0 3.14"), "node_x must be an array"),
        (dict(base, node_y=PI), "node_y must be an array"),
        (dict(base, node_x=[0.0, "3.14"]), "node_x must be an array of num"),
        (dict(base, analyses="eigenvalues"), "analyses must be an array"),
        (dict(base, analyses=[["bounds"]]), "analyses must be an array of st"),
        # values of the right type out of range
        (dict(base, levels=0), "levels must be >= 1"),
        (dict(base, k=0), "k must be >= 1"),
        (dict(base, analyses=["nope"]), "unknown analyses: ['nope']"),
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code = main(["run", "--config", str(path)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidConfig"
        assert named in err["message"]
    # a node integer too large for a float is a node error, not a traceback
    path.write_text(json.dumps({"name": "big", "node_x": [0, 10**400],
                                "node_y": [0, 1], "levels": 1, "k": 1}))
    assert str(10**400) in path.read_text()
    assert main(["run", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "NonFiniteNodes"
    # a negative level count is refused, not solved as level 0, and a
    # k below 1 is refused, both with a typed error
    for argv, named in ((["eigs", "--levels", "-1"], "levels must be >= 0"),
                        (["equiv", "--levels", "-1"], "levels must be >= 0"),
                        (["run", "--k", "0"], "k must be >= 1"),
                        (["eigs", "--k", "0"], "k must be >= 1")):
        code = main(argv + ["--case", "a"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "InvalidConfig"
        assert named in err["message"]


def test_table_refuses_a_malformed_report(tmp_path, capsys):
    """A stored report that lacks a key or holds a value of the wrong type
    ends with one JSON line, IoFailure naming the report and the missing
    key or the fault, and exit code 1, before any table is printed or
    file written."""
    path = tmp_path / "x_report.json"
    out = tmp_path / "out"
    for doc, named in (
        ({"config": {"name": "x"}, "exact_values": [2.0],
          "levels": [{"level": 0}]}, "KeyError('eigen_rates')"),
        # renders its tables, but --out needs the config's name
        ({"exact_values": [], "eigen_rates": [], "levels": []},
         "KeyError('config')"),
        ({"config": {"name": "x"}, "exact_values": 2.0, "levels": []},
         "TypeError"),
        ({"config": {"name": "x"}, "exact_values": [2.0], "eigen_rates": [0],
          "levels": [{"level": 0, "lambdas": ["2.0"]}]}, "ValueError"),
        ([], "TypeError"),
    ):
        path.write_text(json.dumps(doc))
        assert main(["table", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == "IoFailure"
        assert str(path) in err["message"] and named in err["message"]
        assert not out.exists()


def test_run_refuses_k_above_the_finest_level(monkeypatch, tmp_path,
                                              capsys):
    """A k above the finest level's cell count, which every level would
    refuse with KTooLarge, is refused with InvalidConfig before the exact
    eigenvalues are enumerated: one cell refined four times has 256
    cells, and k = 20000 exits 1 at once.  A k that only the finest
    level holds passes; eigs refuses a k above its level's cells too."""
    from rrteig import exact

    enumerated = _count_calls(monkeypatch, exact.enumerate_exact)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "name": "one", "node_x": [0.0, PI], "node_y": [0.0, PI], "k": 20000,
    }))
    assert main(["run", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidConfig"
    assert "k=20000 exceeds the 256 cells" in err["message"]
    assert enumerated == []

    one = _small_config(node_x=(0.0, PI), node_y=(0.0, PI),
                        analyses=("eigenvalues",))
    with pytest.raises(InvalidConfig, match="k=5 exceeds the 4 cells"):
        run_case(dataclasses.replace(one, k=5))
    report = run_case(dataclasses.replace(one, k=4))
    assert [(f["level"], f["error"]) for f in report.config["failures"]] == [
        (0, "KTooLarge")]
    assert len(report.levels[1]["lambdas"]) == 4
    assert main(["eigs", "--config", str(path), "--levels", "1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "k=20000 exceeds the 4 cells" in err["message"]


def test_run_forms_no_2d_array():
    """Preset a to levels 6 (512^2 cells) allocates, at its peak, less
    than one float array over the finest level's cells (2 MiB): the solve
    and every analysis work on 1-D widths and factors, and no 2-D matrix
    is assembled."""
    config = dataclasses.replace(case_preset("a"), levels=6)
    tracemalloc.start()
    try:
        report = run_case(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "failures" not in report.config
    assert peak < 8 * 512**2


def test_tol_option_is_refused(capsys):
    """There is no --tol: argparse refuses it with exit code 2."""
    for command in ("run", "eigs", "equiv"):
        with pytest.raises(SystemExit) as info:
            main([command, "--case", "a", "--tol", "1e-10"])
        assert info.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_run_with_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "name": "file",
        "node_x": list(np.linspace(0.0, PI, 5)),
        "node_y": list(np.linspace(0.0, PI, 5)),
        "levels": 1,
        "k": 1,
        "analyses": ["eigenvalues", "residuals"],
    }))
    code = main(["run", "--config", str(path)])
    assert code == 0
    assert "lambda_1" in capsys.readouterr().out


def test_run_with_unreachable_bound(tmp_path, capsys, monkeypatch):
    """A residual bound below roundoff fails every level's solve through
    the residual check: each level is recorded as failed with
    NotConverged and `rrteig run` exits 2."""
    monkeypatch.setattr(eigensolve, "_RESIDUAL_C", 1e-6)
    path = tmp_path / "cfg.json"
    nodes = list(np.linspace(0.0, PI, 9))
    path.write_text(json.dumps({
        "name": "strict", "node_x": nodes, "node_y": nodes, "levels": 1,
        "k": 6, "analyses": ["eigenvalues", "residuals"],
    }))
    assert main(["run", "--config", str(path)]) == 2
    failures = json.loads(capsys.readouterr().err)["failures"]
    assert [(f["level"], f["error"]) for f in failures] == [
        (0, "NotConverged"), (1, "NotConverged")]


def _count_calls(monkeypatch, func):
    """Record the positional arguments of each call of a library function
    made through any rrteig module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rrteig" and (
            getattr(module, func.__name__, None) is func
        ):
            monkeypatch.setattr(module, func.__name__, counted)
    return calls


def test_run_case_solves_each_level_once(monkeypatch):
    """The equivalence check reuses the level's mixed pairs."""
    assembled = _count_calls(monkeypatch, assemble_mixed)
    solved = _count_calls(monkeypatch, solve_mixed_eigs)
    report = run_case(dataclasses.replace(case_preset("c"), levels=1))
    assert "failures" not in report.config
    assert all("equivalence" in lv for lv in report.levels)
    assert len(assembled) == len(solved) == 2


def test_run_eigs_and_equiv_take_meshes_from_one_ladder(monkeypatch,
                                                       capsys):
    """run, eigs and equiv each build their meshes in one call of the
    sweep's mesh ladder, and refine no mesh outside it."""
    from rrteig import cli, mesh

    ladders = _count_calls(monkeypatch, cli._meshes)
    refined = _count_calls(monkeypatch, mesh.uniform_refine)
    for argv in (["run", "--case", "c", "--levels", "1"],
                 ["eigs", "--case", "c", "--levels", "1"],
                 ["equiv", "--case", "c", "--levels", "1"]):
        assert main(argv) == 0
        assert len(ladders) == len(refined) == 1
        ladders.clear()
        refined.clear()
    capsys.readouterr()


def test_main_equiv_solves_once(monkeypatch, capsys):
    assembled = _count_calls(monkeypatch, assemble_mixed)
    solved = _count_calls(monkeypatch, solve_mixed_eigs)
    code = main(["equiv", "--case", "c", "--levels", "0", "--k", "12"])
    assert code == 0
    assert len(assembled) == len(solved) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13
    # lambda_12 = lambda_13 straddles k: pair 12 is checked alone, by its
    # own lift, and printed with its mode label
    assert lines[11].endswith("mode=(2, 4)")


@pytest.mark.parametrize("case, shift", [
    ("a", (1.0, 0.0)), ("b", (0.0, -2.5)), ("c", (1000.0, 7.25)),
], ids=["a", "b", "c"])
def test_shifted_presets_give_the_same_tables(monkeypatch, tmp_path,
                                              capsys, case, shift):
    """A sweep on another origin runs on its mesh translated to 0, where
    the exact fields live: the eigenvalue and residual tables equal the
    stored ones of the preset, and the eigenvalues agree to roundoff of
    the translated widths (3.9e-14 relative measured).  An origin-0
    config keeps every bit of its nodes; eigs and equiv see the same
    translated mesh as run."""
    preset = case_preset(case)
    mesh = preset.initial_mesh()
    assert np.array_equal(mesh.node_x, preset.node_x)
    assert np.array_equal(mesh.node_y, preset.node_y)
    shifted = dataclasses.replace(
        preset, node_x=tuple(np.add(preset.node_x, shift[0])),
        node_y=tuple(np.add(preset.node_y, shift[1])))
    moved = shifted.initial_mesh()
    assert moved.node_x[0] == moved.node_y[0] == 0.0
    rep = run_case(shifted).to_dict()
    assert "failures" not in rep["config"]
    data = os.path.join(os.path.dirname(__file__), "data")
    for table, suffix in ((eigen_table, "eigenvalues"),
                          (residual_table, "residuals")):
        with open(os.path.join(data, f"{case}_{suffix}.txt"),
                  encoding="utf-8") as f:
            assert table(rep, "aligned-text") == f.read()
    with open(os.path.join(data, f"{case}_report.json")) as f:
        stored = json.load(f)
    for lv, want in zip(rep["levels"], stored["levels"]):
        np.testing.assert_allclose(lv["lambdas"], want["lambdas"],
                                   rtol=1e-13, atol=0)

    from rrteig import cli

    solve, meshes = cli._solve, []

    def recorded(config, mesh, **tables):
        meshes.append(mesh)
        return solve(config, mesh, **tables)

    monkeypatch.setattr(cli, "_solve", recorded)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "name": "shifted", "node_x": list(shifted.node_x),
        "node_y": list(shifted.node_y), "k": 2,
    }))
    for command in ("eigs", "equiv"):
        assert main([command, "--config", str(path)]) == 0
    capsys.readouterr()
    assert len(meshes) == 2
    for seen in meshes:
        assert np.array_equal(seen.node_x, moved.node_x)
        assert np.array_equal(seen.node_y, moved.node_y)


def test_failing_analysis_keeps_the_level(monkeypatch, capsys):
    """An RRTError in one analysis drops only that analysis: every level
    keeps its eigenvalues and the other analyses, the failure is recorded
    with its level and analysis name, and `rrteig run` exits 2."""
    from rrteig import cli
    from rrteig.errors import AmbiguousCluster

    def broken(mesh, fields):
        raise AmbiguousCluster("injected")

    monkeypatch.setattr(cli, "expansion_term", broken)
    report = run_case(dataclasses.replace(case_preset("c"), levels=1))
    assert len(report.levels) == 2
    for lv in report.levels:
        assert "failed" not in lv and "residuals" not in lv
        assert len(lv["lambdas"]) == 12
        assert lv["upper_bound_ok"] is True
        assert "equivalence" in lv
    failures = report.config["failures"]
    assert [(f["level"], f["analysis"], f["error"]) for f in failures] == [
        (0, "residuals", "AmbiguousCluster"),
        (1, "residuals", "AmbiguousCluster"),
    ]
    assert all(f["message"] == "injected" for f in failures)
    assert report.residual_rates == {}
    assert not any(np.isnan(report.eigen_rates))

    code = main(["run", "--case", "c", "--levels", "1"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert {f["analysis"] for f in err["failures"]} == {"residuals"}


def test_reference_field_computed_once_per_level(monkeypatch):
    """Supercloseness and postprocessing measure the first pair as it is,
    with no sign match: the (1, 1) cell means are taken once per level,
    inside supercloseness_norms."""
    from rrteig.exact import cell_mean_factors

    projected = _count_calls(monkeypatch, cell_mean_factors)
    config = dataclasses.replace(
        case_preset("a"), levels=1,
        analyses=("eigenvalues", "supercloseness", "postprocessing"),
    )
    report = run_case(config)
    assert "failures" not in report.config
    assert all("supercloseness" in lv and "postprocessing" in lv
               for lv in report.levels)
    assert len(projected) == 2


@pytest.mark.parametrize("case, tables_per_level", [("a", 1), ("b", 2),
                                                    ("c", 2)])
def test_run_case_lifts_each_table_once_and_builds_pairs_on_demand(
        monkeypatch, case, tables_per_level):
    """A sweep solves and lifts each distinct 1-D mode table once: one per
    level on preset a, whose y table is its x table, two per level on c,
    whose n x n directions are solved together (one _modes_1d call on a
    stack of two per level).  On b, whose y widths at level L are bitwise
    its x widths at level L + 1, level 0 holds two tables and each later
    level one new one: 6 solves and 6 lifts at levels = 4, not 10.  No
    MixedEigenpair is built on b and c; on a only pairs[0], for
    supercloseness and postprocessing: the frequency matches read the
    labels and eigenvalues."""
    from rrteig import equivalence

    solved = _count_calls(monkeypatch, eigensolve._modes_1d)
    lifts = _count_calls(monkeypatch, equivalence._lift_1d)
    built = _count_calls(monkeypatch, eigensolve.MixedEigenpair)
    report = run_case(case_preset(case))
    assert "failures" not in report.config
    levels = len(report.levels)
    tables = levels + 1 if case == "b" else tables_per_level * levels
    assert (levels, tables) == (5, {"a": 5, "b": 6, "c": 10}[case])
    assert sum(len(hs) for hs, _ in solved) == len(lifts) == tables
    assert len(solved) == {"a": 5, "b": 6, "c": 5}[case]
    matched = sum(len(lv.get("frequency_matches", ())) for lv in report.levels)
    assert (matched > 0) == (case == "a")
    assert len(built) == (2 * levels if case == "a" else 0)


def test_run_case_keeps_no_table_beyond_the_call(monkeypatch):
    """Two sweeps of preset b solve the same number of 1-D tables, and
    their reports are the same: no table outlives its run_case call."""
    solved = _count_calls(monkeypatch, eigensolve._modes_1d)
    config = dataclasses.replace(case_preset("b"), levels=2)
    first = run_case(config).to_dict()
    assert len(solved) == 4
    second = run_case(config).to_dict()
    assert len(solved) == 8
    assert cli._report_json(first) == cli._report_json(second)


def test_failed_level_offers_no_tables(monkeypatch):
    """The solve after a failed level is offered no tables, and a level
    whose solve returned a list of pairs, stacked (Spectrum.stack), offers
    tables with no widths, which the next solve does not reuse: preset b
    then solves both directions afresh."""
    from rrteig.errors import NotConverged

    solve, offered = cli._solve, []

    def failing(config, mesh, tables=()):
        offered.append(tables)
        if mesh.level == 1:
            raise NotConverged("injected")
        pairs = solve(config, mesh, tables=tables)
        return Spectrum.stack(list(pairs), mesh) if mesh.level == 2 else pairs

    monkeypatch.setattr(cli, "_solve", failing)
    solved = _count_calls(monkeypatch, eigensolve._modes_1d)
    report = run_case(dataclasses.replace(case_preset("b"), levels=3))
    assert [lv.get("failed", False) for lv in report.levels] == [
        False, True, False, False]
    assert [len(t) for t in offered] == [0, 2, 0, 2]
    assert not any(isinstance(t, eigensolve._Table) for t in offered[3])
    assert len(solved) == 6


def test_postprocessing_shares_tables_and_interpolants(monkeypatch):
    """One postprocessing call per level builds one Gauss table per
    direction and each of the four 1-D interpolants once (flux_x and v
    in x, w and flux_y in y), value and derivative together: two levels
    of preset a make 4 tables and 8 interpolants."""
    from rrteig import postprocess

    tables = _count_calls(monkeypatch, postprocess._gauss_table)
    interpolants = _count_calls(monkeypatch, postprocess._interpolant)
    config = dataclasses.replace(case_preset("a"), levels=1,
                                 analyses=("postprocessing",))
    report = run_case(config)
    assert "failures" not in report.config
    assert all("postprocessing" in lv for lv in report.levels)
    assert (len(tables), len(interpolants)) == (4, 8)


def test_frequency_matches_report_each_pairs_label():
    """On a uniform 16^2 mesh with k = 52 the discrete order departs from
    the exact one: the pairs at the indices of lambda = 40, the (2, 6)
    family, are the modes (4, 5) and (5, 4) of lambda = 41.  Each match
    must name the pair's own mode, which the closed-form 1-D spectrum
    mu_m = (12 / h^2) sin^2(m h / 2) / (2 + cos(m h)) identifies from
    lambda_h = mu_m + mu_n, and its observed shift is lambda_h - m^2 - n^2.
    The pairs reported are those whose label lies in a multiple eigenspace
    that the first k labels cover in full: the simple (6, 6) pair
    (lambda = 72, lambda_h = 80.642) at index 45, an index of the twofold
    lambda = 68, is left out, and both members (8, 2) and (2, 8) of 68 are
    in, the second at index 47."""
    n = 16
    nodes = tuple(np.linspace(0.0, PI, n + 1))
    config = ExperimentConfig(name="u16", node_x=nodes, node_y=nodes,
                              levels=1, k=52, analyses=("frequencies",))
    report = run_case(config)
    assert "failures" not in report.config
    matches = report.levels[0]["frequency_matches"]
    h = PI / n
    wave = np.arange(1, n + 1)
    mu = 12.0 / h**2 * np.sin(wave * h / 2) ** 2 / (2.0 + np.cos(wave * h))
    sums = np.add.outer(mu, mu)
    for m in matches:
        lam = m["lambda_h"]
        a, b = np.unravel_index(np.argmin(np.abs(sums - lam)), sums.shape)
        assert abs(sums[a, b] - lam) <= 1e-12 * lam
        assert (m["m"], m["n"]) == (min(a, b) + 1, max(a, b) + 1)
        assert m["observed_shift"] == pytest.approx(
            lam - (m["m"] ** 2 + m["n"] ** 2), abs=1e-12)
        assert m["predicted_shift"] == pytest.approx(
            (m["m"] ** 4 + m["n"] ** 4) * h * h / 12.0, rel=1e-14)
    near_41 = [(m["m"], m["n"]) for m in matches
               if abs(m["lambda_h"] - 43.9031) < 1e-3]
    assert near_41 == [(4, 5), (4, 5)]
    labels = [(m["m"], m["n"]) for m in matches]
    assert (6, 6) not in labels
    near_68 = [m["lambda_h"] for m in matches if (m["m"], m["n"]) == (2, 8)]
    assert near_68 == [pytest.approx(81.866, abs=1e-3)] * 2


def test_python_dash_m_entry_point():
    """`python -m rrteig` runs the command line from a checkout."""
    import subprocess

    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-m", "rrteig", "eigs", "--case", "c", "--k", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("lambda_1 = ")
    assert lines[1].startswith("lambda_2 = ")


def test_extrapolation_skips_a_failed_level(monkeypatch):
    """Entry i of the extrapolation always combines levels i and i + 1:
    a failed level makes its two entries NaN instead of pairing its
    neighbours as if h had halved."""
    from rrteig import cli
    from rrteig.analysis import extrapolate
    from rrteig.errors import NotConverged

    solve = cli._solve

    def failing(config, mesh, **tables):
        if mesh.level == 1:
            raise NotConverged("injected")
        return solve(config, mesh, **tables)

    monkeypatch.setattr(cli, "_solve", failing)
    config = dataclasses.replace(case_preset("c"), levels=3)
    report = run_case(config)
    assert report.levels[1] == {"level": 1, "failed": True}
    values = report.extrapolation["values"]
    assert len(values) == 3
    assert np.isnan(values[0]) and np.isnan(values[1])
    lam2, lam3 = (report.levels[t]["lambdas"][0] for t in (2, 3))
    assert values[2] == extrapolate(lam2, lam3)
    assert all(np.isnan(r) for r in report.extrapolation["rates"])


def test_report_json_is_strict_and_round_trips(monkeypatch, tmp_path,
                                               capsys):
    """A failed level leaves NaN rates: the stored report writes them as
    null, which a strict parser accepts, and `rrteig table` renders them
    as NaN and re-emits the same files."""
    from rrteig import cli
    from rrteig.errors import NotConverged

    solve = cli._solve

    def failing(config, mesh, **tables):
        if mesh.level == 1:
            raise NotConverged("injected")
        return solve(config, mesh, **tables)

    monkeypatch.setattr(cli, "_solve", failing)
    report = run_case(dataclasses.replace(case_preset("c"), levels=2))
    assert all(np.isnan(report.eigen_rates))
    first = tmp_path / "first"
    emit_tables(report, "aligned-text", str(first))

    def refuse(token):
        raise ValueError(f"non-strict JSON token {token}")

    path = first / "c_report.json"
    stored = json.loads(path.read_text(), parse_constant=refuse)
    assert stored["eigen_rates"] == [None] * len(report.eigen_rates)
    assert stored["extrapolation"]["values"][:2] == [None, None]

    again = tmp_path / "again"
    assert main(["table", str(path), "--out", str(again)]) == 0
    rep = report.to_dict()
    tables = eigen_table(rep, "aligned-text") + residual_table(
        rep, "aligned-text")
    assert "nan" in tables
    assert capsys.readouterr().out.startswith(tables)
    for name in sorted(os.listdir(first)):
        assert (again / name).read_bytes() == (first / name).read_bytes()


def test_size_limit_refused_before_solving(monkeypatch, capsys):
    """A finest level above 2^22 cells fails with InvalidConfig before
    any level is refined or solved."""
    from rrteig import cli

    solved = _count_calls(monkeypatch, solve_mixed_eigs)
    with pytest.raises(InvalidConfig, match="cells"):
        run_case(dataclasses.replace(case_preset("a"), levels=9))
    # 8^2 * 4^8 = 2^22 cells is the largest level allowed
    preset = case_preset("a")
    assert cli._meshes(preset, 8)[-1].n_cells == 2**22
    for command in ("eigs", "equiv"):
        code = main([command, "--case", "c", "--levels", "40"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "InvalidConfig"
    assert solved == []


def _scaled_c(side, tmp_path):
    """A config file of preset c's nodes scaled to the side length."""
    c = case_preset("c")
    doc = {"name": "scaled", "node_x": [x / PI * side for x in c.node_x],
           "node_y": [y / PI * side for y in c.node_y], "levels": 2,
           "k": 12, "analyses": list(cli.ALL_ANALYSES)}
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("side", [1e-70, 1e70])
def test_side_outside_the_range_refused_before_solving(side, tmp_path,
                                                       monkeypatch, capsys):
    """Preset c scaled to a side outside [1e-50, 1e50] (_SIDE_RANGE) ends
    `run` with one JSON InvalidConfig line, exit code 1, no traceback, no
    solve and no file.  Unguarded, at side 1e-70 the expansion term
    overflowed and the write failed on the infinite report with a bare
    ValueError; at 1e70 it underflowed to 0, and a report was written
    whose residual rates read 2.0 in place of 4 and whose divergence norm
    was NaN."""
    config = _scaled_c(side, tmp_path)
    out = tmp_path / "out"
    solved = _count_calls(monkeypatch, solve_mixed_eigs)
    assert main(["run", "--config", config, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    err = json.loads(captured.err)
    assert err["error"] == "InvalidConfig" and "side" in err["message"]
    assert solved == [] and not out.exists()


def test_sides_at_the_range_ends_keep_the_scaling(tmp_path, capsys):
    """Preset c scaled to the sides 1e-50 and 1e50, the ends of
    _SIDE_RANGE, runs with every analysis and no failure, and its rates
    and lambda_h s^2 match the sweep at side 1 to 1e-9 relative."""
    reports = []
    for side in (1.0, 1e-50, 1e50):
        out = tmp_path / str(side)
        assert main(["run", "--config", _scaled_c(side, tmp_path),
                     "--out", str(out)]) == 0
        reports.append(json.loads((out / "scaled_report.json").read_text()))
    capsys.readouterr()
    for side, rep in zip((1e-50, 1e50), reports[1:]):
        for got, want in zip(rep["levels"], reports[0]["levels"]):
            np.testing.assert_allclose(np.array(got["lambdas"]) * side**2,
                                       want["lambdas"], rtol=1e-9)
        for key in ("eigen_rates", "residual_rates"):
            got, want = rep[key], reports[0][key]
            if isinstance(want, dict):
                got, want = list(got.values()), list(want.values())
            np.testing.assert_allclose(got, want, rtol=1e-9)


def test_one_expansion_call_per_analysis_per_level(monkeypatch):
    """On preset a the residuals and the frequency matches each make one
    expansion_term call per level, and a label's residual e2 and its
    predicted shift have the same bits: a field's term does not depend on
    the other fields of the call."""
    from rrteig.analysis import expansion_term

    calls = _count_calls(monkeypatch, expansion_term)
    report = run_case(dataclasses.replace(case_preset("a"), levels=2))
    assert "failures" not in report.config
    for lv in report.levels:
        assert len(lv["residuals"]) == 6
        matches = lv["frequency_matches"]
        shared = {m["lambda_h"] for m in matches}
        rows = [t for t, lam in enumerate(lv["lambdas"]) if lam in shared]
        assert len(rows) == len(matches) == 4
        e2 = [lv["residuals"][str(t + 1)]["e2"] for t in rows]
        shifts = [m["predicted_shift"] for m in matches]
        assert np.array(e2).tobytes() == np.array(shifts).tobytes()
    assert len(calls) == 6


def test_exact_spectrum_enumerated_once_per_sweep(monkeypatch):
    """A sweep enumerates the exact spectrum once for its k eigenvalues
    and once per distinct count that the frequency matches need: preset
    a's first six labels are the same on every level, so two calls serve
    its five levels.  A second sweep enumerates afresh."""
    from rrteig import exact

    enumerated = _count_calls(monkeypatch, exact.enumerate_exact)
    report = run_case(case_preset("a"))
    assert "failures" not in report.config
    assert all(lv["frequency_matches"] for lv in report.levels)
    assert len(enumerated) == 2
    again = run_case(case_preset("a"))
    assert len(enumerated) == 4
    assert cli._report_json(again.to_dict()) == \
        cli._report_json(report.to_dict())


def test_run_out_renders_each_table_once(monkeypatch, tmp_path, capsys):
    """`rrteig run --out` renders the eigenvalue and residual tables once
    and prints the text it wrote; `table`, with and without --out, alike."""
    from rrteig import cli

    eigen = _count_calls(monkeypatch, cli.eigen_table)
    resid = _count_calls(monkeypatch, cli.residual_table)
    out = tmp_path / "res"
    assert main(["run", "--case", "c", "--levels", "1", "--out", str(out)]) \
        == 0
    printed = capsys.readouterr().out
    assert (len(eigen), len(resid)) == (1, 1)
    written = ((out / "c_eigenvalues.txt").read_text()
               + (out / "c_residuals.txt").read_text())
    assert printed.startswith(written)
    assert printed[len(written):].startswith(f"wrote {out}")
    assert main(["table", str(out / "c_report.json"), "--out",
                 str(tmp_path / "again")]) == 0
    assert (len(eigen), len(resid)) == (2, 2)
    assert capsys.readouterr().out.startswith(written)
    assert main(["table", str(out / "c_report.json")]) == 0
    assert (len(eigen), len(resid)) == (3, 3)
    assert capsys.readouterr().out == written


def test_run_refuses_an_elongated_domain(monkeypatch, capsys, tmp_path):
    """A side ratio a / b or b / a of 1e5, where the exact spectrum's
    grouping tolerance would merge distinct eigenvalues, fails with
    InvalidConfig before level 0 is solved; 1e3 is accepted."""
    solved = _count_calls(monkeypatch, solve_mixed_eigs)
    long_side, short_side = (0.0, 5e4, 1e5), (0.0, 0.5, 1.0)
    for nx, ny in ((long_side, short_side), (short_side, long_side)):
        config = _small_config(node_x=nx, node_y=ny)
        with pytest.raises(InvalidConfig, match="side ratio 1e\\+05"):
            run_case(config)
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"name": "long", "node_x": list(long_side),
                                "node_y": list(short_side)}))
    assert main(["run", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidConfig"
    assert solved == []

    report = run_case(_small_config(node_x=(0.0, 500.0, 1e3),
                                    node_y=short_side))
    assert "failures" not in report.config
    assert len(solved) == 2
    assert report.exact_values[1] > report.exact_values[0]


# report-like documents: nested dicts, lists and tuples with time_seconds
# keys at any depth, NaN, -0.0, numpy floats, bools, ints, None, non-ASCII
# strings and empty containers
_KEYS = st.sampled_from(["time_seconds", "a", "b", "\u2198", ""]) | st.text(
    max_size=4)
_SCALARS = st.one_of(
    st.floats(allow_infinity=False), st.just(-0.0),
    st.floats(allow_infinity=False).map(np.float64), st.booleans(),
    st.integers(), st.none(), st.text(max_size=4), st.just("\u2198"))
_DOCUMENTS = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_KEYS, inner, max_size=4)), max_leaves=24)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=_DOCUMENTS)
def test_report_json_against_the_oracle(doc):
    """The one-walk report writer gives the bytes of json.dumps on a copy
    with NaN as null and no time_seconds key (tests/oracles.py)."""
    assert cli._report_json(doc) == report_json(doc)


def test_report_json_refuses_what_strict_json_cannot_hold(tmp_path,
                                                          capsys):
    """+-inf raises ValueError, as allow_nan=False does, and a key that is
    not a str or a value of another type raises TypeError; `rrteig table`
    turns either into IoFailure and writes nothing."""
    for inf in (math.inf, -math.inf, np.float64("-inf")):
        for doc in ([inf], {"a": {"b": (1.0, inf)}}):
            with pytest.raises(ValueError):
                cli._report_json(doc)
            with pytest.raises(ValueError):
                report_json(doc)
    for doc in ({1: 2.0}, {"a": 1.0, 2: 3.0}, {"a": [{1: None}]},
                [np.int64(3)], {"a": np.bool_(True)}, {"a": {1.5}}):
        with pytest.raises(TypeError):
            cli._report_json(doc)
    assert cli._report_json({"time_seconds": 1.0, "x": [{}, (), []]}) == \
        '{\n  "x": [\n    {},\n    [],\n    []\n  ]\n}'

    emit_tables(run_case(_small_config()), "aligned-text", str(tmp_path))
    path = tmp_path / "small_report.json"
    doc = json.loads(path.read_text())
    doc["levels"][0]["h"] = math.inf
    path.write_text(json.dumps(doc))  # writes Infinity
    out = tmp_path / "out"
    assert main(["table", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    err = json.loads(captured.err)
    assert err["error"] == "IoFailure" and "ValueError" in err["message"]


def test_write_overwrites_in_place(monkeypatch, tmp_path):
    """Each text, shorter or longer than the file it overwrites, leaves
    exactly its UTF-8 bytes, with \\n line ends, also when os.write writes
    a few bytes a call."""
    path = tmp_path / "f.txt"
    texts = ("a first text, of some length\n", "\u2198 short\n",
             "a text longer than the one before\nand two lines\n", "")
    for text in texts:
        assert cli._write({"f.txt": text}, str(tmp_path)) == [str(path)]
        assert path.read_bytes() == text.encode()
    real = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real(fd, data[:3]))
    for text in texts[::-1]:
        cli._write({"f.txt": text}, str(tmp_path))
        assert path.read_bytes() == text.encode()


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_write_creates_files_as_open_does(tmp_path, umask):
    """A new file gets the mode that open(path, "w") gives it under the
    process umask; an existing file keeps its mode."""
    old = os.umask(umask)
    try:
        cli._write({"new.txt": "x\n"}, str(tmp_path))
        with open(tmp_path / "plain.txt", "w") as f:
            f.write("x\n")
    finally:
        os.umask(old)
    mode = lambda name: stat.S_IMODE(os.stat(tmp_path / name).st_mode)
    assert mode("new.txt") == mode("plain.txt") == 0o666 & ~umask
    os.chmod(tmp_path / "new.txt", 0o600)
    cli._write({"new.txt": "y\n"}, str(tmp_path))
    assert mode("new.txt") == 0o600


def test_write_failures_are_io_failures(monkeypatch, tmp_path):
    """A directory at the target path raises IoFailure; a write that fails
    part-way cuts its file to zero, so that it never holds new bytes
    followed by old ones, and raises IoFailure."""
    (tmp_path / "d.txt").mkdir()
    with pytest.raises(IoFailure):
        cli._write({"d.txt": "x\n"}, str(tmp_path))
    path = tmp_path / "f.txt"
    path.write_bytes(b"old bytes, a long line of them\n" * 50)
    real = os.write

    def failing(fd, data):
        real(fd, data[:5])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", failing)
    with pytest.raises(IoFailure, match="No space left"):
        cli._write({"f.txt": "new text\n"}, str(tmp_path))
    monkeypatch.undo()
    assert path.read_bytes() == b""
