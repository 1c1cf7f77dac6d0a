"""Experiment driver: presets, config loading, table rendering,
determinism, command-line surface."""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

from rrteig.assembly import assemble_mixed
from rrteig.eigensolve import solve_mixed_eigs
from rrteig.errors import InvalidConfig
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
    with pytest.raises(ValueError):
        case_preset("d")


def test_config_validation():
    with pytest.raises(ValueError):
        _small_config(levels=0)
    with pytest.raises(ValueError):
        _small_config(k=0)
    with pytest.raises(ValueError):
        _small_config(analyses=("nonsense",))


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


def test_tables_and_formats():
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
        ({"name": "x", "node_x": [0.0, PI]}, "node_y"),
        ([0.0, PI], "JSON object"),
        # values of the wrong JSON type
        (dict(base, levels="2"), "levels must be an integer"),
        (dict(base, levels=True), "levels must be an integer"),
        (dict(base, k=2.0), "k must be an integer"),
        (dict(base, k=False), "k must be an integer"),
        (dict(base, tol="1e-10"), "tol must be a number"),
        (dict(base, tol=True), "tol must be a number"),
        (dict(base, node_x="0 3.14"), "node_x must be an array"),
        (dict(base, node_y=PI), "node_y must be an array"),
        (dict(base, node_x=[0.0, "3.14"]), "node_x must be an array of num"),
        (dict(base, analyses="eigenvalues"), "analyses must be an array"),
        (dict(base, analyses=[["bounds"]]), "analyses must be an array of st"),
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code = main(["run", "--config", str(path)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidConfig"
        assert named in err["message"]
    # a negative level count is refused, not solved as level 0
    for command in ("eigs", "equiv"):
        code = main([command, "--case", "a", "--levels", "-1", "--k", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ValueError"
        assert "levels must be >= 0" in err["message"]


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


def _count_calls(monkeypatch, func):
    """Count the calls of a library function made through any rrteig
    module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
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


def test_main_equiv_solves_once(monkeypatch, capsys):
    assembled = _count_calls(monkeypatch, assemble_mixed)
    solved = _count_calls(monkeypatch, solve_mixed_eigs)
    code = main(["equiv", "--case", "c", "--levels", "0", "--k", "12"])
    assert code == 0
    assert len(assembled) == len(solved) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13
    # lambda_12 = lambda_13 straddles k and is compared as a pair
    assert lines[11].endswith("cluster=2")


def test_run_case_rejects_shifted_domain(monkeypatch, tmp_path, capsys):
    """Exact fields live on [0, a] x [0, b]: a sweep on another origin is
    refused before level 0; eigs and equiv use no exact field."""
    solved = _count_calls(monkeypatch, solve_mixed_eigs)
    nodes = tuple(1.0 + np.linspace(0.0, PI, 5))
    for over in (dict(node_x=nodes), dict(node_y=nodes)):
        with pytest.raises(InvalidConfig):
            run_case(_small_config(**over))
    assert solved == []
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "name": "shifted", "node_x": list(nodes),
        "node_y": list(np.linspace(0.0, PI, 5)), "k": 2,
    }))
    assert main(["run", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidConfig"
    assert "must start at 0" in err["message"]
    assert main(["eigs", "--config", str(path)]) == 0
    assert main(["equiv", "--config", str(path)]) == 0
