"""The tables and the report that `rrteig run --case {a,b,c} --levels 4`
writes stay byte-identical to the committed copies in tests/data, and so
do those that emit_tables and `rrteig table --out` write in every format.

The copies were generated with numpy 2.4.6 and scipy 1.17.1 (Python
3.11.7, x86-64), the figure tables by the cumulative-sum 1-D mode solver.
The reports pin, at full precision, the keys no table shows: the
supercloseness, postprocessing and equivalence results of every level.
They hold under one BLAS thread and under two: presets a and b have equal
widths in each direction, whose 1-D modes come from the closed form,
which calls no BLAS, and preset c's nonuniform widths, at most 80 cells
per direction up to level 4, take the dense eigh, whose bits matched
under both (test_case_b_on_one_blas_thread runs preset b in a child
process with OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1).  A change that
is meant to alter an artifact replaces its copy and says why; another
numpy, scipy or BLAS build may move a 17-digit value by roundoff, which
this test then reports with the first differing line and, for the
tables, the largest change per numeric column.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rrteig
from rrteig.cli import case_preset, emit_tables, main, run_case

DATA = Path(__file__).resolve().parent / "data"


def _number(token):
    try:
        return float(token)
    except ValueError:
        return None


def _changes(got: bytes, want: bytes) -> str:
    """The first line where ``got`` differs from ``want`` and, over the
    lines both hold, the largest absolute and relative change of each
    numeric column; columns take their names from the header line, which
    may lack the row-label column."""
    got_lines = got.decode().splitlines()
    want_lines = want.decode().splitlines()
    first = next((i for i, (g, w) in enumerate(zip(got_lines, want_lines))
                  if g != w), min(len(got_lines), len(want_lines)))
    at = lambda lines: lines[first] if first < len(lines) else "<end>"
    out = [f"first difference on line {first + 1}:",
           f"  got  {at(got_lines)}", f"  want {at(want_lines)}"]
    header = want_lines[0].split() if want_lines else []
    worst = {}
    for g_line, w_line in zip(got_lines[1:], want_lines[1:]):
        g_row, w_row = g_line.split(), w_line.split()
        if len(g_row) != len(w_row):
            continue
        skip = len(w_row) - len(header)
        for c, (g, w) in enumerate(zip(g_row, w_row)):
            g, w = _number(g), _number(w)
            if g is None or w is None:
                continue
            name = (header[c - skip] if 0 <= c - skip < len(header)
                    else f"column {c + 1}")
            d_abs, d_rel = worst.get(name, (0.0, 0.0))
            worst[name] = (max(d_abs, abs(g - w)),
                           max(d_rel, abs(g - w) / abs(w) if w else 0.0))
    out += [f"  {name}: max abs change {a:.3g}, max rel change {r:.3g}"
            for name, (a, r) in worst.items()]
    return "\n".join(out)


def test_changes_report():
    want = b"h    e1\n0.5  0.25\n0.25  0.0625\n"
    got = b"h    e1\n0.5  0.25\n0.25  0.0626\n"
    assert _changes(got, want).splitlines() == [
        "first difference on line 3:",
        "  got  0.25  0.0626",
        "  want 0.25  0.0625",
        "  h: max abs change 0, max rel change 0",
        "  e1: max abs change 0.0001, max rel change 0.0016",
    ]


def _artifacts(case):
    return (*(f"{case}_{table}.txt"
              for table in ("eigenvalues", "residuals", "figure")),
            f"{case}_report.json")


@pytest.mark.parametrize("case", ["a", "b", "c"])
def test_level4_tables_byte_identical(case, tmp_path, capsys):
    assert main(["run", "--case", case, "--levels", "4",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for name in _artifacts(case):
        got = (tmp_path / name).read_bytes()
        want = (DATA / name).read_bytes()
        assert got == want, f"{name}\n{_changes(got, want)}"


def _in_format(aligned: bytes, fmt: str) -> bytes:
    """An aligned-text table in another format: the cells of each line,
    with an empty row-label header where the header line starts with a
    blank, comma-separated or written by json.dumps."""
    lines = aligned.decode().splitlines()
    header = ([""] if lines[0].startswith(" ") else []) + lines[0].split()
    rows = [line.split() for line in lines[1:]]
    if fmt == "delimited-text":
        return "".join(",".join(r) + "\n" for r in [header] + rows).encode()
    return (json.dumps({"header": header, "rows": rows}, sort_keys=True,
                       indent=2) + "\n").encode()


@pytest.mark.parametrize("case", ["a", "b", "c"])
def test_level4_files_in_every_format(case, tmp_path, capsys):
    """emit_tables and `rrteig table --out` write, in every format, the
    committed report and the committed tables, the comma-separated and
    JSON tables with the cells of the committed aligned-text ones."""
    report = run_case(case_preset(case))
    for fmt, ext in (("aligned-text", "txt"), ("delimited-text", "csv"),
                     ("structured-document", "json")):
        emitted, table = tmp_path / fmt / "emit", tmp_path / fmt / "table"
        emit_tables(report, fmt, str(emitted))
        assert main(["table", str(DATA / f"{case}_report.json"), "--format",
                     fmt, "--out", str(table)]) == 0
        for name in _artifacts(case):
            want = (DATA / name).read_bytes()
            if not name.endswith("report.json"):
                name = name.replace(".txt", f".{ext}")
                if ext != "txt":
                    want = _in_format(want, fmt)
            assert (emitted / name).read_bytes() == want, name
            assert (table / name).read_bytes() == want, name
    capsys.readouterr()


def test_case_b_on_one_blas_thread(tmp_path):
    """Preset b, whose 1-D modes all come from the closed form, writes the
    committed bytes also with BLAS on one thread; the thread count is read
    when BLAS loads, hence the child process."""
    src = str(Path(rrteig.__file__).resolve().parents[1])
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "rrteig", "run", "--case", "b",
                    "--levels", "4", "--out", str(tmp_path)],
                   env=env, check=True, capture_output=True, timeout=300)
    for name in _artifacts("b"):
        got = (tmp_path / name).read_bytes()
        want = (DATA / name).read_bytes()
        assert got == want, f"{name}\n{_changes(got, want)}"
