"""The benchmark's calls into the library keep working: perfbench's
workloads and tracer modules, loaded as they are, run one op of each
kind, the workload's own check finds no problem in its output, and
the tracer reads the solve's cell count from the system's layout."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_workloads_run_and_check(tmp_path, monkeypatch):
    """SolveLarge on a 24^2 mesh, whose 1-D modes come from the dense path,
    and at its default 256^2, whose two directions both take the inverse
    iteration (one _inverse_modes call each, for the 3 modes that the 6
    smallest sums can use), as the
    benchmark's solve_large op does
    (assemble_mixed, then solve_mixed_eigs with SolveOptions(k)), a
    case-c sweep and a case-a sweep to level 1 (run_case, then
    emit_tables; case a runs every analysis, frequencies,
    supercloseness and postprocessing included) and a case-b sweep to
    level 2, whose levels reuse the previous level's y table as their x
    table, each pass their own check; the tracer counts the 576 cells of
    the 24^2 solve."""
    workloads = _load("workloads")
    eigensolve = workloads.eigensolve
    inverse = []
    real = eigensolve._inverse_modes

    def counted(h, k, *args):
        inverse.append((len(h), k))
        return real(h, k, *args)

    monkeypatch.setattr(eigensolve, "_inverse_modes", counted)
    for work in (workloads.SolveLarge(seed=1, n=24),
                 workloads.Sweep(("c",), str(tmp_path), levels=1),
                 workloads.Sweep(("a",), str(tmp_path), levels=1),
                 workloads.Sweep(("b",), str(tmp_path), levels=2)):
        assert work.check(work.op()) == []
    assert inverse == []
    work = workloads.SolveLarge(seed=1)
    assert work.check(work.op()) == []
    assert inverse == [(256, 3), (256, 3)]
    system = workloads.assembly.assemble_mixed(
        workloads.SolveLarge(seed=1, n=24).mesh)
    count = _load("spans")._COUNTS["eigensolve.solve_mixed_eigs"]
    assert count((system, None), None) == 24 * 24
