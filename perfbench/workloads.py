"""Workloads of the rrteig benchmark and the correctness check of each op.

A workload is built once in set-up, then ``op()`` runs one operation and
``check(output)`` returns the list of problems found in its output (empty
when it is correct).  Ops call the library only through public functions,
looked up on the module at call time so that the tracer's wrappers apply.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from rrteig import assembly, cli, eigensolve, mesh

HERE = os.path.dirname(os.path.abspath(__file__))

RESIDUAL_REL_TOL = 0.02  # the paper prints residuals to 3 digits
ORACLE_REL_TOL = 1e-10


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        return json.load(f)


class Sweep:
    """Refinement sweeps of the paper's preset cases, each followed by
    ``emit_tables``.  The inputs are the presets, so the seed changes
    nothing; ``levels`` stops the sweeps short of the preset's last level."""

    def __init__(self, cases, out_dir, levels=None):
        ref = load_reference()
        self.configs = [cli.case_preset(c) for c in cases]
        if levels is not None:
            self.configs = [dataclasses.replace(c, levels=levels)
                            for c in self.configs]
        self.reference = {c: ref[c] for c in cases}
        self.out_dir = out_dir

    def op(self):
        out = []
        for config in self.configs:
            report = cli.run_case(config)
            files = cli.emit_tables(report, "aligned-text", self.out_dir)
            out.append((config.name, report, files))
        return out

    def check(self, output) -> list[str]:
        problems = []
        for (name, report, files), config in zip(output, self.configs):
            problems += [f"case {name}: {p}" for p in check_sweep(
                report.to_dict(), files, self.reference[name],
                config.levels + 1)]
        return problems


def check_sweep(report: dict, files: list[str], ref: dict,
                n_levels: int) -> list[str]:
    """Compare one ``run_case`` report and its emitted eigenvalue table
    with the first ``n_levels`` columns of the paper's tables, and check
    the upper bound at every level."""
    problems = []
    if report["config"].get("failures"):
        problems.append(f"run_case failures: {report['config']['failures']}")
    levels = report["levels"]
    if len(levels) != n_levels or any("lambdas" not in lv for lv in levels):
        return problems + ["missing or failed levels"]

    table = _emitted_eigen_rows(files)
    for t, row in enumerate(ref["eigenvalues"]):
        want = row[:n_levels]
        got = [f"{lv['lambdas'][t]:.4f}" for lv in levels]
        if got != want:
            problems.append(f"lambda_{t + 1}: {got} != {want}")
        if table.get(f"lambda_{t + 1}") != want:
            problems.append(f"emitted lambda_{t + 1}: "
                            f"{table.get(f'lambda_{t + 1}')} != {want}")

    for key, want_row in ref["residuals"].items():
        for lv, want in zip(levels, want_row):
            got = lv.get("residuals", {}).get(key, {}).get("r")
            if got is None or abs(got - want) > RESIDUAL_REL_TOL * abs(want):
                problems.append(f"r_{key} level {lv['level']}: {got} vs {want}")

    for lv in levels:
        if lv.get("upper_bound_ok") is not True:
            problems.append(f"upper bound fails at level {lv['level']}")
    return problems


def _emitted_eigen_rows(files) -> dict:
    """Row label -> level cells of the emitted aligned-text eigen table."""
    path = next((p for p in files if p.endswith("_eigenvalues.txt")), None)
    if path is None:
        return {}
    with open(path, encoding="utf-8") as f:
        rows = [line.split() for line in f.read().splitlines()[1:]]
    # cells: label, one value per level, trend, rate
    return {r[0]: r[1:-2] for r in rows if r}


class SolveLarge:
    """One assembly and eigensolve on a random nonuniform n x n tensor
    mesh of [0, pi]^2, drawn from the seed."""

    def __init__(self, seed: int, n: int = 256, k: int = 6):
        rng = np.random.default_rng(seed)
        self.k = k
        self.mesh = mesh.build_mesh(random_nodes(rng, n), random_nodes(rng, n))
        self._expected = None

    def op(self):
        system = assembly.assemble_mixed(self.mesh)
        pairs = eigensolve.solve_mixed_eigs(
            system, eigensolve.SolveOptions(k=self.k))
        return [p.lambda_h for p in pairs]

    def check(self, lambdas) -> list[str]:
        if self._expected is None:
            self._expected = kron_sum_oracle(
                self.mesh.node_x, self.mesh.node_y, self.k)
        return check_against_oracle(lambdas, self._expected,
                                    exact_square_eigs(self.k))


def random_nodes(rng, n: int) -> np.ndarray:
    """n cells on [0, pi] with widths drawn from U(1, 4): width ratio < 4."""
    widths = rng.uniform(1.0, 4.0, n)
    nodes = np.concatenate([[0.0], np.cumsum(widths)]) * (np.pi / widths.sum())
    nodes[-1] = np.pi
    return nodes


def rt0_1d_spectrum(nodes, k: int) -> np.ndarray:
    """k smallest eigenvalues of the 1-D RT0 pencil (G A^-1 G^T, diag(h)):
    P1 flux mass A, difference matrix G, cell widths h."""
    h = np.diff(np.asarray(nodes, dtype=float))
    n = len(h)
    i = np.arange(n)
    a = np.zeros((n + 1, n + 1))
    a[i, i] += h / 3.0
    a[i + 1, i + 1] += h / 3.0
    a[i, i + 1] = a[i + 1, i] = h / 6.0
    g = np.zeros((n, n + 1))
    g[i, i] = -1.0
    g[i, i + 1] = 1.0
    s = g @ np.linalg.solve(a, g.T)
    d = 1.0 / np.sqrt(h)
    return np.linalg.eigvalsh(d[:, None] * s * d[None, :])[:k]


def kron_sum_oracle(node_x, node_y, k: int) -> np.ndarray:
    """k smallest 2-D eigenvalues as sums of the two 1-D spectra: on a
    tensor mesh B A^-1 B^T = S_x (x) D_y + D_x (x) S_y and M = D_x (x) D_y."""
    sums = np.add.outer(rt0_1d_spectrum(node_x, k), rt0_1d_spectrum(node_y, k))
    return np.sort(sums.ravel())[:k]


def exact_square_eigs(k: int) -> list[int]:
    """k smallest Dirichlet eigenvalues m^2 + n^2 of [0, pi]^2."""
    return sorted(m * m + n * n for m in range(1, k + 1)
                  for n in range(1, k + 1))[:k]


def check_against_oracle(lambdas, expected, exact) -> list[str]:
    problems = []
    if len(lambdas) != len(expected):
        return [f"{len(lambdas)} eigenvalues, expected {len(expected)}"]
    for t, (lam, want, lo) in enumerate(zip(lambdas, expected, exact)):
        if not abs(lam - want) <= ORACLE_REL_TOL * want:
            problems.append(f"lambda_{t + 1} = {lam!r}, oracle {want!r}")
        if not lam >= lo:
            problems.append(f"lambda_{t + 1} = {lam!r} below exact {lo}")
    return problems
