"""End-to-end acceptance gate.

Each test covers one published acceptance criterion and prints a single
PASS/FAIL line.  The reference tables below are the printed values being
reproduced; residuals carry three significant digits.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from rrteig.analysis import match_frequencies
from rrteig.assembly import assemble_mixed
from rrteig.cli import case_preset, run_case
from rrteig.eigensolve import SolveOptions, solve_mixed_eigs
from rrteig.exact import FieldSample, enumerate_exact
from rrteig.mesh import build_mesh, uniform_mesh

from oracles import (
    assembled,
    cell_integral_u,
    dense_eigenvalues,
    eigenspace_gap,
    eval_cell,
    factor_pair,
    numbering,
    reconstruction,
    rt_interpolate_exact,
    sigma_coeffs,
)

PI = np.pi

# --- published reference tables -------------------------------------------

TABLE_A_EIGS = [
    ("2.0258", "2.0064", "2.0016", "2.0004", "2.0001"),
    ("5.2225", "5.0549", "5.0137", "5.0034", "5.0009"),
    ("5.2225", "5.0549", "5.0137", "5.0034", "5.0009"),
    ("8.4191", "8.1033", "8.0257", "8.0064", "8.0016"),
    ("11.0932", "10.2663", "10.0660", "10.0165", "10.0041"),
    ("11.0932", "10.2663", "10.0660", "10.0165", "10.0041"),
]

TABLE_A_RESID = {
    "1": (1.30e-04, 8.23e-06, 5.16e-07, 3.22e-08, 2.02e-09),
    "2": (4.00e-03, 2.64e-04, 1.67e-05, 1.05e-06, 6.55e-08),
    "3": (4.00e-03, 2.64e-04, 1.67e-05, 1.05e-06, 6.55e-08),
    "4": (7.86e-03, 5.20e-04, 3.29e-05, 2.06e-06, 1.29e-07),
    "5": (3.94e-02, 2.90e-03, 1.87e-04, 1.17e-05, 7.35e-07),
    "6": (3.94e-02, 2.90e-03, 1.87e-04, 1.17e-05, 7.35e-07),
}

TABLE_B_EIGS = [
    ("2.0161", "2.0040", "2.0010", "2.0003", "2.0001"),
    ("5.0646", "5.0161", "5.0040", "5.0010", "5.0003"),
    ("5.2128", "5.0525", "5.0131", "5.0033", "5.0008"),
    ("8.2612", "8.0645", "8.0161", "8.0040", "8.0010"),
    ("10.2760", "10.0685", "10.0171", "10.0043", "10.0011"),
    ("11.0835", "10.2639", "10.0654", "10.0163", "10.0041"),
]

# the last r_4 entry is printed inconsistently with its own rate column;
# the rate-consistent value (6.85e-08) is asserted
TABLE_B_RESID = {
    "1": (6.91e-05, 4.37e-06, 2.74e-07, 1.71e-08, 1.07e-09),
    "4": (4.19e-03, 2.76e-04, 1.75e-05, 1.10e-06, 6.85e-08),
    "11": (1.16e00, 3.08e-03, 1.98e-04, 1.25e-05, 7.80e-07),
}

TABLE_C_EIGS = [
    ("2.0750", "2.0186", "2.0046", "2.0012", "2.0003"),
    ("5.6299", "5.1583", "5.0395", "5.0099", "5.0025"),
    ("5.6299", "5.1583", "5.0395", "5.0099", "5.0025"),
    ("9.1848", "8.2981", "8.0743", "8.0186", "8.0046"),
    ("13.0390", "10.7760", "10.1913", "10.0476", "10.0119"),
    ("13.0390", "10.7760", "10.1913", "10.0476", "10.0119"),
]

TABLE_C_RESID = {
    "1": (7.16e-04, 4.67e-05, 2.94e-06, 1.84e-07, 1.15e-08),
    "4": (-3.16e-03, 1.06e-03, 8.20e-05, 5.36e-06, 3.39e-07),
    "11": (-1.12e-02, 2.99e-02, 2.09e-03, 1.34e-04, 8.40e-06),
}


@pytest.fixture(scope="module")
def report_a():
    return run_case(case_preset("a")).to_dict()


@pytest.fixture(scope="module")
def report_b():
    return run_case(case_preset("b")).to_dict()


@pytest.fixture(scope="module")
def report_c():
    return run_case(case_preset("c")).to_dict()


def _verdict(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def _eigs_match(report, table):
    for t, row in enumerate(table):
        got = tuple(
            f"{lv['lambdas'][t]:.4f}" for lv in report["levels"]
        )
        if got != row:
            return False, f"row {t + 1}: {got} != {row}"
    return True, ""


def _resid_match(report, table, rel=0.02):
    for key, row in table.items():
        for lv, want in zip(report["levels"], row):
            got = lv["residuals"][key]["r"]
            if abs(got - want) > rel * abs(want):
                return False, f"r_{key}: {got:.3e} vs {want:.3e}"
    return True, ""


def test_criterion_1_eigenvalue_table_uniform(report_a):
    ok, why = _eigs_match(report_a, TABLE_A_EIGS)
    rates_ok = all(abs(r - 2.0) <= 0.02 for r in report_a["eigen_rates"])
    budget_ok = sum(lv["time_seconds"] for lv in report_a["levels"]) < 600
    _verdict(1, ok and rates_ok and budget_ok,
             f"uniform-mesh eigenvalue table to 4 decimals, rate 2.00 "
             f"({why or 'all rows match'})")


def test_criterion_2_residual_table_uniform(report_a):
    ok, why = _resid_match(report_a, TABLE_A_RESID)
    rates_ok = all(
        abs(report_a["residual_rates"][k] - 4.0) <= 0.10
        for k in TABLE_A_RESID
    )
    _verdict(2, ok and rates_ok,
             f"uniform-mesh residuals within 2%, rate 4.00 +- 0.10 "
             f"({why or 'all rows match'})")


def test_criterion_3_other_mesh_tables(report_b, report_c):
    ok_b, why_b = _eigs_match(report_b, TABLE_B_EIGS)
    ok_br, why_br = _resid_match(report_b, TABLE_B_RESID)
    ok_c, why_c = _eigs_match(report_c, TABLE_C_EIGS)
    ok_cr, why_cr = _resid_match(report_c, TABLE_C_RESID)
    sign_ok = (
        report_c["levels"][0]["residuals"]["4"]["r"] < 0
        and report_c["levels"][0]["residuals"]["11"]["r"] < 0
        and report_c["levels"][1]["residuals"]["4"]["r"] > 0
    )
    rates_ok = all(
        abs(rep["residual_rates"][k] - 4.0) <= 0.10
        for rep, tab in ((report_b, TABLE_B_RESID), (report_c, TABLE_C_RESID))
        for k in tab
    )
    _verdict(3, ok_b and ok_br and ok_c and ok_cr and sign_ok and rates_ok,
             "quasi-uniform and nonuniform tables including residual signs "
             f"({why_b or why_br or why_c or why_cr or 'all rows match'})")


def test_criterion_4_degenerate_pairs(report_a):
    ok = True
    for lv in report_a["levels"]:
        lam = lv["lambdas"]
        ok = ok and abs(lam[1] - lam[2]) <= 1e-10 * lam[1]
        ok = ok and abs(lam[4] - lam[5]) <= 1e-10 * lam[4]
    _verdict(4, ok, "degenerate pairs equal to 1e-10 relative at all levels")


def test_criterion_5_upper_bounds(report_a, report_b, report_c):
    ok = all(
        lv["upper_bound_ok"]
        for rep in (report_a, report_b, report_c)
        for lv in rep["levels"]
    )
    _verdict(5, ok, "every computed eigenvalue bounds the exact one above")


def test_criterion_6_extrapolation(report_a, report_b, report_c):
    ok = all(
        abs(rep["extrapolation"]["rates"][-1] - 4.0) <= 0.2
        for rep in (report_a, report_b, report_c)
    )
    _verdict(6, ok, "extrapolated first eigenvalue converges at rate 4 +- 0.2")


def test_criterion_7_supercloseness(report_a):
    sc = [lv["supercloseness"] for lv in report_a["levels"]]
    ok = True
    for key in ("norm_sigma", "norm_u"):
        vals = [s[key] for s in sc[1:]]  # levels 1..4
        for a, b in zip(vals[:-1], vals[1:]):
            ok = ok and abs(np.log2(a / b) - 2.0) <= 0.1
    _verdict(7, ok, "supercloseness norms decay at rate 2.0 +- 0.1")


def test_criterion_8_postprocessing(report_a):
    pp = [lv["postprocessing"] for lv in report_a["levels"]]
    ok = True
    for key, target, tol in (
        ("sigma_l2", 2.0, 0.2), ("u_l2", 2.0, 0.2),
        ("sigma_h1", 1.0, 0.2), ("u_h1", 1.0, 0.2),
    ):
        rate = np.log2(pp[-2][key] / pp[-1][key])
        ok = ok and abs(rate - target) <= tol
    _verdict(8, ok, "postprocessed errors superconverge (2.0 L2 / 1.0 H1)")


def test_criterion_9_equivalence(report_a, report_b, report_c):
    # every level of every case, 15 in all
    eqs = [lv.get("equivalence") for rep in (report_a, report_b, report_c)
           for lv in rep["levels"]]
    ok = len(eqs) == 15 and all(
        e is not None and e["max_eig_rel_diff"] <= 1e-8
        and e["max_sigma_discrepancy"] <= 1e-8
        for e in eqs
    )
    _verdict(9, ok, "mixed and enriched-element solutions coincide to 1e-8 "
             "on every level")


def test_criterion_10_oracle_agreement():
    meshes = [
        uniform_mesh(0, PI, 4, 0, PI, 4),
        uniform_mesh(0, PI, 8, 0, PI, 8),
        uniform_mesh(0, PI, 16, 0, PI, 16),
        uniform_mesh(0, PI, 8, 0, PI, 16),
        build_mesh(
            (0.0, PI / 4, PI / 2, 2 * PI / 3, 5 * PI / 6, PI),
            (0.0, PI / 6, PI / 3, PI / 2, 3 * PI / 4, PI),
        ),
    ]
    ok = True
    for mesh in meshes:
        k = min(12, mesh.n_cells)
        it = solve_mixed_eigs(assemble_mixed(mesh), SolveOptions(k=k))
        orc = dense_eigenvalues(assembled(mesh), k)
        for p, q in zip(it, orc):
            ok = ok and abs(p.lambda_h - q) <= 1e-9 * q
    _verdict(10, ok, "iterative and dense-oracle eigenvalues agree to 1e-9")


def test_criterion_11_frequency_resolution(report_a):
    # lambda = 10 cluster on the finest uniform level
    h = PI / 128
    want = 10.0 + 82.0 * h * h / 12.0
    ten = [m for m in report_a["levels"][4]["frequency_matches"]
           if (m["m"], m["n"]) == (1, 3)]
    ok = len(ten) == 2 and all(
        abs(m["lambda_h"] - want) <= 5e-5 for m in ten
    )

    # lambda = 50 triple on a uniform 64x64 mesh
    exact = enumerate_exact((PI, PI), count=60)
    i0 = next(i for i, e in enumerate(exact) if abs(e.value - 50) < 1e-9)
    mesh = uniform_mesh(0, PI, 64, 0, PI, 64)
    system = assemble_mixed(mesh)
    pairs = solve_mixed_eigs(system, SolveOptions(k=i0 + 3))
    cluster = pairs[i0 : i0 + 3]
    matches = match_frequencies(cluster, mesh, exact[i0].domain)
    got = [(m["m"], m["n"]) for m in matches]
    # ascending eigenvalues: the smaller (5,5) shift first, doubled (1,7) after
    ok = ok and got == [(5, 5), (1, 7), (1, 7)]
    ok = ok and abs(cluster[1].lambda_h - cluster[2].lambda_h) <= 1e-9 * 50
    _verdict(11, ok, "cluster members resolve into their frequency shifts")


def test_criterion_12_property_suites(system_a0, pairs_a0):
    # rank-one bilinear reproduction of the flux postprocessing:
    # sx = sy = (0.4 - 0.8 x)(0.6 + 1.2 y), every monomial coefficient
    # nonzero, from its edge means, which are edge-midpoint values
    mesh = uniform_mesh(0.0, 1.0, 4, 0.0, 1.0, 4)
    nx, ny = mesh.node_x, mesh.node_y
    xm, ym = (nx[:-1] + nx[1:]) / 2, (ny[:-1] + ny[1:]) / 2
    f = lambda x, y: (0.4 - 0.8 * x) * (0.6 + 1.2 * y)
    pair = factor_pair(v=0.4 - 0.8 * xm, w=0.6 + 1.2 * ym,
                       flux_x=0.4 - 0.8 * nx, flux_y=0.6 + 1.2 * ny)
    fld = reconstruction(mesh, pair, "sigma")
    rng = np.random.default_rng(1)
    repro_ok = True
    for _ in range(10):
        i = int(rng.integers(0, mesh.n1))
        j = int(rng.integers(0, mesh.n2))
        x = rng.uniform(mesh.node_x[i], mesh.node_x[i + 1], 4)
        y = rng.uniform(mesh.node_y[j], mesh.node_y[j + 1], 4)
        sx, sy = eval_cell(fld, i, j, x, y)
        repro_ok = repro_ok and np.all(np.abs(sx - f(x, y)) <= 1e-13)
        repro_ok = repro_ok and np.all(np.abs(sy - f(x, y)) <= 1e-13)

    # commuting interpolation: B sigma_I equals exact divergence integrals
    mesh_a = system_a0.mesh
    fexact = FieldSample(2, 1)
    sigma_i = rt_interpolate_exact(mesh_a, fexact)
    got = system_a0.B @ sigma_i
    want = np.empty(mesh_a.n_cells)
    nx, ny = mesh_a.node_x, mesh_a.node_y
    for j in range(mesh_a.n2):
        for i in range(mesh_a.n1):
            want[numbering(mesh_a).cell_index(i, j)] = fexact.value * (
                cell_integral_u(fexact, nx[i], nx[i + 1], ny[j], ny[j + 1])
            )
    commute_ok = np.max(np.abs(got - want)) <= 1e-12

    # A-orthogonality of the eigen-fluxes
    s = np.column_stack([sigma_coeffs(p) for p in pairs_a0])
    gram = s.T @ (system_a0.A @ s)
    lam = np.array([p.lambda_h for p in pairs_a0])
    ortho_ok = np.allclose(gram, np.diag(lam), atol=1e-9 * lam.max())

    # gap symmetry
    rng = np.random.default_rng(2)
    metric = sp.diags(np.abs(rng.standard_normal(12)) + 0.5)
    v = rng.standard_normal((12, 2))
    w = v + 0.1 * rng.standard_normal((12, 2))
    gap_ok = abs(eigenspace_gap(v, w, metric)
                 - eigenspace_gap(w, v, metric)) <= 1e-12

    _verdict(12, repro_ok and commute_ok and ortho_ok and gap_ok,
             "standalone property suites (reproduction, commuting "
             "interpolation, orthogonality, gap symmetry)")
