"""Postprocessing operators: polynomial reproduction, locality,
boundedness; supercloseness norm plumbing."""

import numpy as np
import pytest

from rrteig.assembly import layout
from rrteig.errors import LayoutMismatch, OddMeshDimensions
from rrteig.exact import FieldSample
from rrteig.mesh import build_mesh, uniform_mesh
from rrteig.postprocess import (
    error_norms_postprocessed,
    i2h_sigma,
    j2h_u,
    supercloseness_norms,
)

from oracles import eval_cell

PI = np.pi


def _nonuniform_even_mesh():
    return build_mesh([0.0, 0.5, 0.9, 1.6, 2.0], [0.0, 0.4, 1.0, 1.3, 2.1])


def _bilinear_edge_dofs(mesh, fx, fy):
    """Edge-mean DOFs of the field (fx, fy) with components linear per
    direction: means reduce to midpoint values."""
    lay = layout(mesh)
    out = np.empty(lay.n_sigma)
    nx, ny = mesh.node_x, mesh.node_y
    for j in range(mesh.n2):
        ym = (ny[j] + ny[j + 1]) / 2
        for i in range(mesh.n1 + 1):
            out[lay.xedge_index(i, j)] = fx(nx[i], ym)
    for j in range(mesh.n2 + 1):
        for i in range(mesh.n1):
            xm = (nx[i] + nx[i + 1]) / 2
            out[lay.yedge_index(i, j)] = fy(xm, ny[j])
    return out


def test_q11_reproduction_sigma():
    """Globally bilinear flux data is reconstructed exactly (to 1e-13)."""
    mesh = _nonuniform_even_mesh()

    def fx(x, y):
        return 0.3 - 0.7 * x + 1.1 * y + 0.5 * x * y

    def fy(x, y):
        return -1.0 + 0.2 * x - 0.9 * y + 0.8 * x * y

    field = i2h_sigma(mesh, _bilinear_edge_dofs(mesh, fx, fy))
    rng = np.random.default_rng(2)
    for _ in range(20):
        i = rng.integers(0, mesh.n1)
        j = rng.integers(0, mesh.n2)
        x = rng.uniform(mesh.node_x[i], mesh.node_x[i + 1], 3)
        y = rng.uniform(mesh.node_y[j], mesh.node_y[j + 1], 3)
        sx, sy = eval_cell(field, int(i), int(j), x, y)
        np.testing.assert_allclose(sx, fx(x, y), atol=1e-13)
        np.testing.assert_allclose(sy, fy(x, y), atol=1e-13)


def test_q11_reproduction_u():
    mesh = _nonuniform_even_mesh()

    def f(x, y):
        return 2.0 + 0.3 * x - 0.6 * y + 0.9 * x * y

    # cell mean of a bilinear equals its centroid value
    nx, ny = mesh.node_x, mesh.node_y
    u = np.empty(mesh.n_cells)
    for j in range(mesh.n2):
        for i in range(mesh.n1):
            u[layout(mesh).cell_index(i, j)] = f(
                (nx[i] + nx[i + 1]) / 2, (ny[j] + ny[j + 1]) / 2
            )
    field = j2h_u(mesh, u)
    rng = np.random.default_rng(3)
    for _ in range(20):
        i = int(rng.integers(0, mesh.n1))
        j = int(rng.integers(0, mesh.n2))
        x = rng.uniform(nx[i], nx[i + 1], 3)
        y = rng.uniform(ny[j], ny[j + 1], 3)
        np.testing.assert_allclose(eval_cell(field, i, j, x, y), f(x, y),
                                   atol=1e-13)


def test_locality():
    """Perturbing one edge DOF changes only its own macro-element."""
    mesh = uniform_mesh(0.0, 1.0, 4, 0.0, 1.0, 4)
    lay = layout(mesh)
    rng = np.random.default_rng(4)
    base = rng.standard_normal(lay.n_sigma)
    bumped = base.copy()
    bumped[lay.xedge_index(1, 0)] += 1.0  # inside macro block (0, 0)
    f0 = i2h_sigma(mesh, base)
    f1 = i2h_sigma(mesh, bumped)
    x = np.array([0.6, 0.9])
    y = np.array([0.6, 0.9])
    for i, j in ((2, 2), (3, 0), (0, 3)):  # cells of other macro blocks
        s0 = eval_cell(f0, i, j, x, y)
        s1 = eval_cell(f1, i, j, x, y)
        np.testing.assert_array_equal(s0[0], s1[0])
        np.testing.assert_array_equal(s0[1], s1[1])
    # and it does change its own block
    assert not np.allclose(
        eval_cell(f0, 0, 0, np.array([0.1]), np.array([0.1]))[0],
        eval_cell(f1, 0, 0, np.array([0.1]), np.array([0.1]))[0],
    )


def test_boundedness():
    """Reconstruction values are bounded by a fixed multiple of the DOFs."""
    mesh = _nonuniform_even_mesh()
    lay = layout(mesh)
    rng = np.random.default_rng(5)
    sigma = rng.standard_normal(lay.n_sigma)
    u = rng.standard_normal(mesh.n_cells)
    fs = i2h_sigma(mesh, sigma)
    fu = j2h_u(mesh, u)
    worst = 0.0
    for j in range(mesh.n2):
        y = np.linspace(mesh.node_y[j], mesh.node_y[j + 1], 5)
        for i in range(mesh.n1):
            x = np.linspace(mesh.node_x[i], mesh.node_x[i + 1], 5)
            xg, yg = np.meshgrid(x, y)
            sx, sy = eval_cell(fs, i, j, xg, yg)
            uu = eval_cell(fu, i, j, xg, yg)
            worst = max(worst, np.abs(sx).max(), np.abs(sy).max(),
                        np.abs(uu).max())
    bound = 10.0 * max(np.abs(sigma).max(), np.abs(u).max())
    assert worst <= bound


def test_odd_mesh_rejected():
    mesh = uniform_mesh(0.0, 1.0, 3, 0.0, 1.0, 4)
    with pytest.raises(OddMeshDimensions):
        i2h_sigma(mesh, np.zeros(layout(mesh).n_sigma))
    with pytest.raises(OddMeshDimensions):
        j2h_u(mesh, np.zeros(mesh.n_cells))


def test_length_mismatch():
    mesh = uniform_mesh(0.0, 1.0, 4, 0.0, 1.0, 4)
    with pytest.raises(LayoutMismatch):
        i2h_sigma(mesh, np.zeros(3))
    with pytest.raises(LayoutMismatch):
        j2h_u(mesh, np.zeros(3))


def test_error_norm_exact_field_small():
    """Postprocessed exact interpolants are close to the exact field."""
    from rrteig.exact import l2_project_exact, rt_interpolate_exact

    mesh = uniform_mesh(0.0, PI, 8, 0.0, PI, 8)
    fld = FieldSample(1, 1)
    fs = i2h_sigma(mesh, rt_interpolate_exact(mesh, fld))
    fu = j2h_u(mesh, l2_project_exact(mesh, fld))
    # h^2-superconvergent ballpark at h = pi/8
    assert error_norms_postprocessed(fs, fld, order=0) < 0.1
    assert error_norms_postprocessed(fu, fld, order=0) < 0.05
    assert error_norms_postprocessed(fu, fld, order=1) < 0.5


def test_supercloseness_norms_plumbing(system_a0, pairs_a0):
    from rrteig.exact import l2_project_exact, rt_interpolate_exact

    fld = FieldSample(1, 1)
    mesh = system_a0.mesh
    sigma_i = rt_interpolate_exact(mesh, fld)
    pi0 = l2_project_exact(mesh, fld)
    rep = supercloseness_norms(system_a0, pairs_a0[0], sigma_i, pi0)
    # oracle recomputation with dense algebra
    d = sigma_i - pairs_a0[0].sigma_coeffs
    want = float(np.sqrt(d @ (system_a0.A.toarray() @ d)))
    assert rep.norm_sigma == pytest.approx(want, rel=1e-12)
    assert rep.norm_u > 0 and rep.norm_div > 0
    with pytest.raises(LayoutMismatch):
        supercloseness_norms(system_a0, pairs_a0[0], sigma_i[:-1], pi0)
