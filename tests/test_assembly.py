"""Assembly oracles: quadrature checks of the closed-form element
matrices of the COO-scattered mixed matrices that the other oracles
read, their structural properties, and the two oracle forms of the 2-D
enriched element (closed form and reference element) against each
other."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    REF_COEFFS,
    assembled,
    assemble_peq,
    assemble_peq_coo,
    peq_cell_gradient,
    peq_cell_gradient_dual,
    peq_local_matrices,
)
from rrteig.mesh import build_mesh

_GX, _GW = np.polynomial.legendre.leggauss(6)


def _quad2d(f, x0, x1, y0, y1):
    """Gauss quadrature oracle, exact for the polynomial degrees here."""
    xm, xh = (x0 + x1) / 2, (x1 - x0) / 2
    ym, yh = (y0 + y1) / 2, (y1 - y0) / 2
    xg, yg = np.meshgrid(xm + xh * _GX, ym + yh * _GX)
    w = xh * yh * np.outer(_GW, _GW)
    return float(np.sum(w * f(xg, yg)))


def test_flux_mass_block_quadrature_oracle():
    """A's local block equals the integrals of the hat-profile products."""
    x0, x1, y0, y1 = 0.3, 1.1, -0.2, 0.5
    hx, hy = x1 - x0, y1 - y0
    m = build_mesh([x0, x1], [y0, y1])
    system = assembled(m)
    lay = system.layout
    shapes = {
        lay.xedge_index(0, 0): lambda x, y: (x1 - x) / hx,
        lay.xedge_index(1, 0): lambda x, y: (x - x0) / hx,
    }
    for a, fa in shapes.items():
        for b, fb in shapes.items():
            want = _quad2d(lambda x, y: fa(x, y) * fb(x, y), x0, x1, y0, y1)
            assert system.A[a, b] == pytest.approx(want, rel=1e-13)
    # y-direction block and zero coupling between components
    yb = lay.yedge_index(0, 0)
    yt = lay.yedge_index(0, 1)
    area = hx * hy
    assert system.A[yb, yb] == pytest.approx(area / 3, rel=1e-13)
    assert system.A[yb, yt] == pytest.approx(area / 6, rel=1e-13)
    assert system.A[lay.xedge_index(0, 0), yb] == 0.0


def test_flux_mass_spd(system_a0):
    a_dense = system_a0.A.toarray()
    np.testing.assert_allclose(a_dense, a_dense.T, atol=1e-15)
    vals = np.linalg.eigvalsh(a_dense)
    assert vals.min() > 0


def test_divergence_entries():
    """B holds +/- edge lengths: right/top positive, left/bottom negative."""
    m = build_mesh([0.0, 1.0, 3.0], [0.0, 0.5, 2.0])
    system = assembled(m)
    lay = system.layout
    b = system.B.toarray()
    for j in range(m.n2):
        for i in range(m.n1):
            c = lay.cell_index(i, j)
            hx, hy = m.hx[i], m.hy[j]
            expect = np.zeros(lay.n_sigma)
            expect[lay.xedge_index(i, j)] = -hy
            expect[lay.xedge_index(i + 1, j)] = hy
            expect[lay.yedge_index(i, j)] = -hx
            expect[lay.yedge_index(i, j + 1)] = hx
            np.testing.assert_allclose(b[c], expect, atol=1e-15)


def test_divergence_theorem_per_cell():
    """(B tau)_K equals the boundary flux for random edge data."""
    rng = np.random.default_rng(3)
    m = build_mesh([0.0, 0.7, 1.5, 2.0], [0.0, 1.0, 1.8])
    system = assembled(m)
    lay = system.layout
    tau = rng.standard_normal(lay.n_sigma)
    bt = system.B @ tau
    for j in range(m.n2):
        for i in range(m.n1):
            flux = (
                tau[lay.xedge_index(i + 1, j)] * m.hy[j]
                - tau[lay.xedge_index(i, j)] * m.hy[j]
                + tau[lay.yedge_index(i, j + 1)] * m.hx[i]
                - tau[lay.yedge_index(i, j)] * m.hx[i]
            )
            assert bt[lay.cell_index(i, j)] == pytest.approx(flux, rel=1e-13)


def test_translation_invariance():
    """Assembled matrices depend only on cell sizes, not the origin."""
    m1 = build_mesh([0.0, 0.4, 1.0], [0.0, 0.3, 0.9])
    m2 = build_mesh([5.0, 5.4, 6.0], [-2.0, -1.7, -1.1])
    s1, s2 = assembled(m1), assembled(m2)
    np.testing.assert_allclose(s1.A.toarray(), s2.A.toarray(), atol=1e-14)
    np.testing.assert_allclose(s1.B.toarray(), s2.B.toarray(), atol=1e-14)
    np.testing.assert_allclose(s1.M, s2.M, atol=1e-15)


def _nodes(draw, n, label):
    """n + 1 nodes from a random origin, cell widths from [1, 4] scaled
    by a random factor (width ratio <= 4)."""
    widths = draw(st.lists(st.floats(1.0, 4.0), min_size=n, max_size=n),
                  label=label)
    scale = draw(st.floats(0.01, 10.0), label=f"{label} scale")
    start = draw(st.floats(-5.0, 5.0), label=f"{label} start")
    return start + scale * np.concatenate([[0.0], np.cumsum(widths)])


@st.composite
def _meshes(draw, n_max=40):
    """Meshes of 1 to n_max cells per direction."""
    n1 = draw(st.integers(1, n_max), label="n1")
    n2 = draw(st.integers(1, n_max), label="n2")
    return build_mesh(_nodes(draw, n1, "x"), _nodes(draw, n2, "y"))


# --- enriched rotated-bilinear element -------------------------------------


def _peq_basis_fn(i, hx, hy, x0, y0):
    """Physical dual basis function i on [x0, x0+hx] x [y0, y0+hy]."""
    alpha = [2 / hy, 2 / hy, 2 / hx, 2 / hx, 4 / (hx * hy)][i]

    def f(x, y):
        xi, eta = np.broadcast_arrays(
            np.asarray(2 * (x - x0) / hx - 1, dtype=float),
            np.asarray(2 * (y - y0) / hy - 1, dtype=float),
        )
        mono = np.stack(
            [np.ones_like(xi), xi, eta, xi**2, eta**2], axis=-1
        )
        return alpha * (mono @ REF_COEFFS[:, i])

    return f


def test_peq_dual_basis_unit_dofs():
    """Edge and cell integrals of the physical basis are Kronecker deltas."""
    hx, hy, x0, y0 = 0.8, 0.5, 0.2, -0.1
    t = (_GX + 1) / 2  # quadrature on [0, 1]
    w = _GW / 2
    for i in range(5):
        f = _peq_basis_fn(i, hx, hy, x0, y0)
        dofs = [
            hy * np.sum(w * f(x0, y0 + hy * t)),            # left edge
            hy * np.sum(w * f(x0 + hx, y0 + hy * t)),       # right edge
            hx * np.sum(w * f(x0 + hx * t, y0)),            # bottom edge
            hx * np.sum(w * f(x0 + hx * t, y0 + hy)),       # top edge
            _quad2d(f, x0, x0 + hx, y0, y0 + hy),           # cell
        ]
        np.testing.assert_allclose(dofs, np.eye(5)[i], atol=1e-13)


def test_peq_local_stiffness_quadrature_oracle():
    hx, hy, x0, y0 = 0.8, 0.5, 0.2, -0.1
    k_loc = peq_local_matrices(hx, hy)
    eps = 1e-6

    def grad(f, x, y):
        fx = (f(x + eps, y) - f(x - eps, y)) / (2 * eps)
        fy = (f(x, y + eps) - f(x, y - eps)) / (2 * eps)
        return fx, fy

    for a in range(5):
        fa = _peq_basis_fn(a, hx, hy, x0, y0)
        for b in range(a, 5):
            fb = _peq_basis_fn(b, hx, hy, x0, y0)

            def integrand(x, y):
                ax, ay = grad(fa, x, y)
                bx, by = grad(fb, x, y)
                return ax * bx + ay * by

            want = _quad2d(integrand, x0, x0 + hx, y0, y0 + hy)
            assert k_loc[a, b] == pytest.approx(want, rel=2e-5, abs=2e-5)


def test_peq_global_spd_and_sizes():
    m = build_mesh([0.0, 0.7, 1.5, 2.0], [0.0, 1.0, 1.8])
    peq = assemble_peq(m)
    # free DOFs: interior vertical edges + interior horizontal + all cells
    n_int_edges = (m.n1 - 1) * m.n2 + m.n1 * (m.n2 - 1)
    assert peq.n_edge_free == n_int_edges
    assert len(peq.free) == n_int_edges + m.n_cells
    k_dense = peq.K.toarray()
    np.testing.assert_allclose(k_dense, k_dense.T, atol=1e-12)
    assert np.linalg.eigvalsh(k_dense).min() > 0
    # projected mass: zero on edge DOFs, 1/|K| on cells
    assert np.all(peq.M0_diag[: peq.n_edge_free] == 0.0)
    areas = np.repeat(m.hy, m.n1) * np.tile(m.hx, m.n2)
    np.testing.assert_allclose(peq.M0_diag[peq.n_edge_free:], 1.0 / areas)


def test_peq_cell_gradient_oracle():
    """Gradient edge values match analytic differentiation of the basis."""
    rng = np.random.default_rng(11)
    hx, hy = 0.8, 0.5
    m = build_mesh([0.0, hx], [0.0, hy])
    coeffs = rng.standard_normal(5)
    gxL, gxR, gyB, gyT = peq_cell_gradient(m, coeffs)
    eps = 1e-6

    def u(x, y):
        return sum(
            coeffs[i] * _peq_basis_fn(i, hx, hy, 0.0, 0.0)(x, y)
            for i in range(5)
        )

    y_mid, x_mid = hy / 2, hx / 2
    assert gxL[0, 0] == pytest.approx(
        (u(eps, y_mid) - u(-eps, y_mid)) / (2 * eps), rel=1e-7
    )
    assert gxR[0, 0] == pytest.approx(
        (u(hx + eps, y_mid) - u(hx - eps, y_mid)) / (2 * eps), rel=1e-7
    )
    assert gyB[0, 0] == pytest.approx(
        (u(x_mid, eps) - u(x_mid, -eps)) / (2 * eps), rel=1e-7
    )
    assert gyT[0, 0] == pytest.approx(
        (u(x_mid, hy + eps) - u(x_mid, hy - eps)) / (2 * eps), rel=1e-7
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mesh=_meshes(n_max=13))
@example(mesh=build_mesh([0.0, 1.5], [0.0, 2.0]))
@example(mesh=build_mesh([0.0, 1.5], [0.0, 1.0, 3.5, 4.0]))
@example(mesh=build_mesh([0.0, 1.0, 3.5, 4.0], [0.0, 1.5]))
def test_closed_form_peq_matches_reference_element(mesh):
    """The closed-form enriched system against the reference-element
    scatter of the oracle: free, n_edge_free and M0_diag bit for bit, K
    within 2e-15 max|K| with no stored zero, and the edge values of the
    cellwise gradient of random DOFs within 2e-15 of their largest."""
    got, want = assemble_peq(mesh), assemble_peq_coo(mesh)
    assert got.free.dtype == want.free.dtype
    assert got.free.tobytes() == want.free.tobytes()
    assert got.n_edge_free == want.n_edge_free
    assert got.M0_diag.tobytes() == want.M0_diag.tobytes()
    assert got.K.shape == want.K.shape
    assert np.count_nonzero(got.K.data == 0.0) == 0
    assert abs(got.K - want.K).max() <= 2e-15 * abs(want.K).max()

    n1, n2 = mesh.n1, mesh.n2
    n_tot = got.layout.n_sigma + got.layout.n_cell
    coeffs = np.random.default_rng(n1 * 64 + n2).standard_normal((n_tot, 2))
    for c in (coeffs, coeffs[:, 0]):
        for g, d in zip(peq_cell_gradient(mesh, c),
                        peq_cell_gradient_dual(mesh, c)):
            d = d.reshape(n2, n1, *c.shape[1:])
            assert g.shape == d.shape
            assert np.abs(g - d).max() <= 2e-15 * np.abs(d).max()
