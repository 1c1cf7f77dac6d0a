"""Mesh construction, refinement and metrics."""

import numpy as np
import pytest

from rrteig.assembly import assemble_mixed
from rrteig.errors import NonFiniteNodes, NonMonotonicNodes, TooFewNodes
from rrteig.mesh import (
    build_mesh,
    mesh_size,
    regularity_constant,
    uniform_mesh,
    uniform_refine,
)

from oracles import cell_areas, numbering


def test_build_mesh_basic():
    m = build_mesh([0.0, 1.0, 3.0], [0.0, 2.0])
    assert m.n1 == 2 and m.n2 == 1 and m.n_cells == 2
    np.testing.assert_allclose(m.hx, [1.0, 2.0])
    np.testing.assert_allclose(m.hy, [2.0])
    assert (m.node_x[0], m.node_x[-1], m.node_y[0], m.node_y[-1]) == (
        0.0, 3.0, 0.0, 2.0)
    assert m.level == 0


def test_node_validation():
    with pytest.raises(NonMonotonicNodes):
        build_mesh([0.0, 1.0, 1.0], [0.0, 1.0])
    with pytest.raises(NonMonotonicNodes):
        build_mesh([0.0, 2.0, 1.0], [0.0, 1.0])
    with pytest.raises(TooFewNodes):
        build_mesh([0.0], [0.0, 1.0])
    for bad in ([0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0],
                [0, 10**400]):
        with pytest.raises(NonFiniteNodes):
            build_mesh(bad, [0.0, 1.0])
        with pytest.raises(NonFiniteNodes):
            build_mesh([0.0, 1.0], bad)


def test_cell_indexing_roundtrip():
    m = uniform_mesh(0.0, 1.0, 3, 0.0, 1.0, 4)
    seen = set()
    for j in range(m.n2):
        for i in range(m.n1):
            idx = numbering(m).cell_index(i, j)
            seen.add(idx)
    assert seen == set(range(m.n_cells))


def test_refine_keeps_parent_nodes_bitwise():
    m = build_mesh([0.0, 0.3, 1.0], [0.0, 0.5, 0.7, 1.0])
    r = uniform_refine(m)
    assert r.level == m.level + 1
    assert r.n1 == 2 * m.n1 and r.n2 == 2 * m.n2
    # parents present bitwise at even positions, midpoints between them
    np.testing.assert_array_equal(r.node_x[0::2], m.node_x)
    np.testing.assert_array_equal(r.node_y[0::2], m.node_y)
    np.testing.assert_allclose(
        r.node_x[1::2], (m.node_x[:-1] + m.node_x[1:]) / 2
    )


def test_mesh_size_and_regularity():
    m = build_mesh([0.0, 1.0, 3.0], [0.0, 0.5, 1.0])
    assert mesh_size(m) == 2.0
    # worst aspect pairing: hx=2 against hy=0.5
    assert regularity_constant(m) == pytest.approx(4.0)
    u = uniform_mesh(0.0, 1.0, 4, 0.0, 1.0, 4)
    assert regularity_constant(u) == pytest.approx(1.0)


def test_is_uniform():
    assert uniform_mesh(0.0, np.pi, 8, 0.0, np.pi, 8).is_uniform()
    # refinement of a uniform mesh stays uniform despite float midpoints
    m = uniform_refine(uniform_mesh(0.0, np.pi, 8, 0.0, np.pi, 8))
    assert m.is_uniform()
    assert not uniform_mesh(0.0, 1.0, 4, 0.0, 1.0, 8).is_uniform()
    assert not build_mesh([0.0, 0.4, 1.0], [0.0, 0.5, 1.0]).is_uniform()



def test_cell_areas_row_major():
    m = build_mesh([0.0, 0.3, 1.0], [0.0, 0.5, 0.7, 1.0])
    want = [m.hx[i] * m.hy[j] for j in range(m.n2) for i in range(m.n1)]
    np.testing.assert_array_equal(cell_areas(m), want)


def test_widths_taken_once_and_read_only():
    """hx and hy are taken once per mesh, as read-only arrays equal to the
    node differences, from read-only nodes the caller's array cannot
    change; a refined mesh takes fresh ones."""
    given = np.array([0.0, 1.0, 3.0])
    m = build_mesh(given, [0.0, 2.0, 2.5, 4.0])
    given[1] = 2.0
    np.testing.assert_array_equal(m.node_x, [0.0, 1.0, 3.0])
    assert m.hx is m.hx and m.hy is m.hy
    np.testing.assert_array_equal(m.hx, np.diff(m.node_x))
    np.testing.assert_array_equal(m.hy, np.diff(m.node_y))
    for h in (m.hx, m.hy, m.node_x, m.node_y):
        assert not h.flags.writeable
        with pytest.raises(ValueError):
            h[0] = 1.0
    fine = uniform_refine(m)
    assert fine.hx is not m.hx and fine.hy is not m.hy
    np.testing.assert_array_equal(fine.hx, [0.5, 0.5, 1.0, 1.0])
    np.testing.assert_array_equal(fine.hy, np.diff(fine.node_y))
    for h in (fine.hx, fine.hy, fine.node_x, fine.node_y):
        assert not h.flags.writeable
    np.testing.assert_array_equal(m.hx, [1.0, 2.0])


def test_meshes_compare_and_hash_by_identity():
    """Two meshes with equal nodes are distinct, a mesh equals itself,
    and meshes and their mixed systems hash and go in a set."""
    one = uniform_mesh(0, 1, 2, 0, 1, 2)
    two = uniform_mesh(0, 1, 2, 0, 1, 2)
    assert one == one and one != two and not one == two
    assert hash(one) == hash(one) and len({one, two, one}) == 2
    systems = {assemble_mixed(one), assemble_mixed(one), assemble_mixed(two)}
    assert len(systems) == 2
    assert assemble_mixed(one) == assemble_mixed(one)
    assert assemble_mixed(one) != assemble_mixed(two)
