"""Tensor-product rectangular meshes with uniform midpoint refinement.

A mesh is defined by two strictly increasing node vectors.  Cells K_{i,j}
are indexed i fast, j slow (row-major); every module in the library shares
this ordering.  Meshes are immutable after construction: their node
vectors are read-only copies, so the cached cell widths stay theirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFiniteNodes, NonMonotonicNodes, TooFewNodes


@dataclass(frozen=True, eq=False)
class TensorMesh:
    """Rectangular mesh gridded by node vectors ``node_x`` and ``node_y``.

    Meshes compare and hash by identity: their fields are arrays.

    Parameters
    ----------
    node_x, node_y : ndarray
        Strictly increasing node coordinates, length n1+1 and n2+1.
    level : int
        Refinement counter, 0 for a freshly built mesh.
    """

    node_x: np.ndarray
    node_y: np.ndarray
    level: int = 0

    @property
    def n1(self) -> int:
        return len(self.node_x) - 1

    @property
    def n2(self) -> int:
        return len(self.node_y) - 1

    @property
    def n_cells(self) -> int:
        return self.n1 * self.n2

    @cached_property
    def hx(self) -> np.ndarray:
        """Cell widths h_{x_i}, length n1, taken once and read-only."""
        return _widths(self.node_x)

    @cached_property
    def hy(self) -> np.ndarray:
        """Cell heights h_{y_j}, length n2, taken once and read-only."""
        return _widths(self.node_y)

    def is_uniform(self) -> bool:
        """True when all cells share one square size h x h (up to roundoff)."""
        hx, hy = self.hx, self.hy
        h = (self.node_x[-1] - self.node_x[0]) / self.n1
        tol = 1e-12 * h
        return bool(
            np.all(np.abs(hx - h) <= tol) and np.all(np.abs(hy - h) <= tol)
        )


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _widths(nodes) -> np.ndarray:
    return _read_only(np.diff(nodes))


def _check_nodes(nodes) -> np.ndarray:
    try:
        arr = np.array(nodes, dtype=float)  # a copy the caller cannot change
    except OverflowError as exc:  # an integer beyond the float range
        raise NonFiniteNodes(f"node vector must hold finite coordinates: "
                             f"{exc}") from exc
    if arr.ndim != 1 or len(arr) < 2:
        raise TooFewNodes(f"node vector needs >= 2 entries, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteNodes("node vector must hold finite coordinates")
    if np.any(np.diff(arr) <= 0):
        raise NonMonotonicNodes("node vector must be strictly increasing")
    return _read_only(arr)


def build_mesh(node_x, node_y) -> TensorMesh:
    """Build a mesh from two strictly increasing node vectors."""
    return TensorMesh(_check_nodes(node_x), _check_nodes(node_y), level=0)


def uniform_mesh(start_x, end_x, count_x, start_y, end_y, count_y) -> TensorMesh:
    """Build a mesh from (start, end, count) uniform descriptors."""
    return build_mesh(
        np.linspace(start_x, end_x, count_x + 1),
        np.linspace(start_y, end_y, count_y + 1),
    )


def _refine_nodes(nodes: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(nodes) - 1)
    out[0::2] = nodes
    out[1::2] = (nodes[:-1] + nodes[1:]) / 2.0
    return _read_only(out)


def uniform_refine(mesh: TensorMesh) -> TensorMesh:
    """Insert the midpoint of every cell edge; parent nodes are kept bitwise."""
    return TensorMesh(
        _refine_nodes(mesh.node_x),
        _refine_nodes(mesh.node_y),
        level=mesh.level + 1,
    )


def mesh_size(mesh: TensorMesh) -> float:
    """h = max over all cell edge lengths."""
    return float(max(mesh.hx.max(), mesh.hy.max()))


def regularity_constant(mesh: TensorMesh) -> float:
    """Smallest a >= 1 with a^-1 h_y <= h_x <= a h_y over all cells: as
    division rounds monotonically, the extreme ratios pair extreme widths."""
    hx, hy = mesh.hx, mesh.hy
    return float(max(hx.max() / hy.min(), 1.0 / (hx.min() / hy.max())))
