"""The mixed discretization of a mesh.

``assemble_mixed`` pairs a mesh with its layout, the cell counts, and
builds no matrix: on a tensor mesh the solver and the analyses read only
the 1-D cell widths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mesh import TensorMesh


@dataclass(frozen=True)
class DofLayout:
    """The cell counts of the discretization: n1 x n2 cells."""

    n1: int
    n2: int

    @property
    def n_cell(self) -> int:
        return self.n1 * self.n2


@dataclass(frozen=True)
class MixedSystem:
    """The mixed discretization of a mesh: the mesh and its DOF layout.

    On a tensor mesh the pencil is a Kronecker sum of two 1-D pencils, so
    the solver and every analysis read the cell widths alone and no 2-D
    matrix is formed.
    """

    layout: DofLayout
    mesh: TensorMesh


def assemble_mixed(mesh: TensorMesh) -> MixedSystem:
    """The mixed system of ``mesh``: its DOF layout and the mesh."""
    return MixedSystem(layout=DofLayout(mesh.n1, mesh.n2), mesh=mesh)
