"""DOF enumeration of the mixed discretization.

``DofLayout`` numbers the edge (flux) and cell unknowns of the 2-D
discretization; a pair's 2-D vectors, formed from its 1-D factors,
follow it.  ``assemble_mixed`` pairs a mesh with its layout and builds
no matrix: on a tensor mesh the solver and the analyses read only the
1-D cell widths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mesh import TensorMesh


@dataclass(frozen=True)
class DofLayout:
    """Degree-of-freedom enumeration shared by the flux and edge spaces.

    Vertical (x-normal) edge DOFs come first, ordered like the node grid
    (line index i fast, cell row j slow); horizontal (y-normal) edge DOFs
    follow; cell DOFs are row-major over cells.
    """

    n1: int
    n2: int

    @property
    def n_xedge(self) -> int:
        return (self.n1 + 1) * self.n2

    @property
    def n_yedge(self) -> int:
        return self.n1 * (self.n2 + 1)

    @property
    def n_sigma(self) -> int:
        return self.n_xedge + self.n_yedge

    @property
    def n_cell(self) -> int:
        return self.n1 * self.n2

    def xedge_index(self, i, j):
        """DOF index of the vertical edge on line x_i in cell row j."""
        return j * (self.n1 + 1) + i

    def yedge_index(self, i, j):
        """DOF index of the horizontal edge on line y_j in cell column i."""
        return self.n_xedge + j * self.n1 + i

    def cell_index(self, i, j):
        return j * self.n1 + i


def layout(mesh: TensorMesh) -> DofLayout:
    return DofLayout(mesh.n1, mesh.n2)


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
    return MixedSystem(layout=layout(mesh), mesh=mesh)
