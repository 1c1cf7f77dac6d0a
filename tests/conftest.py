"""Shared meshes and expensive solves, computed once per session."""

import warnings

import numpy as np
import pytest

from rrteig.assembly import assemble_mixed
from rrteig.eigensolve import SolveOptions, solve_mixed_eigs
from rrteig.mesh import build_mesh, uniform_mesh, uniform_refine

from oracles import assembled

# hypothesis imports this module to report a failing example; one of its
# dependencies warns on import, which filterwarnings = error would turn
# into an internal error that stops the run.  Imported here once, with
# that warning ignored for this import only, every failure is reported.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

PI = np.pi

CASE_C_X = (0.0, PI / 4, PI / 2, 2 * PI / 3, 5 * PI / 6, PI)
CASE_C_Y = (0.0, PI / 6, PI / 3, PI / 2, 3 * PI / 4, PI)


@pytest.fixture(scope="session")
def mesh_a0():
    """Uniform 8x8 mesh on [0, pi]^2."""
    return uniform_mesh(0.0, PI, 8, 0.0, PI, 8)


@pytest.fixture(scope="session")
def mesh_c0():
    """Nonuniform 5x5 mesh on [0, pi]^2."""
    return build_mesh(CASE_C_X, CASE_C_Y)


@pytest.fixture(scope="session")
def system_a0(mesh_a0):
    """The assembled A, B and M of mesh_a0, from the oracles."""
    return assembled(mesh_a0)


@pytest.fixture(scope="session")
def pairs_a0(mesh_a0):
    return solve_mixed_eigs(assemble_mixed(mesh_a0), SolveOptions(k=6))


@pytest.fixture(scope="session")
def mesh_a_levels(mesh_a0):
    """Case a meshes, levels 0..4."""
    out = [mesh_a0]
    for _ in range(4):
        out.append(uniform_refine(out[-1]))
    return out
