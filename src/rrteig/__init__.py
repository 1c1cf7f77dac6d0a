"""Mixed rectangular flux-element discretization of the Laplace
eigenvalue problem: assembly, eigensolvers, exact references,
superconvergent postprocessing, error-expansion analysis and the
equivalence with the projected enriched rotated-bilinear element."""

from .mesh import (TensorMesh, build_mesh, uniform_mesh, uniform_refine,
                   mesh_size, regularity_constant)
from .assembly import MixedSystem, assemble_mixed
from .eigensolve import (SolveOptions, MixedEigenpair, Spectrum,
                         solve_mixed_eigs)
from .exact import (ExactEigenpair, FieldSample, enumerate_exact,
                    cell_mean_factors)
from .postprocess import supercloseness_norms, postprocessing_norms
from .analysis import (expansion_term, convergence_rate, extrapolate,
                       check_upper_bound, lower_bound_margin,
                       match_frequencies)
from .equivalence import EquivalenceReport, verify_equivalence
from .cli import ExperimentConfig, RunReport, case_preset, run_case, emit_tables
from . import errors

__version__ = "0.1.0"
