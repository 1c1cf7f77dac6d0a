"""Mixed rectangular flux-element discretization of the Laplace
eigenvalue problem: assembly, eigensolvers, exact references,
superconvergent postprocessing, error-expansion analysis and the
equivalence with the projected enriched rotated-bilinear element."""

from .mesh import (
    TensorMesh,
    build_mesh,
    uniform_mesh,
    uniform_refine,
    mesh_size,
    regularity_constant,
)
from .assembly import (
    DofLayout,
    MixedSystem,
    PeqSystem,
    layout,
    assemble_mixed,
    assemble_peq,
)
from .eigensolve import (
    SolveOptions,
    MixedEigenpair,
    solve_mixed_eigs,
    dense_oracle_eigs,
)
from .exact import (
    Frequency,
    ExactEigenpair,
    FieldSample,
    enumerate_exact,
    field_for_mode,
    rt_interpolate_exact,
    l2_project_exact,
    align_exact_representative,
)
from .postprocess import (
    SuperclosenessReport,
    PostprocessedField,
    supercloseness_norms,
    i2h_sigma,
    j2h_u,
    error_norms_postprocessed,
)
from .analysis import (
    FrequencyMatch,
    EigenspaceBasis,
    expansion_term,
    convergence_rate,
    extrapolate,
    check_upper_bound,
    lower_bound_margin,
    match_frequencies,
    eigenspace_gap,
)
from .equivalence import (
    PeqSolution,
    EquivalenceReport,
    solve_peq_poisson,
    solve_peq_eigs,
    verify_equivalence,
)
from .cli import ExperimentConfig, RunReport, case_preset, run_case, emit_tables
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
