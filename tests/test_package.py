"""The top-level namespace holds the library API and no test oracle."""

import rrteig


def test_namespace_exports_library_names_only():
    """The README "Library" names are importable from rrteig; the dense
    eigensolver, the source-problem solve and the oracle-cap error, which
    only tests used, are not part of the package."""
    for name in ("uniform_mesh", "assemble_mixed", "solve_mixed_eigs",
                 "SolveOptions", "enumerate_exact", "expansion_term",
                 "field_for_mode"):
        assert hasattr(rrteig, name), name
    for name in ("dense_oracle_eigs", "solve_peq_poisson",
                 "OracleCapExceeded"):
        assert not hasattr(rrteig, name), name
        assert not hasattr(rrteig.errors, name), name
