"""The top-level namespace holds the library API and no test oracle;
no module imports a name it does not use, no public function, class,
method or property of the package goes unread, and the README's config
table names the config's fields."""

import ast
import dataclasses
import re
from pathlib import Path

import rrteig
from rrteig.cli import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]


def test_namespace_exports_library_names_only():
    """The README "Library" names are importable from rrteig; the dense
    eigensolver, the source-problem solve, the oracle-cap error, the
    enriched-element eigensolver with its solution type, the 2-D
    enriched system with its certificate and eigenspace gap, and the 2-D
    interpolants of an exact field, which only tests use, are not part of
    the package; nor are a pair's 2-D vectors, which no analysis reads,
    nor the per-field reconstructions and per-order norms that
    postprocessing_norms replaced, nor the supercloseness result type,
    whose three norms are a dict, the level's report entry, nor the 2-D
    DOF numbering, which only the oracles read: the system's layout
    holds the cell counts alone."""
    for name in ("uniform_mesh", "assemble_mixed", "solve_mixed_eigs",
                 "SolveOptions", "enumerate_exact", "expansion_term",
                 "FieldSample", "verify_equivalence"):
        assert hasattr(rrteig, name), name
    for name in ("dense_oracle_eigs", "solve_peq_poisson",
                 "OracleCapExceeded", "solve_peq_eigs", "PeqSolution",
                 "assemble_peq", "PeqSystem", "peq_cell_gradient",
                 "eigenspace_gap", "verify_equivalence_2d",
                 "SingularSystem"):
        assert not hasattr(rrteig, name), name
        assert not hasattr(rrteig.errors, name), name
    for name in ("rt_interpolate_exact", "l2_project_exact"):
        assert not hasattr(rrteig, name), name
        assert not hasattr(rrteig.exact, name), name
    for name in ("u_coeffs", "sigma_coeffs"):
        assert not hasattr(rrteig.MixedEigenpair, name), name
    for name in ("PostprocessedField", "i2h_sigma", "j2h_u",
                 "error_norms_postprocessed", "SuperclosenessReport"):
        assert not hasattr(rrteig, name), name
        assert not hasattr(rrteig.postprocess, name), name
    for name in ("DofLayout", "layout", "DofNumbering", "numbering"):
        assert not hasattr(rrteig, name), name
    for name in ("n_xedge", "n_yedge", "n_sigma", "xedge_index",
                 "yedge_index", "cell_index"):
        assert not hasattr(rrteig.assembly.DofLayout, name), name
    assert not hasattr(rrteig.assembly, "layout")


def _unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads.

    ``import a.b`` binds ``a``; ``from __future__`` binds nothing.
    """
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_checker():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport numpy as np\n"
           "from a import b, c as d\n"
           "def f():\n    return os.sep, d\n")
    assert _unused_imports(src) == ["b", "np"]


def test_no_unused_module_imports():
    """Every module-level import in the package and the tests is read;
    the package ``__init__`` re-exports its imports and is exempt."""
    files = sorted((ROOT / "src" / "rrteig").glob("*.py"))
    files += sorted((ROOT / "tests").glob("*.py"))
    unused = {
        str(f.relative_to(ROOT)): names
        for f in files
        if f.name != "__init__.py"
        and (names := _unused_imports(f.read_text()))
    }
    assert unused == {}


def _reads(node, enclosing=frozenset()):
    """Names read under ``node``, a Name or an attribute access, except
    where the read lies inside a definition of that name."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)
    read = {name} - enclosing if name else set()
    for child in ast.iter_child_nodes(node):
        read |= _reads(child, enclosing)
    return read


def _unread_public_names(sources: dict[str, str], readme: str) -> list[str]:
    """Public module-level functions and classes of ``sources`` (file name
    -> text), and public methods and properties of those classes, that no
    module reads outside the name's own definition and that ``readme``
    does not name.  A read is a Name or an attribute access; an import
    alone is not."""
    trees = [ast.parse(text) for text in sources.values()]
    defs = [node for tree in trees for node in tree.body]
    defs += [node for top in defs if isinstance(top, ast.ClassDef)
             for node in top.body]
    defined = {
        node.name for node in defs
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    read = set().union(*(_reads(tree) for tree in trees))
    return sorted(name for name in defined - read
                  if not re.search(rf"\b{name}\b", readme))


def test_unread_public_names_checker():
    src = {
        "a.py": ("from b import used\n"
                 "def used_here():\n    return used_here\n"
                 "class Documented:\n"
                 "    def unread_method(self):\n"
                 "        return self.unread_method()\n"
                 "    @property\n"
                 "    def read_property(self):\n        return 1\n"
                 "def unread():\n    return unread()\n"
                 "def _private():\n    return used().read_property\n"),
        "b.py": "def used():\n    return 1\n",
    }
    assert _unread_public_names(src, "see `Documented`") == [
        "unread", "unread_method", "used_here"]


def test_no_unread_public_names():
    """Every public function, class, method and property of the package
    is read elsewhere in it or named in the README; the package
    ``__init__`` re-exports and does not count as a reader."""
    sources = {f.name: f.read_text()
               for f in sorted((ROOT / "src" / "rrteig").glob("*.py"))
               if f.name != "__init__.py"}
    readme = (ROOT / "README.md").read_text()
    assert _unread_public_names(sources, readme) == []


def test_mixed_system_holds_no_matrix():
    """MixedSystem is the mesh and its layout: no assembled matrix is a
    field of it, and the assembly module imports no scipy."""
    from rrteig.assembly import MixedSystem

    assert [f.name for f in dataclasses.fields(MixedSystem)] == [
        "layout", "mesh"]
    tree = ast.parse((ROOT / "src" / "rrteig" / "assembly.py").read_text())
    imported = [a.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for a in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module]
    assert imported and not any(m.split(".")[0] == "scipy" for m in imported)


def _config_table_keys(readme: str) -> list[str]:
    """The backquoted names in the key column of the README table that
    follows the ``--config`` paragraph, in row order."""
    text = readme.split("via `--config`:", 1)[1]
    rows = re.findall(r"^\| (.*?) \|", text.split("\n\n", 2)[1], re.M)
    return [key for row in rows[2:] for key in re.findall(r"`(\w+)`", row)]


def test_config_table_keys_checker():
    readme = ("A config via `--config`:\n\n| key | type |\n| --- | --- |\n"
              "| `a`, `b` | x |\n| `c` | `d` |\n\n| `e` | y |\n")
    assert _config_table_keys(readme) == ["a", "b", "c"]


def test_readme_config_table_matches_the_config():
    """The README's --config table lists exactly the fields of
    ExperimentConfig, in order, so a key cannot enter or leave the config
    without the doc."""
    readme = (ROOT / "README.md").read_text()
    assert _config_table_keys(readme) == [
        f.name for f in dataclasses.fields(ExperimentConfig)]
