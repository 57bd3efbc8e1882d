"""Import rules between the package's modules, read from their source with ``ast``.

The two Betti engines share nothing above the rank layer: the cellular
engine (``cells``) uses only the complex, error and linear-algebra modules,
and nothing but the front doors uses it.  The dense Fraction routines of
``linalg`` are the tests' reference and have no caller in the package.
"""

import ast
from pathlib import Path

import pytest

import macomplex

PACKAGE = Path(macomplex.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
DENSE_REFERENCE = {"rref", "kernel_basis", "solve_columns", "RowSpan"}


def package_imports(tree) -> set[str]:
    """The package modules a module imports, relatively or as ``macomplex.x``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "macomplex"):
            if node.module in (None, "macomplex"):  # from . import x
                out.update(alias.name for alias in node.names)
            else:
                out.add(node.module.split(".")[0])
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        out.update(name.split(".")[1] for name in names if name.startswith("macomplex."))
    return out & set(MODULES)


def names_used(tree) -> set[str]:
    """Every identifier a module names: variables, attributes and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
    return out


def test_cells_imports_only_the_rank_layer_and_below():
    assert package_imports(MODULES["cells"]) <= {"complexes", "errors", "linalg"}


def test_only_the_front_doors_import_cells():
    importers = {name for name, tree in MODULES.items() if "cells" in package_imports(tree)}
    assert importers == {"cli", "__init__"}


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"linalg"}))
def test_dense_reference_has_no_caller(name):
    assert not names_used(MODULES[name]) & DENSE_REFERENCE


def test_ring_layer_speaks_vertex_masks():
    # every layer, the ring scan included, speaks plain int vertex masks: no
    # module names a vertex-set wrapper, and the ring has no class objects
    for name, tree in MODULES.items():
        assert "VertexSet" not in names_used(tree), name
    assert "CohomologyClass" not in names_used(MODULES["cohomology"])
