"""Import rules between the package's modules, read from their source with ``ast``.

The two Betti engines share nothing above the rank layer: the cellular
engine (``cells``) uses only the complex, error and linear-algebra modules,
and of the last only ``rank_sparse``, and nothing but the front doors uses
it.  The d∘d checks are test oracles, so no module defines ``validate``.  The dense Fraction routines of
``linalg`` are the tests' reference and have no caller in the package.
``__all__`` names exactly the public API, every name in it but ``reconstruct``
is read by some module other than ``__init__``, and the README's quick start
runs.
No module other than ``__init__`` imports a name it never reads, and every
module-level private function or class is read somewhere in the package.
"""

import ast
import types
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


def names_read(tree) -> set[str]:
    """The identifiers a module reads: loaded variables and attribute names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def names_imported(tree) -> set[str]:
    """The names a module's imports bind, ``from __future__`` aside."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return out


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"__init__"}))
def test_no_module_imports_a_name_it_never_reads(name):
    tree = MODULES[name]
    assert names_imported(tree) - names_read(tree) == set()


def test_every_private_function_and_class_is_read():
    read = set().union(*map(names_read, MODULES.values()))
    unread = {
        f"{name}.{node.name}"
        for name, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in read
    }
    assert unread == set()


def test_cells_imports_only_the_rank_layer_and_below():
    assert package_imports(MODULES["cells"]) <= {"complexes", "errors", "linalg"}


def test_cells_takes_only_rank_sparse_from_linalg():
    taken = {
        alias.name
        for node in ast.walk(MODULES["cells"])
        if isinstance(node, ast.ImportFrom) and node.module == "linalg"
        for alias in node.names
    }
    assert taken == {"rank_sparse"}
    assert "linalg" not in names_used(MODULES["cells"])  # no `from . import linalg`


@pytest.mark.parametrize("name", sorted(MODULES))
def test_the_d_squared_checks_live_in_the_tests(name):
    # the d o d checker and its product test are test oracles, not package code
    tree = MODULES[name]
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "product_is_zero" not in names_used(tree) | defined
    assert "validate" not in defined


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


def test_all_lists_the_public_api():
    # every public name the package binds, other than its modules, is
    # exported, and nothing else: a deleted name cannot linger in __all__
    public = {
        name
        for name, value in vars(macomplex).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(macomplex.__all__) == public


def test_every_public_name_is_read_inside_the_package():
    # a public name that no module reads is a wrapper or a leftover; the one
    # exception, ``reconstruct``, is the tests' reference for both recognisers
    # and for the Stanley-Reisner round trip
    read = set().union(*(names_read(tree) for name, tree in MODULES.items() if name != "__init__"))
    assert set(macomplex.__all__) - read == {"reconstruct"}


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    values = {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.unparse(node.value)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert values["mac.hochster_betti(c5)"] == [1, 0, 0, 5, 5, 0, 0, 1]
    assert values["mac.build(c5).betti_numbers()"] == values["mac.hochster_betti(c5)"]
    assert namespace["model"].dims == (3, 3, 4)
    assert values["mac.growth_certificate(model, series)"].kind == "exponential"
