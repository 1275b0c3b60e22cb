"""Package hygiene: each module uses what it imports and exports only
names that exist.

Imports are read from the source with ``ast``; a name counts as used
when it appears anywhere in the module as a bare name, attribute roots
and annotations included.
"""

import ast
import importlib
import pathlib

import pytest

import jumpstab

SRC = pathlib.Path(jumpstab.__file__).resolve().parent
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def import_module(stem):
    return importlib.import_module(
        "jumpstab" if stem == "__init__" else f"jumpstab.{stem}"
    )


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("stem", MODULES)
def test_every_import_is_used_or_exported(stem):
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(getattr(import_module(stem), "__all__", ()))
    assert sorted(set(imported_names(tree)) - used - exported) == []


@pytest.mark.parametrize("stem", MODULES)
def test_every_export_resolves(stem):
    module = import_module(stem)
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []


def test_lazy_package_names():
    """The package binds each public name on first use: dir lists them
    all, a star import binds the same objects, an unknown name is an
    AttributeError."""
    assert set(jumpstab.__all__) <= set(dir(jumpstab))
    namespace = {}
    exec("from jumpstab import *", namespace)
    assert [name for name in jumpstab.__all__
            if namespace[name] is not getattr(jumpstab, name)] == []
    with pytest.raises(AttributeError, match="no_such_name"):
        jumpstab.no_such_name


def top_level_imports(stem):
    """Modules a module imports at its top level: package modules by
    stem, others by their top-level name."""
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield node.module if node.level else node.module.split(".")[0]


def loads_numpy(module):
    return module == "numpy" or module in MODULES and any(
        map(loads_numpy, top_level_imports(module))
    )


@pytest.mark.parametrize("stem", ["__init__", "__main__", "cli"])
def test_entry_point_imports_no_numpy(stem):
    """``python -m jumpstab`` parses its arguments, and sets the BLAS
    thread count, before any module that imports numpy loads."""
    assert [m for m in top_level_imports(stem) if loads_numpy(m)] == []


def eigvals_sites(tree, stem):
    """(module, enclosing function) of every reference to eigvals."""
    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "eigvals"
                or isinstance(node, ast.Name) and node.id == "eigvals"
                or isinstance(node, ast.alias) and node.name == "eigvals"):
            yield stem, where
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)

    return list(visit(tree, None))


def test_one_dense_eigensolver_site():
    """np.linalg.eigvals runs only inside matkit.spectral_radius, which the
    spectral tests reach only as their dense fallback."""
    sites = [
        site for stem in MODULES for site in eigvals_sites(
            ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8")), stem
        )
    ]
    assert sites == [("matkit", "spectral_radius")]


#: numpy calls that form products of modes or assemble lifts, and the
#: propagate kernel that steps coordinates through the lifts
LIFT_BUILDERS = {"einsum", "tensordot", "swapaxes", "kron", "_lifted_push"}


def names(tree):
    """Every identifier a module spells: attributes, names, imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.alias):
            yield node.name


def test_stability_builds_no_product_or_lift():
    """The second-moment map and its matrix live in propagate: stability
    reads spectra and certificates, assembles no product or lift and
    folds no horizon."""
    tree = ast.parse((SRC / "stability.py").read_text(encoding="utf-8"))
    found = sorted(set(names(tree)) & LIFT_BUILDERS)
    assert found == []


def test_no_module_imports_dataclasses():
    """Each type is a plain read-only class or a NamedTuple, which build
    at import for a fraction of a frozen dataclass's cost."""
    found = [
        stem for stem in MODULES
        for node in ast.walk(
            ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
        or isinstance(node, ast.Import)
        and any(alias.name == "dataclasses" for alias in node.names)
    ]
    assert found == []
