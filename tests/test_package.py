"""Package hygiene: each module, the test modules included, uses what it
imports; each exports only names that exist, and each public function
has a user.

Imports are read from the source with ``ast``; a name counts as used
when it appears anywhere in the module as a bare name, attribute roots
and annotations included.
"""

import ast
import importlib
import inspect
import json
import pathlib
import re
import subprocess
import sys

import pytest

import jumpstab

SRC = pathlib.Path(jumpstab.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent
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


def unused_imports(path, exported=()):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported_names(tree)) - used - set(exported))


@pytest.mark.parametrize("stem", MODULES)
def test_every_import_is_used_or_exported(stem):
    exported = getattr(import_module(stem), "__all__", ())
    assert unused_imports(SRC / f"{stem}.py", exported) == []


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")),
                         ids=lambda path: path.stem)
def test_every_test_import_is_used(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("stem", MODULES)
def test_every_export_resolves(stem):
    module = import_module(stem)
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []


@pytest.mark.parametrize("name", ["NumericalError", "ValidationReport",
                                  "SystemFileError"])
def test_numpy_free_names_load_no_numpy(name):
    """Each public name loads from the module that defines it: these three
    live in modules that import no numpy, and looking one up loads none."""
    script = (f"import sys, jumpstab\n"
              f"jumpstab.{name}\n"
              f"print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "False\n"


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


def test_submodule_loads_on_first_use():
    """In a fresh interpreter ``jumpstab.stability`` imports the submodule,
    as the benchmark's tracer reads each layer."""
    script = ("import sys, jumpstab\n"
              "before = 'jumpstab.stability' in sys.modules\n"
              "module = jumpstab.stability\n"
              "print(before, module is sys.modules['jumpstab.stability'])\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "False True\n"


def public_callables():
    """Each function of ``__all__``, and each public classmethod of its
    classes as ``Class.method``."""
    for name in jumpstab.__all__:
        obj = getattr(jumpstab, name)
        if inspect.isfunction(obj):
            yield name
        elif inspect.isclass(obj):
            yield from (f"{name}.{attr}" for attr, value in vars(obj).items()
                        if isinstance(value, classmethod)
                        and not attr.startswith("_"))


def test_every_public_function_has_a_user():
    """Each function of ``__all__``, and each public classmethod of its
    classes, is named by the command line, a demo, the README or the
    benchmark's scripts: public surface that nothing uses is deleted.
    The classes themselves, the input and result types, are exempt."""
    root = pathlib.Path(__file__).resolve().parents[1]
    users = [root / "src" / "jumpstab" / "cli.py", root / "README.md",
             *(root / "demos").glob("*.py"), *(root / "perfbench").glob("*.py")]
    text = "\n".join(path.read_text(encoding="utf-8") for path in users)
    unused = [name for name in public_callables()
              if not re.search(rf"\b{name.split('.')[-1]}\b", text)]
    assert unused == []


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


@pytest.mark.parametrize("stem", ["__init__", "__main__", "cli", "systemfile"])
def test_entry_point_imports_no_numpy(stem):
    """``python -m jumpstab`` parses its arguments, and sets the BLAS
    thread count, before any module that imports numpy loads; the reader
    checks a system file before any such module loads."""
    assert [m for m in top_level_imports(stem) if loads_numpy(m)] == []


def sites(hit):
    """(module, enclosing function) of every node of the library's source
    for which ``hit`` holds."""
    def visit(node, stem, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if hit(node):
            yield stem, where
        for child in ast.iter_child_nodes(node):
            yield from visit(child, stem, where)

    return [site for stem in MODULES for site in visit(
        ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8")), stem,
        None)]


def calls(node, name):
    """Whether ``node`` calls ``name``, bare or as an attribute."""
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == name
        or isinstance(node.func, ast.Attribute) and node.func.attr == name)


def test_one_dense_eigensolver_site():
    """np.linalg.eigvals runs only inside matkit.spectral_radius, which the
    spectral tests reach only as their dense fallback."""
    assert sites(lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "eigvals"
        or isinstance(node, ast.Name) and node.id == "eigvals"
        or isinstance(node, ast.alias) and node.name == "eigvals")) == [
        ("matkit", "spectral_radius")]


def test_only_the_process_entry_freezes_the_heap():
    """``__main__.run`` freezes the heap after ``main``, so the process's
    final collections skip it; ``cli.main`` in process keeps normal
    collection, and the installed command ends the same way as
    ``python -m jumpstab``."""
    assert sites(lambda node: calls(node, "freeze")) == [("__main__", "run")]
    # a regex, not tomllib, which Python 3.10 lacks
    pyproject = (TESTS.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^jumpstab\s*=\s*"(.*)"$', pyproject, re.M) == [
        "jumpstab.__main__:run"]


def test_only_the_reader_builds_a_system():
    """In the library only the file reader builds a system. The numerics
    take mode arrays and wrap none they derive in a new system, whose
    constructor would check them again."""
    assert sites(lambda node: calls(node, "JumpLinearSystem")) == [
        ("systemfile", "_build")]


#: numpy calls that form products of modes or assemble lifts, propagate's
#: one builder of the Kronecker lifts and its kernel that steps
#: coordinates through them
LIFT_BUILDERS = {"einsum", "tensordot", "swapaxes", "kron", "_scaled_lifts",
                 "_lifted_push"}


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
    """The second-moment map and its matrix live in moments: stability
    reads spectra and certificates, assembles no product or lift and
    folds no horizon. Its dense fallback reads the matrix off the map,
    not off the Kronecker lifts of the W^2 routes."""
    tree = ast.parse((SRC / "stability.py").read_text(encoding="utf-8"))
    found = sorted(set(names(tree)) & LIFT_BUILDERS)
    assert found == []


def leaves_out_modes(node):
    """A C-order copy, or an any over axis 0, as of a step's weight
    columns: the two halves of the rule that leaves a mode of weight 0
    out of a step."""
    if calls(node, "ascontiguousarray"):
        return True
    if not calls(node, "any"):
        return False
    axis = [k.value for k in node.keywords if k.arg == "axis"] or node.args
    return bool(axis) and isinstance(axis[-1], ast.Constant) \
        and axis[-1].value == 0


def test_one_home_for_the_live_modes_rule():
    """The modes of a step that take part are read in one place,
    moments._live: the map, the spectral test and the three W^2 routes
    take its step and slice no weight column themselves."""
    assert sites(leaves_out_modes) == [("moments", "_live"),
                                       ("moments", "_live")]


def test_stability_imports_no_route():
    """The verdict reads the second-moment map from moments, so analyze
    loads none of the W^2 routes."""
    found = set(top_level_imports("stability")) & {"propagate", "wasserstein"}
    assert found == set()


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


def names_numpy_random(tree):
    """Whether a module imports or spells numpy.random in any form."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            return True
        if isinstance(node, ast.Import) and any(
                alias.name.startswith("numpy.random")
                for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (
                (node.module or "").startswith("numpy.random")
                or node.module == "numpy"
                and any(alias.name == "random" for alias in node.names)):
            return True
    return False


def test_no_module_names_numpy_random():
    """Monte Carlo draws from its own SplitMix64 in numpy uint64 arrays:
    numpy.random would load nine extension modules and about 6 MB into
    every simulate and compare call."""
    found = [
        stem for stem in MODULES if names_numpy_random(
            ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8")))
    ]
    assert found == []


def test_simulate_and_compare_load_no_numpy_random(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({
        "n": 2,
        "modes": {"a": [[0.5, 0.1], [0.0, 0.4]],
                  "b": [[0.3, 0.0], [0.2, 0.6]]},
        "switching": {"type": "iid", "pi": [0.5, 0.5]},
        "initial": [{"weight": 1.0, "mean": [1.0, -1.0],
                     "cov": [[0.2, 0.0], [0.0, 0.1]]}],
    }))
    args = [str(path), "--steps", "3", "--trajectories", "100"]
    script = (
        "import sys\n"
        "from jumpstab.cli import main\n"
        f"codes = [main([command, *{args!r}])\n"
        "         for command in ('simulate', 'compare')]\n"
        "print(codes, 'numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "result: PASS" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[0, 0] False"


def test_monte_carlo_reads_no_marginals():
    """The ensemble steps each law's chain form, as the verdicts and the
    W^2 routes do, so mcsim reads no per-step marginals."""
    tree = ast.parse((SRC / "mcsim.py").read_text(encoding="utf-8"))
    assert "_marginals" not in set(imported_names(tree))


def is_chain_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_chain")


def test_no_module_unpacks_a_start_from_the_chain_form():
    """``law._chain(m)`` is one function of k, whose step 1 holds the
    start: each law's form returns no tuple, and no module unpacks or
    indexes one, so only the law knows how its start enters step 1."""
    found = []
    for stem in MODULES:
        tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_chain":
                found += [f"{stem}: {node.name} returns a tuple"
                          for ret in ast.walk(node)
                          if isinstance(ret, ast.Return)
                          and isinstance(ret.value, ast.Tuple)]
            elif (isinstance(node, ast.Assign) and is_chain_call(node.value)
                  and any(isinstance(t, ast.Tuple) for t in node.targets)):
                found.append(f"{stem}:{node.lineno} unpacks _chain")
            elif isinstance(node, ast.Subscript) and is_chain_call(node.value):
                found.append(f"{stem}:{node.lineno} indexes _chain")
    assert found == []
