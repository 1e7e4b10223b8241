"""Static checks over the package source, and the names the package re-exports."""

import ast
from pathlib import Path

import pytest

import ulrichci
from ulrichci import exact_arith, polyring, symfunc

PACKAGE = Path(ulrichci.__file__).parent


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads as a plain name."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def _imported_modules(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_imports_random():
    # Every verify check is exact, so no report may depend on an RNG.
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [path.name for path in modules if "random" in _imported_modules(path)] == []


def test_no_unused_imports():
    # __init__.py imports to re-export, so it is skipped.
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert modules
    unused = {path.name: _unused_imports(path) for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}


#: Names through which a module would read the process environment.
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(path: Path) -> list[str]:
    """Each os.environ/os.getenv read in a module, as "line: name"."""
    reads = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ENVIRONMENT
        ):
            reads.append(f"{node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [f"{node.lineno}: {a.name}" for a in node.names if a.name in ENVIRONMENT]
    return reads


def test_no_module_reads_the_environment():
    # Options are the one way to configure a run, so no knob can hide in the environment.
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    reads = {path.name: _environment_reads(path) for path in modules}
    assert {name: lines for name, lines in reads.items() if lines} == {}


def _float_uses(path: Path) -> list[str]:
    """Each float literal or float(...) call in a module, as "line: source"."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            uses.append(f"{node.lineno}: {node.value!r}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            uses.append(f"{node.lineno}: float(...)")
    return uses


def test_no_float_enters_the_source():
    # Arithmetic stays exact from input to output, so no value may pass through a float.
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    uses = {path.name: _float_uses(path) for path in modules}
    assert {name: lines for name, lines in uses.items() if lines} == {}


#: The modules that compute; the package and its CLI import none of them at load time.
COMPUTATION = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "cli"}


def _load_time_imports(path: Path) -> list[str]:
    """Each computation module a module imports when it is loaded, as "line: name"."""
    found = []
    stack = list(ast.parse(path.read_text()).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # its body runs only when called
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["ulrichci" if node.level else "", node.module]))
            targets = [module, *(f"{module}.{alias.name}" for alias in node.names)]
        else:
            continue
        found += [
            f"{node.lineno}: {target}"
            for target in targets
            if target.startswith("ulrichci.") and target.split(".")[1] in COMPUTATION
        ]
    return sorted(found)


@pytest.mark.parametrize("name", ["__init__.py", "cli.py", "exact_arith.py"])
def test_entry_modules_import_no_computation_module_at_load(name):
    # --version, --help and usage errors must not pay for the engine, and
    # exact_arith computes in the ring of its argument without importing it.
    assert COMPUTATION >= {"ci_invariants", "polyring", "symfunc", "ulrich_functions"}
    assert _load_time_imports(PACKAGE / name) == []


#: Each name the package re-exports, by home module.
REEXPORTS = {
    exact_arith: ["binom_int", "binom_poly"],
    polyring: ["MultiPoly", "DimensionMismatch", "NotDivisible"],
    symfunc: ["Partition", "SymExpansion", "expand_direct", "expand_via_restriction", "monomial_sym"],
}


def test_reexports_are_their_home_objects(monkeypatch):
    names = [name for names in REEXPORTS.values() for name in names]
    assert sorted(ulrichci.__all__) == sorted([*names, "__version__"])
    for module, names in REEXPORTS.items():
        for name in names:
            assert getattr(ulrichci, name) is getattr(module, name)
    # Nothing is cached: a binding replaced on the home module is the one served.
    replacement = object()
    monkeypatch.setattr(symfunc, "monomial_sym", replacement)
    assert ulrichci.monomial_sym is replacement


def test_star_import_binds_every_reexport():
    namespace = {}
    exec("from ulrichci import *", namespace)
    assert {name: namespace[name] for name in ulrichci.__all__} == {
        name: getattr(ulrichci, name) for name in ulrichci.__all__
    }


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="module 'ulrichci' has no attribute 'no_such_name'"):
        ulrichci.no_such_name


def test_dir_lists_every_lazy_reexport():
    listed = dir(ulrichci)
    assert set(ulrichci.__all__) <= set(listed)
    assert listed == sorted(set(listed))
