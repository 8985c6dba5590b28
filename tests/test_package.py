"""Package surface: every exported name exists and a verify case reaches each
exported function, every demo runs on it, and the runtime needs numpy alone."""

import ast
import importlib
from pathlib import Path

import pytest

import fockspace

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = sorted((ROOT / "src" / "fockspace").glob("*.py"))


@pytest.mark.parametrize("module", fockspace.__all__)
def test_exported_names_exist(module):
    mod = getattr(fockspace, module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


# The public functions that no verify case calls, each with the file that
# calls it and the reason it stays without a case.
UNREACHED = {
    "verify.run_verify": ("src/fockspace/cli.py", "the entry point of `fockspace verify`"),
    "hydrogen.fock_map": ("src/fockspace/cli.py", "`table fock` and `fock-map`"),
    "hydrogen.energy": ("demos/fock_projection.py", "the demo's energy levels"),
    "clifford.det_identity": ("demos/clifford_gaussians.py", "the demo's one-row check"),
}

def test_every_public_function_is_reached_by_a_verify_case(fresh_reach):
    public, reached = set(fresh_reach["public"]), set(fresh_reach["reached"])
    unreached = sorted(public - reached - set(UNREACHED))
    assert not unreached, f"no verify case reaches {unreached}"
    # an allowed name that a case now reaches, or that is gone, is stale
    stale = sorted(set(UNREACHED) - (public - reached))
    assert not stale, f"stale allow-list entries {stale}"


@pytest.mark.parametrize("qualified", sorted(UNREACHED))
def test_unreached_function_is_called_where_its_reason_says(qualified):
    module, name = qualified.split(".")
    path = ROOT / UNREACHED[qualified][0]
    calls = [node for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == name and isinstance(node.func.value, ast.Name)
             and node.func.value.id == module]
    assert calls


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, fresh_python):
    proc = fresh_python([str(demo)])
    assert proc.returncode == 0, proc.stderr


def _fockspace_names_used(tree):
    """(module, name) for each fockspace name a demo imports or reads off a module."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fockspace":
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fockspace."):
            for alias in node.names:
                yield node.module.split(".", 1)[1], alias.name
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("fockspace") for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            yield modules[node.value.id], node.attr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_uses_only_exported_names(demo):
    used = set(_fockspace_names_used(ast.parse(demo.read_text())))
    assert used
    private = sorted(f"{mod}.{name}" for mod, name in used
                     if name not in importlib.import_module(f"fockspace.{mod}").__all__)
    assert not private


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_source_imports_no_scipy(source):
    # every import statement, deferred ones inside functions included
    imported = []
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.append(node.module)
    assert not [name for name in imported if name.split(".")[0] == "scipy"]


@pytest.mark.parametrize("module", [path.stem for path in SOURCES if path.stem != "__init__"])
def test_module_imports_on_its_own(module, fresh_python):
    # submodules load on first use, so an import cycle would show here
    proc = fresh_python(["-c", f"import fockspace.{module}"])
    assert proc.returncode == 0, proc.stderr


def test_verify_all_loads_no_scipy(fresh_reach):
    # the suites ran serially, so an import made inside a suite shows too
    assert not any(fresh_reach["failed"].values())
    assert fresh_reach["scipy"] == []
    # the verify path loads every module but the command line
    assert fresh_reach["fockspace"] == sorted(
        ["fockspace"] + [f"fockspace.{path.stem}" for path in SOURCES
                         if path.stem not in ("__init__", "cli")])


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_node_range_is_written_once(source):
    # quadrature.MIN_NODES and MAX_NODES are the one definition of the range
    # every rule accepts; a second literal 4096 could drift from it
    literals = [node for node in ast.walk(ast.parse(source.read_text()))
                if isinstance(node, ast.Constant) and type(node.value) is int
                and node.value == 4096]
    assert not literals or source.name == "quadrature.py"


def _fockspace_imports(source):
    """(fockspace module imported, whether inside a function) per import of a source."""
    tree = ast.parse(source.read_text())
    in_function = {id(sub) for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                   for sub in ast.walk(node) if sub is not node}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import is relative to the package
            base = ".".join(filter(None, ["fockspace" if node.level else "", node.module]))
            modules = ([f"{base}.{alias.name}" for alias in node.names]
                       if base == "fockspace" else [base])
        else:
            continue
        for module in modules:
            if module.startswith("fockspace."):
                yield module.split(".")[1], id(node) in in_function


def test_import_graph_has_no_cycle_and_defers_only_in_the_cli():
    # imports inside function bodies count: a deferred import still ties
    # two modules, and only the command line defers loading its commands
    graph, deferred = {}, []
    for source in SOURCES:
        for name, in_function in _fockspace_imports(source):
            graph.setdefault(source.stem, set()).add(name)
            if in_function and source.stem != "cli":
                deferred.append(f"{source.stem} -> {name}")
    assert deferred == []
    done, path = set(), []

    def visit(module):
        if module in path:
            cycle = path[path.index(module):] + [module]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if module not in done:
            path.append(module)
            for name in sorted(graph.get(module, ())):
                visit(name)
            path.pop()
            done.add(module)

    for module in sorted(graph):
        visit(module)
