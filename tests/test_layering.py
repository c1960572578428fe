"""Import-graph tests: the package's modules form a fixed stack of layers.

Each module imports only modules of lower layers, so the graph has no cycle,
and every import is at module level, where a reader sees it first. No
module starts a process or a thread.
"""

from __future__ import annotations

import ast
from graphlib import TopologicalSorter
from pathlib import Path

import evdispatch

PACKAGE = "evdispatch"
SOURCES = sorted(p for p in Path(evdispatch.__file__).parent.glob("*.py") if p.name != "__init__.py")

# lowest first; a module may import only modules of lower layers
LAYERS = (
    ("domain", "charts"),
    ("lp", "degradation"),
    ("evba",),
    ("evca",),
    ("analysis",),
    ("cli",),
)
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}


def _imported_modules(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The package modules an import statement names."""
    if isinstance(node, ast.Import):
        dotted = [a.name for a in node.names]
    elif node.level == 1:
        dotted = [f"{PACKAGE}.{node.module}"] if node.module else [f"{PACKAGE}.{a.name}" for a in node.names]
    elif node.module == PACKAGE:
        dotted = [f"{PACKAGE}.{a.name}" for a in node.names]
    else:
        dotted = [node.module or ""]
    return [d.split(".")[1] for d in dotted if d.startswith(f"{PACKAGE}.")]


def _parse() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}


def _graph() -> dict[str, set[str]]:
    return {
        module: {dep for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                 for dep in _imported_modules(node)}
        for module, tree in _parse().items()
    }


def test_every_module_has_a_layer():
    assert sorted(RANK) == sorted(p.stem for p in SOURCES)


def test_intra_package_imports_are_acyclic():
    order = list(TopologicalSorter(_graph()).static_order())  # raises CycleError on a cycle
    assert sorted(order) == sorted(p.stem for p in SOURCES)


def test_imports_point_down_the_layers():
    upward = [
        f"{module} imports {dep}"
        for module, deps in _graph().items()
        for dep in sorted(deps)
        if RANK[dep] >= RANK[module]
    ]
    assert upward == []


def test_no_import_inside_a_function_or_class():
    nested = []
    for module, tree in _parse().items():
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested += [
                    f"{module}.py:{node.lineno} in {scope.name}"
                    for node in ast.walk(scope)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert nested == []


# the package runs in one process and one thread; a study solves its cells in turn
NO_CONCURRENCY = ("multiprocessing", "concurrent", "threading", "signal", "pickle", "subprocess")


def test_src_starts_no_process_or_thread():
    found = []
    for path in sorted(Path(evdispatch.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in NO_CONCURRENCY or name.startswith("os.fork")]
    assert found == []
