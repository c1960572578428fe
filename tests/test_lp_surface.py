"""Every public name of the LP kernel is read in the package or the
benchmark, so a builder or accessor that only tests reach cannot come back
unnoticed: each module-level name of ``lp.py`` and each public member of
``LpProblem`` and ``LpSolution`` must be loaded in ``src/`` or ``bench/``
outside its own definition. The check is by name, so the deleted names,
one of which is named like ``Enum.value``, are also checked to stay gone.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LP = ROOT / "src" / "evdispatch" / "lp.py"
# documented solver output that only tests read until the CLI's --stats and
# the benchmark's per-layer metrics read it (ROADMAP items 3 and 6)
NOT_YET_READ = {"LpSolution.stats"}
GONE = ("LpProblem.add_variable", "LpProblem.add_variables", "LpProblem.add_constraint",
        "LpProblem.add_constraints", "LpProblem.from_csr", "LpSolution.value")


def _reads(node: ast.AST | None) -> Counter:
    """How often each name is loaded in ``node``: as ``name`` bare, as ``.name`` an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else "." + n.attr for n in (ast.walk(node) if node else ())
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def _definitions():
    """(qualified name, the ``_reads`` keys that read it, its function or class
    node or None) for each name ``lp.py`` defines. A member is read only as an
    attribute, so a local variable of the same name is not a read."""
    for node in ast.parse(LP.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, (node.name, "." + node.name), node
        elif isinstance(node, ast.Assign):
            yield from ((t.id, (t.id, "." + t.id), None) for t in node.targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef) and node.name in ("LpProblem", "LpSolution"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", ("." + item.name,), item
                elif isinstance(item, ast.AnnAssign):  # a dataclass field
                    yield f"{node.name}.{item.target.id}", ("." + item.target.id,), None
            yield from ((f"{node.name}.{t.attr}", ("." + t.attr,), None) for t in ast.walk(node)  # set on self
                        if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                        and isinstance(t.value, ast.Name) and t.value.id == "self")


def test_every_public_lp_name_is_read_outside_tests_and_the_deleted_ones_stay_gone():
    sources = [p for d in ("src", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    reads = sum((_reads(ast.parse(p.read_text())) for p in sources), Counter())
    public = [(q, keys, node) for q, keys, node in _definitions() if not q.rpartition(".")[2].startswith("_")]
    assert {"solve", "FEAS_TOL", "LpProblem.num_variables", "LpProblem.name", "LpSolution.x"} <= {q for q, *_ in public}
    assert {q for q, keys, node in public if all(reads[k] <= _reads(node)[k] for k in keys)} <= NOT_YET_READ
    assert {q for q, *_ in _definitions()} & set(GONE) == set()
