"""No production code that only tests call.

Every public module-level function or class of ``src/satroute`` and every
public method of such a class must be named somewhere in ``src/`` other than
its own definition, or be exported through ``satroute.__all__``.  Code that
only a test reaches belongs with the tests (as a helper or a deliberate
oracle in ``tests/oracles.py``).

The Monte Carlo engine is what the closed forms are checked against, so
``simulator.py`` imports none of them.
"""

import ast
from collections import Counter
from pathlib import Path

import satroute

PACKAGE = Path(satroute.__file__).resolve().parent

# Each kept on purpose, with its reason.
ALLOWED = {
    "grid_topology.coord_table": "the benchmark tracer's detour metric reads it until the "
                                 "next benchmark revision moves it to tests/oracles.py",
}


class References(ast.NodeVisitor):
    """The names a piece of code uses: attributes, imported names, and bare
    names that no enclosing function binds (a local ``table`` is not a
    reference to a module-level ``table``)."""

    def __init__(self, node: ast.AST):
        self.names, self.attrs = Counter(), Counter()
        self.scopes: list[set[str]] = []
        self.visit(node)

    def visit_FunctionDef(self, node):
        bound = {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
        bound |= {sub.id for sub in ast.walk(node)
                  if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)}
        self.scopes.append(bound)
        self.generic_visit(node)
        self.scopes.pop()

    visit_Lambda = visit_FunctionDef

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and not any(node.id in scope for scope in self.scopes):
            self.names[node.id] += 1

    def visit_Attribute(self, node):
        self.attrs[node.attr] += 1
        self.generic_visit(node)

    def visit_alias(self, node):
        self.names[node.name.rpartition(".")[2]] += 1

    def count(self, name: str, method: bool) -> int:
        """Uses of ``name``; a method is reached through an attribute only."""
        return self.attrs[name] + (0 if method else self.names[name])


def public_definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, node, is a method) of each public function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name, item, True


def test_no_production_code_only_tests_call():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    refs = [References(tree) for tree in trees.values()]
    defined, unused = set(), []
    for module, tree in trees.items():
        for qualname, name, node, method in public_definitions(module, tree):
            defined.add(qualname)
            elsewhere = sum(r.count(name, method) for r in refs) - References(node).count(name, method)
            if elsewhere <= 0 and name not in satroute.__all__ and qualname not in ALLOWED:
                unused.append(qualname)
    assert unused == []
    assert set(ALLOWED) <= defined  # a stale entry would hide nothing and mislead


def test_simulator_imports_no_closed_form():
    tree = ast.parse((PACKAGE / "simulator.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {node.module or "", *(alias.name for alias in node.names)}
    assert not [name for name in imported if name.rpartition(".")[2].startswith("analytic_")]
