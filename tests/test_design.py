"""No production code that only tests call.

Every public module-level function or class of ``src/satroute`` and every
public method of such a class must be named somewhere in ``src/`` other than
its own definition; an export through ``satroute.__all__`` does not count.
Code that only a test reaches belongs with the tests (as a helper or a
deliberate oracle in ``tests/oracles.py``).

Likewise every defaulted parameter of a ``src/`` function or method, private
ones included, must be set by some ``src/`` call outside its own body: a
value that only tests set is a constant of the module.  Nor may every such
call set it: a default that only tests use makes the parameter required.
And a required parameter that every ``src/`` call sets to the same constant
(a literal, or an UPPER_CASE name such as ``ORIGIN``) is a constant of the
callee; callees that only ``verify.py`` calls are exempt, since its checks
pass their own points.

The Monte Carlo engine is what the closed forms are checked against, so
``simulator.py`` imports none of them.

Records are named tuples, so no module imports ``dataclasses``: that import
loads inspect, ast, dis and tokenize, about a third of a command's start-up.
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

# Defaulted parameters that no src/ call sets, each kept on purpose, with its reason.
ALLOWED_PARAMETERS = {
    "cli.main.argv": "the benchmark and the tests call main(argv); the console script calls main()",
    "simulator.estimate.threads": "the engine rule of ROADMAP.md pins "
                                  "test_estimate_deterministic_across_thread_counts, which sets it",
}

# Defaulted parameters that every src/ call sets, each kept on purpose, with its reason.
ALLOWED_OVERRIDDEN: dict[str, str] = {}

# Required parameters that every src/ call sets to one constant, each kept on purpose, with its reason.
ALLOWED_FIXED = {
    "grid_topology.hop_distance.b": "the benchmark tracer's BFS detour metric calls hop_distance(spec, src, dst) "
                                    "until the benchmark revision of ROADMAP item 6",
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
            if elsewhere <= 0 and qualname not in ALLOWED:
                unused.append(qualname)
    assert unused == []
    assert set(ALLOWED) <= defined  # a stale entry would hide nothing and mislead


def parameters(module: str, tree: ast.Module):
    """(qualified name, callee name, node, parameter, position or None, whether
    defaulted) of each parameter, at any depth; a method's position skips self,
    and ``__init__`` is called by its class's name."""
    def walk(body, prefix, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}.{node.name}", node.name)
            elif isinstance(node, ast.FunctionDef):
                qual = f"{prefix}.{node.name}"
                callee = cls if cls and node.name == "__init__" else node.name
                positional = [*node.args.posonlyargs, *node.args.args][1 if cls else 0:]
                first_default = len(positional) - len(node.args.defaults)
                for i, arg in enumerate(positional):
                    yield f"{qual}.{arg.arg}", callee, node, arg.arg, i, i >= first_default
                for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                    yield f"{qual}.{arg.arg}", callee, node, arg.arg, None, default is not None
                yield from walk(node.body, qual, None)

    yield from walk(tree.body, module, None)


def sets(call: ast.Call, name: str, position) -> bool:
    """Whether ``call`` passes the parameter ``name`` at ``position``."""
    positional = [arg for arg in call.args if not isinstance(arg, ast.Starred)]
    return (any(kw.arg in (name, None) for kw in call.keywords)  # None: **forwarding
            or position is not None and (len(positional) > position or len(positional) < len(call.args)))


def test_no_parameter_only_tests_set():
    trees = [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))]
    calls = [node for _, tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]
    callee = {id(call): getattr(call.func, "id", getattr(call.func, "attr", None)) for call in calls}
    unset = set()
    for module, tree in trees:
        for qualname, name, node, param, position, defaulted in parameters(module, tree):
            if not defaulted:
                continue
            own = {id(sub) for sub in ast.walk(node)}
            if not any(callee[id(call)] == name and id(call) not in own and sets(call, param, position)
                       for call in calls):
                unset.add(qualname)
    assert unset - set(ALLOWED_PARAMETERS) == set()
    assert set(ALLOWED_PARAMETERS) <= unset  # a stale entry would hide nothing and mislead


def test_no_default_every_src_call_overrides():
    trees = [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))]
    calls = [node for _, tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]
    callee = {id(call): getattr(call.func, "id", getattr(call.func, "attr", None)) for call in calls}
    defined = Counter(node.name for _, tree in trees for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    overridden = set()
    for module, tree in trees:
        for qualname, name, node, param, position, defaulted in parameters(module, tree):
            if not defaulted or defined[name] > 1:
                continue
            own = {id(sub) for sub in ast.walk(node)}
            sites = [call for call in calls if callee[id(call)] == name and id(call) not in own]
            if sites and all(argument(call, param, position) is not None for call in sites):
                overridden.add(qualname)
    assert overridden - set(ALLOWED_OVERRIDDEN) == set()
    assert set(ALLOWED_OVERRIDDEN) <= overridden  # a stale entry would hide nothing and mislead


def argument(call: ast.Call, name: str, position):
    """The expression ``call`` passes for the parameter, or None when it passes
    none or a starred or ``**`` argument may hide it."""
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    if any(kw.arg is None for kw in call.keywords) or any(isinstance(a, ast.Starred) for a in call.args):
        return None
    return call.args[position] if position is not None and position < len(call.args) else None


def constant(expr):
    """The constant ``expr`` names, or None: a literal, or an UPPER_CASE name
    or attribute (``ORIGIN`` and ``grid.ORIGIN`` name the same one)."""
    if isinstance(expr, ast.Constant):
        return repr(expr.value)
    name = expr.id if isinstance(expr, ast.Name) else expr.attr if isinstance(expr, ast.Attribute) else ""
    return name if name.isupper() else None


def test_no_required_parameter_production_fixes():
    trees = [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))]
    calls = [(module, node) for module, tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]
    callee = {id(call): getattr(call.func, "id", getattr(call.func, "attr", None)) for _, call in calls}
    defined = Counter(node.name for _, tree in trees for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    fixed = set()
    for module, tree in trees:
        for qualname, name, node, param, position, defaulted in parameters(module, tree):
            if defaulted or defined[name] > 1:
                continue
            own = {id(sub) for sub in ast.walk(node)}
            sites = [(caller, call) for caller, call in calls if callee[id(call)] == name and id(call) not in own]
            if {caller for caller, _ in sites} <= {"verify"}:
                continue  # no caller, or the checks alone, which pass their own points
            values = {constant(argument(call, param, position)) for _, call in sites}
            if len(values) == 1 and None not in values:
                fixed.add(qualname)
    assert fixed - set(ALLOWED_FIXED) == set()
    assert set(ALLOWED_FIXED) <= fixed  # a stale entry would hide nothing and mislead


def imported(path: Path) -> set[str]:
    """The modules and the names a source file imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {node.module or "", *(alias.name for alias in node.names)}
    return names


def test_simulator_imports_no_closed_form():
    assert not [name for name in imported(PACKAGE / "simulator.py")
                if name.rpartition(".")[2].startswith("analytic_")]


def test_no_module_imports_dataclasses():
    assert [path.name for path in sorted(PACKAGE.glob("*.py")) if "dataclasses" in imported(path)] == []
