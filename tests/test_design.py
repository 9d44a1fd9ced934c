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
``simulator.py`` imports none of them, and it imports no numpy: its trials
never call it.  The modules that commands load hold only what commands
run: a public name there that only ``verify.py`` reaches is an oracle or a
helper of its checks, and lives in ``verify.py``.

A leading underscore keeps a name to its module: no ``src/`` module imports
another module's underscore name.  What another module needs is public.

Records are named tuples, so no module imports ``dataclasses``: that import
loads inspect, ast, dis and tokenize, about a third of a command's start-up.
Every field of a record is read as an attribute somewhere in ``src/``: a
field that only tests read is work the program does for nothing, or a second
copy of a value it already stores.

Every CLI option is read by a handler: an option that nothing reads can only
mislead the caller who sets it.

An oracle is an independent reference, so no class of ``tests/oracles.py``
inherits from a ``satroute`` class: it would share the constructor, slots
and methods of the code it checks.
"""

import ast
from collections import Counter
from pathlib import Path

import satroute

PACKAGE = Path(satroute.__file__).resolve().parent
ORACLES = Path(__file__).resolve().parent / "oracles.py"

# Each kept on purpose, with its reason.
ALLOWED = {
    "grid_topology.coord_table": "the benchmark tracer's detour metric reads it until the "
                                 "next benchmark revision moves it to tests/oracles.py",
}

# Public names outside verify.py and optimal_policies.py that only verify.py
# reaches, each kept on purpose, with its reason.
ALLOWED_VERIFY_ONLY: dict[str, str] = {}

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

# Record fields that no src/ code reads, each kept on purpose, with its reason.
ALLOWED_UNREAD_FIELDS = {
    "simulator.TrialOutcome.path_len": "ROADMAP items 20, 21 and 12 read it; the oracle stream tests compare it",
    "simulator.TrialOutcome.hit_boundary_at": "ROADMAP items 20, 21 and 12 read it; "
                                              "the oracle stream tests compare it",
    "optimal_policies.ValueTable.residual_history": "test_residuals_shrink_monotonically checks the contraction "
                                                    "through it",
}

# cli.OPTIONS keys that no handler reads as args.<key>, each kept on purpose, with its reason.
ALLOWED_UNREAD_OPTIONS = {
    "threads": "ROADMAP item 18 runs trials in worker processes; until then existing scripts pass it",
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


def test_no_engine_or_closed_form_code_only_verify_reaches():
    """Every module but verify.py and optimal_policies.py (the optimality
    machinery that only verify's suites run) is checked, so a new module is
    covered as it lands.  Uses inside verify.py do not count, nor uses inside
    a definition that only verify.py reaches (a class that only such a
    function builds).  A name that ALLOWED keeps for the benchmark reaches
    nothing in src/ and is exempt here too."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    refs = [References(tree) for module, tree in trees.items() if module != "verify"]
    candidates = [definition for module, tree in trees.items() if module not in ("verify", "optimal_policies")
                  for definition in public_definitions(module, tree)]
    verify_only: dict[str, ast.AST] = {}
    while True:
        reached_by_them = [References(node) for node in verify_only.values()]
        found = {qualname: node for qualname, name, node, method in candidates
                 if qualname not in verify_only
                 and sum(r.count(name, method) for r in refs) - References(node).count(name, method)
                 - sum(r.count(name, method) for r in reached_by_them) <= 0}
        if not found:
            break
        verify_only.update(found)
    assert sorted(set(verify_only) - set(ALLOWED) - set(ALLOWED_VERIFY_ONLY)) == []
    assert set(ALLOWED_VERIFY_ONLY) <= {qualname for qualname, *_ in candidates}  # a stale entry would mislead


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


def record_fields(module: str, tree: ast.Module):
    """(qualified name, field) of each field of each ``namedtuple`` a module defines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "namedtuple":
            typename, fields = (arg.value for arg in node.args[:2])
            for field in fields.replace(",", " ").split():
                yield f"{module}.{typename}.{field}", field


def test_no_record_field_only_tests_read():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = {qualname for module, tree in trees.items() for qualname, field in record_fields(module, tree)
              if field not in read}
    assert unread - set(ALLOWED_UNREAD_FIELDS) == set()
    assert set(ALLOWED_UNREAD_FIELDS) <= unread  # a stale entry would hide nothing and mislead


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


def test_simulator_imports_no_numpy():
    assert not [name for name in imported(PACKAGE / "simulator.py") if name.partition(".")[0] == "numpy"]


def test_no_module_imports_dataclasses():
    assert [path.name for path in sorted(PACKAGE.glob("*.py")) if "dataclasses" in imported(path)] == []


def private_imports(path: Path) -> list[str]:
    """The underscore names a source file imports from ``satroute`` modules."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("satroute")):
            found += [f"{node.module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_another_modules_private_name():
    found = {path.stem: private_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == {}


def test_every_cli_option_is_read():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    options = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and [getattr(target, "id", None) for target in node.targets] == ["OPTIONS"])
    keys = {key.value for key in options.keys}
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    assert keys - read - set(ALLOWED_UNREAD_OPTIONS) == set()
    assert set(ALLOWED_UNREAD_OPTIONS) <= keys - read  # a stale entry would hide nothing and mislead


def src_subclasses(path: Path) -> list[str]:
    """The classes of a source file whose base is a name imported from a ``satroute`` module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    src_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "satroute":
            src_names |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            src_names |= {alias.asname or "satroute" for alias in node.names
                          if alias.name.partition(".")[0] == "satroute"}

    def root(base):
        while isinstance(base, ast.Attribute):
            base = base.value
        return getattr(base, "id", None)

    return [node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and any(root(base) in src_names for base in node.bases)]


def test_no_oracle_subclasses_a_src_class():
    assert src_subclasses(ORACLES) == []
