"""Every top-level name of the package, public or private, and every
public method and property of its public classes, is reached from the
package, and every defaulted parameter of its functions is set by some
call in it.

A function, class, method or constant that only tests read belongs in
``tests/`` (the oracles), and one that nothing reads is deleted.  A name
counts as reached when some module of ``src/loopcurrents`` loads it as a
name or an attribute outside its own definition, and a method or property
only when it is loaded as an attribute: a local variable of the same name
does not reach it.  The re-exports of ``__init__.py`` do not count.

A parameter with a default that no call passes is an option no command
sets.  A call counts when it names the function, as a name or as an
attribute, and passes the parameter by keyword or by position (a ``*``
or ``**`` argument passes every parameter it could reach).  A call that
names a class counts as a call of its ``__init__`` and its ``__new__``.

The oracles (``tests/oracles.py``) check the package by other routes, so
they import none of its private names: a private helper they shared would
be checked against itself.
"""

import ast
from collections import Counter
from pathlib import Path

import loopcurrents

PACKAGE = Path(loopcurrents.__file__).parent

# Kept though no module reads them:
# - graph_to_json writes the --graph file format that graph_from_json reads;
# - double_loop, double_current, push_uniform_even and Dist.weights are read
#   by the benchmark's output checks (bench/checks.py);
# - stochastic_domination is the library's domination certificate, which
#   README documents; it stays in the package rather than in the oracles,
#   since it runs the private covering-network flow (_CoveringFlow), and the
#   oracles import no private name.
ALLOWED = {
    "graph_to_json",
    "double_loop",
    "double_current",
    "push_uniform_even",
    "Dist.weights",
    "stochastic_domination",
}

# Defaulted parameters kept though no call in the package passes them:
# - cli.main(argv): the console entry point calls main() with none;
# - build_overview(graphs): tests and the benchmark narrow the battery;
# - build_overview(mon_grid_resolution): only the benchmark's test sets it,
#   by position, and it goes once that test stops passing it.
UNSET_DEFAULTS = {
    "cli.main(argv)",
    "overview.build_overview(graphs)",
    "overview.build_overview(mon_grid_resolution)",
}

# Private names the oracles may import:
# - events._check_vertices only validates the vertex sets an event is
#   built on, and computes nothing the oracles check.
ORACLE_PRIVATE_IMPORTS = {"loopcurrents.events._check_vertices"}


def _definitions(tree: ast.Module):
    """(qualified name, load key, node) of each top-level function, class
    and constant, private ones included, and of each public method and
    property of a public class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield f"{node.name}.{method.name}", f".{method.name}", method
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            yield name, name, node


def _loads(node: ast.AST) -> Counter:
    """How often each name or attribute is loaded under ``node``: a name
    under its own key and under ``.name`` when it is an attribute, the key
    of a method."""
    loads = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            loads[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            loads.update([sub.attr, f".{sub.attr}"])
    return loads


def _unreached(private: bool) -> list[str]:
    """The private or the public definitions that no module loads outside
    their own definition, less :data:`ALLOWED`."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    loads = sum((_loads(tree) for tree in trees.values()), Counter())
    return [
        f"{module}.{qualname}"
        for module, tree in trees.items()
        for qualname, name, definition in _definitions(tree)
        if qualname.startswith("_") == private
        and qualname not in ALLOWED
        and loads[name] == _loads(definition)[name]
    ]


def test_every_public_name_is_reached_from_the_package():
    assert _unreached(private=False) == []


def test_every_private_top_level_name_is_reached_from_the_package():
    # a helper that a consolidation leaves behind is loaded by nothing
    assert _unreached(private=True) == []


def _defaulted(fn: ast.FunctionDef):
    """(position, name) of each parameter of fn with a default, the
    position counting ``self`` or ``cls`` and None for a keyword-only one."""
    positional = [*fn.args.posonlyargs, *fn.args.args]
    first = len(positional) - len(fn.args.defaults)
    yield from ((i, p.arg) for i, p in enumerate(positional) if i >= first)
    kw = zip(fn.args.kwonlyargs, fn.args.kw_defaults)
    yield from ((None, p.arg) for p, default in kw if default is not None)


def _passes(call: ast.Call, position, name: str, method: bool) -> bool:
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    # a bound call leaves self or cls out of its arguments
    return any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > position - method


def test_every_defaulted_parameter_is_set_by_some_call():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    # C(...) calls C.__init__ and C.__new__
    constructed = {
        fn: cls.name
        for tree in trees.values()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name in ("__init__", "__new__")
    }
    unset = set()
    for module, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = [*fn.args.posonlyargs, *fn.args.args]
            method = bool(args) and args[0].arg in ("self", "cls")
            callers = calls.get(fn.name, [])
            if fn in constructed:
                callers = callers + calls.get(constructed[fn], [])
            for position, name in _defaulted(fn):
                if not any(_passes(c, position, name, method) for c in callers):
                    unset.add(f"{module}.{fn.name}({name})")
    assert unset == UNSET_DEFAULTS


def test_oracles_import_no_private_name_of_the_package():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    private = {
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("loopcurrents")
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert private <= ORACLE_PRIVATE_IMPORTS
