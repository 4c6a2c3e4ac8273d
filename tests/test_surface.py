"""Every public top-level name of the package, and every public method
and property of its public classes, is reached from the package.

A function, class, method or constant that only tests read belongs in
``tests/`` (the oracles), and one that nothing reads is deleted.  A name
counts as reached when some module of ``src/loopcurrents`` loads it as a
name or an attribute outside its own definition, and a method or property
only when it is loaded as an attribute: a local variable of the same name
does not reach it.  The re-exports of ``__init__.py`` do not count.
"""

import ast
from collections import Counter
from pathlib import Path

import loopcurrents

PACKAGE = Path(loopcurrents.__file__).parent

# Kept though no module reads them:
# - graph_to_json writes the --graph file format that graph_from_json reads;
# - double_loop, double_current and Dist.weights are read by the
#   benchmark's output checks (bench/checks.py).
ALLOWED = {"graph_to_json", "double_loop", "double_current", "Dist.weights"}


def _public_definitions(tree: ast.Module):
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
            if not name.startswith("_"):
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


def test_every_public_name_is_reached_from_the_package():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    loads = sum((_loads(tree) for tree in trees.values()), Counter())
    unreached = [
        f"{module}.{qualname}"
        for module, tree in trees.items()
        for qualname, name, definition in _public_definitions(tree)
        if qualname not in ALLOWED and loads[name] == _loads(definition)[name]
    ]
    assert unreached == []
