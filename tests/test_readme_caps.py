"""README's account of the size caps names every cap of the package and no
cap that is gone.

Every module-level ``*_CAP`` of ``src/loopcurrents`` is named in README.md
as `module.NAME`, and every `module.NAME` there that ends in ``_CAP`` or
``_RESOLUTION`` is an int constant of that module.
"""

import ast
import importlib
import re
from pathlib import Path

import loopcurrents

PACKAGE = Path(loopcurrents.__file__).parent
README = PACKAGE.parent.parent / "README.md"
NAMED = re.compile(r"`([a-z_]+)\.([A-Z_]+_(?:CAP|RESOLUTION))`")


def _defined_caps() -> list[tuple[str, str]]:
    """(module, name) for every module-level assignment to a ``*_CAP``."""
    caps = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            caps += [(path.stem, t.id) for t in targets if isinstance(t, ast.Name) and t.id.endswith("_CAP")]
    return caps


def mismatches(readme: str) -> list[str]:
    named = set(NAMED.findall(readme))
    problems = [f"README does not name {m}.{name}" for m, name in _defined_caps() if (m, name) not in named]
    for module, name in sorted(named):
        try:
            value = getattr(importlib.import_module(f"loopcurrents.{module}"), name, None)
        except ImportError:
            value = None
        if type(value) is not int:
            problems.append(f"README names {module}.{name}, no int constant of its module")
    return problems


def test_readme_names_every_cap_and_no_other():
    assert mismatches(README.read_text(encoding="utf-8")) == []


def test_a_removed_or_unnamed_cap_is_caught():
    readme = README.read_text(encoding="utf-8")
    assert mismatches(readme + "(`overview.MAX_GRID_RESOLUTION`)\n") == [
        "README names overview.MAX_GRID_RESOLUTION, no int constant of its module"
    ]
    assert mismatches(readme + "(`sampler.MAX_RESOLUTION`, `nomodule.A_CAP`)\n") == [
        "README names nomodule.A_CAP, no int constant of its module",
        "README names sampler.MAX_RESOLUTION, no int constant of its module",
    ]
    assert mismatches(readme.replace("`rationals.GRID_CAP`", "the grid cap")) == [
        "README does not name rationals.GRID_CAP"
    ]
