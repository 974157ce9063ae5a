"""Source hygiene checks that need no linter: every module-level import in the
package is used in its module, re-exported through ``__all__``, or marked
``# noqa: F401`` on its own line (a binding kept for perfbench's span hooks);
and every top-level function and class is referenced somewhere in the
package outside its own definition, or listed in an ``__all__``; every
dataclass field is read somewhere in the package; and the README's config
reference names every INI key."""
import ast
import re
from pathlib import Path

import pytest

from swarmlearn.cli import _SECTION_KEYS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "swarmlearn"


# Reachable only from the tests, which import them; ROADMAP item 15 either
# surfaces them in a run's output or moves them into the tests.
KNOWN_UNREFERENCED = ["analysis.run_genie_aligned", "analysis.divergence_bound_check"]


def exported(tree: ast.Module) -> set[str]:
    """The names a module lists in ``__all__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
    return names


def unused_imports(source: str) -> list[str]:
    """The names a module imports at module level and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported(tree)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(name)
    return unused


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_an_unused_import_is_found():
    source = (
        "import math\n"
        "from os import path, sep  # noqa: F401\n"
        "from json import (\n"
        "    dumps,\n"
        "    loads,  # noqa: F401\n"
        ")\n"
        "import numpy as np\n"
        "__all__ = ['dumps']\n"
        "x = np.zeros(1)\n"
    )
    assert unused_imports(source) == ["math"]


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of every top-level function and class in ``sources``
    (module name to source) that no name or attribute in any of them reads
    outside the definition itself, and no ``__all__`` lists. An import alone
    is no reference."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    listed = set().union(*(exported(tree) for tree in trees.values()))
    unreferenced = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = {id(inner) for inner in ast.walk(node)}
            referenced = any(
                id(ref) not in own and (
                    isinstance(ref, ast.Name) and ref.id == node.name
                    or isinstance(ref, ast.Attribute) and ref.attr == node.name
                )
                for other in trees.values() for ref in ast.walk(other)
            )
            if not referenced and node.name not in listed:
                unreferenced.append(f"{module}.{node.name}")
    return unreferenced


def test_every_definition_is_referenced():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_definitions(sources) == KNOWN_UNREFERENCED


def test_an_unreferenced_definition_is_found():
    sources = {
        "a": (
            "from .b import helper, imported_only  # noqa: F401\n"
            "def loop():\n"
            "    return loop()\n"
            "def used():\n"
            "    return helper()\n"
            "class Listed:\n"
            "    pass\n"
            "__all__ = ['Listed', 'used']\n"
        ),
        "b": (
            "import a\n"
            "def helper():\n"
            "    return a.used\n"
            "def imported_only():\n"
            "    pass\n"
        ),
    }
    assert unreferenced_definitions(sources) == ["a.loop", "b.imported_only"]


# The records of the two KNOWN_UNREFERENCED functions, which only the tests read.
KNOWN_UNREAD_RECORDS = {"analysis.AlignedTrace", "analysis.DivergenceVerdict"}


def unread_fields(sources: dict[str, str]) -> list[str]:
    """``module.Class.field`` of every field a dataclass in ``sources``
    declares that no attribute load, and no ``getattr`` with a constant
    name, in any of them reads, by name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    unread = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef)
                    and any(map(is_dataclass_decorator, node.decorator_list))):
                continue
            unread += [f"{module}.{node.name}.{stmt.target.id}" for stmt in node.body
                       if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                       and stmt.target.id not in read]
    return unread


def is_dataclass_decorator(decorator: ast.expr) -> bool:
    """``@dataclass`` or ``@dataclasses.dataclass``, called or bare."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (isinstance(target, ast.Name) and target.id == "dataclass"
            or isinstance(target, ast.Attribute) and target.attr == "dataclass")


def test_every_dataclass_field_is_read():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    unread = [name for name in unread_fields(sources)
              if name.rsplit(".", 1)[0] not in KNOWN_UNREAD_RECORDS]
    assert unread == []


def test_an_unread_field_is_found():
    sources = {
        "a": (
            "from dataclasses import dataclass\n"
            "import dataclasses\n"
            "@dataclass(frozen=True)\n"
            "class Record:\n"
            "    loaded: int\n"
            "    by_getattr: int\n"
            "    stored_only: int\n"
            "    KIND = 'plain'\n"
            "@dataclasses.dataclass\n"
            "class Other:\n"
            "    never: float = 0.0\n"
            "class Plain:\n"
            "    ignored: int\n"
        ),
        "b": (
            "def use(r, o, name):\n"
            "    r.stored_only = r.loaded + getattr(r, 'by_getattr') + getattr(o, name)\n"
        ),
    }
    assert unread_fields(sources) == ["a.Record.stored_only", "a.Other.never"]


def config_reference_bullets(readme: str) -> dict[str, str]:
    """The text of each ``- `[section]` -- ...`` bullet under the README's
    "Config reference" heading, by section."""
    reference = readme.split("\n## Config reference\n", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"^- `\[(\w+)\]` -- (.*?)(?=^- |^$)", reference, re.M | re.S))


@pytest.mark.parametrize("section", sorted(_SECTION_KEYS))
def test_readme_names_every_config_key(section):
    bullet = config_reference_bullets((ROOT / "README.md").read_text())[section]
    assert _SECTION_KEYS[section] - set(re.findall(r"`(\w+)`", bullet)) == set()
