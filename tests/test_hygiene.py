"""Source hygiene checks that need no linter: every module-level import in the
package is used in its module, re-exported through ``__all__``, or marked
``# noqa: F401`` on its own line (a binding kept for perfbench's span hooks)."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "swarmlearn"


def unused_imports(source: str) -> list[str]:
    """The names a module imports at module level and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
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
