"""Every name a library module imports is used in it.

An import kept on purpose (a name that another tool rebinds from outside)
carries `# noqa: F401` on its line and is skipped.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "freqcap"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the imports of `source` that no expression reads."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        # `import a.b` binds `a`
        imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_only_unused_unmarked_names():
    source = (
        "import math\n"
        "import os.path\n"
        "from json import (  # noqa: F401\n"
        "    dumps,\n"
        ")\n"
        "import numpy as np\n"
        "from . import sibling as sib\n"
        "def f():\n"
        "    from re import compile\n"
        "    return np.log(sib.x), os.sep\n"
    )
    assert unused_imports(source) == ["compile", "math"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
