"""Every module-level import of the package is used by its module.

No linter ships with the project, so this test reads each module with
``ast``: a name that a module imports at its top level and never reads is
an unused import.  ``__init__.py`` is left out, because its imports are the
package's public names.
"""

import ast
from pathlib import Path

import pytest

import leveltopo

MODULES = sorted(p for p in Path(leveltopo.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that the top-level imports of ``source`` bind and no other
    part of it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_unused_import_is_found():
    source = "from __future__ import annotations\nimport os\nimport sys\nimport numpy.linalg\n" \
             "from json import dumps as d, loads\n\nprint(sys.argv, numpy.pi, d)\n"
    assert unused_imports(source) == ["line 2: os", "line 5: loads"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []
