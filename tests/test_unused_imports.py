"""Every name that a package module imports is used in it.  ``__init__.py``
imports to re-export, so it is left out.  A name counts as used where it is
read as a plain name anywhere in the module, an attribute's base included
(``np`` in ``np.int32``); a name that only a string or a docstring names is
unused."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bracketkit"


def unused_imports(source):
    """The names bound by the imports of ``source`` that no other node reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_every_imported_name_is_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_rule_finds_an_unused_import_and_keeps_a_used_one():
    source = (
        "import numpy as np\nimport os.path\nfrom math import ceil, floor\n"
        'def f(x):\n    """floor is only named here."""\n    return np.int32(ceil(x)) + len(os.sep)\n'
    )
    assert unused_imports(source) == ["floor"]
