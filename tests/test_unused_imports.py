"""No module of the package imports a name it never uses.

An AST scan of every ``src/romanhs`` module except the package
``__init__`` (which imports in order to re-export). A name counts as used
when it appears anywhere in the module as an identifier, including in
annotations.
"""

import ast
from pathlib import Path

import romanhs


def unused_imports(source: str) -> set[str]:
    """Names a module imports and never mentions again."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_scan_sees_an_unused_import():
    src = "from os import path, sep\nimport sys\nprint(sep, sys.argv)\n"
    assert unused_imports(src) == {"path"}


def test_no_module_imports_an_unused_name():
    found = set()
    for path in sorted(Path(romanhs.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            found |= {(path.name, n) for n in unused_imports(path.read_text())}
    assert not found, sorted(found)
