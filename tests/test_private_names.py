"""Every module-level private name of the package is read in the package.

A private function, class or constant (``_name``) serves only the package,
so one that nothing in ``src/hetasym`` reads, apart from its own definition,
is dead code: a test may still call it, but no program path does.  Like
tests/test_imports.py the check parses each file with ``ast``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/hetasym/*.py"))


def private_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, statement) of each private function, class or constant that
    a top-level statement of ``tree`` defines."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        found += [(name, node) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


def names_read(node: ast.AST) -> set[str]:
    """Names that node loads, bare or as an attribute of a module or object."""
    return ({sub.id for sub in ast.walk(node)
             if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            | {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)})


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private top-level definition in ``sources``
    (module name -> source text) that no other top-level statement reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    statements = [(stmt, names_read(stmt)) for tree in trees.values() for stmt in tree.body]
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name, definition in private_definitions(tree)
                  if not any(name in read for stmt, read in statements if stmt is not definition))


def test_unread_private_names_detected():
    sources = {
        "a": "_USED = 1\n_DEAD = 2\ndef _recursive(n):\n    return _recursive(n - 1)\n"
             "class _Twin:\n    pass\ndef public():\n    return _USED\n",
        # an import alone reads nothing
        "b": "from . import c\nfrom .c import _Imported\ndef f():\n    return c._SHARED\n",
        "c": "_SHARED = 3\n_Imported = 4\n",
    }
    assert unread_private_names(sources) == ["a._DEAD", "a._Twin", "a._recursive",
                                             "c._Imported"]


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unread_private_names(sources) == []
