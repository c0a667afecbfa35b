"""The oracles must not run the package code that they check.

``tests/oracles.py`` may take from the package only data types, error
types, constants, tables and the block generator, whose output is
pinned to the scalar one in ``oracles.py``.  A later refactor that
imports anything else into it fails here.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).parent / "oracles.py"

ALLOWED_IMPORTS = {
    # data types
    "Rbm",
    "Token",
    "ProcessedDocument",
    # errors
    "NonFiniteParameter",
    # constants and tables
    "WEIGHT_INIT_STD",
    "_STEP2",
    "_STEP3",
    "_STEP4",
    # the block stream, checked against ScalarXorshift64Star
    "Xorshift64Star",
}

# through ``import rbmsumm``: the assets directory, and the per-epoch
# history that both training loops record with the same function
ALLOWED_ATTRIBUTES = {"rbmsumm.__file__", "rbmsumm.rbm.reconstruction_cross_entropy"}


def _tree() -> ast.Module:
    return ast.parse(ORACLES.read_text("utf-8"))


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` of a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def test_package_names_imported_into_the_oracles_are_allowed():
    imported = set()
    for node in ast.walk(_tree()):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rbmsumm":
            imported.update(alias.name for alias in node.names)
    assert imported, "oracles.py no longer imports from rbmsumm; update this test"
    assert imported <= ALLOWED_IMPORTS, sorted(imported - ALLOWED_IMPORTS)


def test_the_package_module_is_imported_only_whole():
    names = [
        alias
        for node in ast.walk(_tree())
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] == "rbmsumm"
    ]
    assert [(a.name, a.asname) for a in names] == [("rbmsumm", None)]


def test_package_attributes_read_by_the_oracles_are_allowed():
    tree = _tree()
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "rbmsumm":
            top = node
            while isinstance(parents.get(top), ast.Attribute):
                top = parents[top]
            used.add(_dotted(top))
    assert used <= ALLOWED_ATTRIBUTES, sorted(used - ALLOWED_ATTRIBUTES)
