"""The package's public names: each imported once and listed once in ``__all__``."""

import ast
from pathlib import Path

import causalurn


def test_imported_names_are_the_listed_names():
    # __init__ states each public name twice, in an import list and in
    # __all__; a name added to only one of them fails here.
    tree = ast.parse(Path(causalurn.__file__).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(imported) == len(set(imported))
    assert len(causalurn.__all__) == len(set(causalurn.__all__))
    assert set(imported) == set(causalurn.__all__)
    namespace: dict = {}
    exec("from causalurn import *", namespace)
    assert all(namespace[name] is getattr(causalurn, name) for name in causalurn.__all__)
