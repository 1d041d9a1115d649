"""The package's public names: the names ``__init__`` imports from its own
submodules, each imported once, are the public names, and ``__all__`` is
derived from them rather than listed a second time."""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import causalurn


def test_imported_names_are_the_listed_names():
    # Every import in __init__ that binds a public name is a relative import
    # from a causalurn submodule, so no outside name (a Fraction, say) turns
    # public by accident; no name is bound by two imports; and __all__, sorted
    # and without duplicates or modules, is the package's public namespace and
    # exactly the public names those imports bind.
    tree = ast.parse(Path(causalurn.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    bound = [(node, alias, alias.asname or alias.name.partition(".")[0])
             for node in imports for alias in node.names]
    names = [name for _, _, name in bound]
    assert len(names) == len(set(names))
    public = [name for name in names if not name.startswith("_")]
    for node, alias, name in bound:
        if not name.startswith("_"):
            assert isinstance(node, ast.ImportFrom) and node.level == 1 and node.module, name
            submodule = importlib.import_module(f"causalurn.{node.module}")
            assert getattr(causalurn, name) is getattr(submodule, alias.name)
    listed = causalurn.__all__
    assert listed == sorted(listed)
    assert len(listed) == len(set(listed))
    assert not any(isinstance(getattr(causalurn, name), ModuleType) for name in listed)
    assert set(listed) == set(public)
    assert listed == sorted(name for name, value in vars(causalurn).items()
                            if not name.startswith("_") and not isinstance(value, ModuleType))
    namespace: dict = {}
    exec("from causalurn import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == set(listed)
    assert all(namespace[name] is getattr(causalurn, name) for name in listed)
