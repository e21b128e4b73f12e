"""Every definition in ``src/tvcontrol`` is named by the program outside itself.

References only the tests call belong in ``tests/oracles.py``. The check
reads syntax trees, so docstrings and comments do not count, and neither
does ``__init__.py``, which only re-exports.
"""

import ast
from collections import Counter
from pathlib import Path

import tvcontrol

#: definitions no run calls, with the reason each stays
EXEMPT = dict.fromkeys(["build_forms", "discrete_tv"],
                       "called only by `perfbench/sample.py`; ROADMAP items 1 and 22")

MODULES = sorted(p for p in Path(tvcontrol.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _names(node):
    """Every identifier the code under node names: variables, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _definitions(tree):
    """A module's top-level functions and classes and its classes' methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (sub for sub in node.body if isinstance(sub, ast.FunctionDef))


def test_every_definition_in_src_is_named_outside_itself():
    trees = [ast.parse(path.read_text()) for path in MODULES]
    named = Counter(name for tree in trees for name in _names(tree))
    uncalled = {
        node.name for tree in trees for node in _definitions(tree)
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and named[node.name] == Counter(_names(node))[node.name]
    }
    assert sorted(uncalled) == sorted(EXEMPT)
