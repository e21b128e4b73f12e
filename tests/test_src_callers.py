"""Every definition in ``src/tvcontrol`` is named by the program outside itself.

Functions, classes, methods and module-level constants must be named
elsewhere in ``src/``, and a dataclass field must be read as an attribute
outside its class. References only the tests call belong in
``tests/oracles.py``. The check reads syntax trees, so docstrings and
comments do not count, and neither does ``__init__.py``, which only
re-exports.
"""

import ast
from collections import Counter
from pathlib import Path

import tvcontrol

#: definitions no run calls, with the reason each stays
EXEMPT = dict.fromkeys(["build_forms", "discrete_tv"],
                       "called only by `perfbench/sample.py`; ROADMAP items 1 and 22")

#: dataclass fields no run reads, with the reason each stays
EXEMPT_FIELDS = {
    **dict.fromkeys(["MasterSolution.y", "MasterSolution.p", "MasterSolution.mu"],
                    "read by the tests that check the master against the dense QP (items 16, 18)"),
    "OracleResult.converged": "read only by `perfbench/sample.py`'s trace hook; ROADMAP item 1",
}

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


def _constants(tree):
    """A module's top-level assignments, each with a name it binds."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            yield from ((node, target.id) for target in node.targets if isinstance(target, ast.Name))


def _dataclasses(tree):
    """A module's dataclasses, each with the names of its annotated fields."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any("dataclass" in _names(d) for d in node.decorator_list):
            yield node, [sub.target.id for sub in node.body if isinstance(sub, ast.AnnAssign)]


def _attribute_reads(node):
    """How often the code under node reads each attribute name."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def test_every_definition_in_src_is_named_outside_itself():
    trees = [ast.parse(path.read_text()) for path in MODULES]
    named = Counter(name for tree in trees for name in _names(tree))
    uncalled = {
        node.name for tree in trees for node in _definitions(tree)
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and named[node.name] == Counter(_names(node))[node.name]
    }
    assert sorted(uncalled) == sorted(EXEMPT)


def test_every_module_constant_in_src_is_named_outside_its_assignment():
    trees = [ast.parse(path.read_text()) for path in MODULES]
    named = Counter(name for tree in trees for name in _names(tree))
    unnamed = {name for tree in trees for node, name in _constants(tree)
               if named[name] == Counter(_names(node))[name]}
    assert sorted(unnamed) == []


def test_every_dataclass_field_in_src_is_read_outside_its_class():
    trees = [ast.parse(path.read_text()) for path in MODULES]
    read = sum((_attribute_reads(tree) for tree in trees), Counter())
    unread = {f"{cls.name}.{field}" for tree in trees for cls, fields in _dataclasses(tree)
              for field in fields if read[field] == _attribute_reads(cls)[field]}
    assert sorted(unread) == sorted(EXEMPT_FIELDS)
