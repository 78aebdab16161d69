"""Every public function of the package is reached from the package itself.

A public module-level function or class method (name without a leading
underscore) counts as reached when its name appears as an ``ast.Name`` or
as the attribute of an ``ast.Attribute`` anywhere in the package source.
Any unreached name fails the test: a function that only the tests call
lives in the tests, so library surface that no command calls cannot regrow
unnoticed.

The check goes by name only.  A method that shares its name with one that
is reached (say an ``evaluate`` beside ``MonotoneMap.evaluate``) counts as
reached too, and is not caught here.
"""

import ast
from pathlib import Path

import bellforge

PACKAGE = Path(bellforge.__file__).parent


def _trees():
    return [ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))]


def _public_definitions(tree):
    """Public module-level functions and public methods of module-level classes."""
    defs = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defs += [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            defs.append(node.name)
    return {name for name in defs if not name.startswith("_")}


def _referenced_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_function_is_reached_from_the_package():
    trees = _trees()
    defined = set().union(*map(_public_definitions, trees))
    referenced = set().union(*map(_referenced_names, trees))
    assert sorted(defined - referenced) == []
