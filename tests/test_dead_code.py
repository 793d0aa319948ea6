"""Every definition of the package has a user in the package.

A module-level function, class or assigned name, or a non-dunder method
of a module-level class, that no other place in ``src/starext`` names
and that ``starext.__all__`` does not export is code that only tests
reach: delete it, or move what the test needs into the test. The scan
matches bare names, not symbols: a name shared with another symbol, a
variable (``pred``) or a method of another class (``full``), counts as
used, so such a name escapes it.
"""

import ast
from collections import Counter
from pathlib import Path

import starext

SRC = Path(starext.__file__).resolve().parent

#: qualified names kept without a caller in the package, with the reason
ALLOWED = {
    "Universe.star_set": "the checked way to build a set from outside: "
                         "it parses indicator text and rejects values other than 0/1",
    "DecisionLog.to_text": "the one read of a log kept in memory, the default for "
                           "library callers; the CLI's log goes to a file instead",
    "DecisionLog.from_text": "the parse of a log kept in memory, to_text's counterpart "
                             "for library callers; the CLI reads its replay from a file",
    "OracleState.decided": "the benchmark's query probe (perfbench/run.py) reads it to "
                           "tell a repeated query from a new one",
    "__all__": "the package's export list, which ``import *`` and this scan read",
    "__version__": "the package version, read by callers outside the package",
}


def _is_function(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _defs(tree: ast.Module):
    """(qualified name, name, node) of each module-level function, class
    and name assigned to, and each non-dunder method of a module-level
    class."""
    for node in tree.body:
        if _is_function(node):
            yield node.name, node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.name, node
            for item in node.body:
                if _is_function(item) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name, item


def _names(node: ast.AST):
    """Every identifier that ``node`` mentions: names, attributes, imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.asname or sub.name.rsplit(".", 1)[-1]


def unused_definitions(src: Path = SRC) -> list[str]:
    """``module: qualified name`` of each definition no other code names."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    uses = Counter(name for tree in trees.values() for name in _names(tree))
    unused = []
    for module, tree in trees.items():
        for qualname, name, node in _defs(tree):
            # a function's mentions of itself, recursion say, are not callers
            elsewhere = uses[name] - Counter(_names(node))[name]
            if elsewhere == 0 and name not in starext.__all__ and qualname not in ALLOWED:
                unused.append(f"{module}: {qualname}")
    return unused


def test_every_definition_has_a_caller_in_the_package():
    assert unused_definitions() == []

