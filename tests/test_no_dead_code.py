"""Every private function, method or class in `src/asymcalc` (one leading
underscore) is used by name in the package's own code, outside its own
definition.  A use in the tests does not count, nor does a name in a
docstring or comment: a helper that only the tests call belongs in the
tests."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "asymcalc"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _walk(node, enclosing, defs, uses):
    """Record each private definition and each use of a name, with the
    definitions the use sits inside."""
    if isinstance(node, _DEFS):
        if _is_private(node.name):
            defs.append(node)
        enclosing = enclosing | {id(node)}
    if isinstance(node, ast.Name):
        uses.setdefault(node.id, []).append(enclosing)
    elif isinstance(node, ast.Attribute):
        uses.setdefault(node.attr, []).append(enclosing)
    for child in ast.iter_child_nodes(node):
        _walk(child, enclosing, defs, uses)


def _unused(defs, uses):
    """The definitions with no use outside their own body."""
    return [d for d in defs
            if not any(id(d) not in enc for enc in uses.get(d.name, ()))]


def _private_definitions():
    """(definitions, unused): every private definition in the package, and
    those `_unused` finds, as 'file:line name'."""
    defs, uses, where = [], {}, {}
    for path in sorted(SRC.rglob("*.py")):
        found = []
        _walk(ast.parse(path.read_text(), str(path)), frozenset(), found,
              uses)
        for node in found:
            where[id(node)] = f"{path.relative_to(SRC)}:{node.lineno} " \
                f"{node.name}"
        defs += found
    return ([where[id(d)] for d in defs],
            [where[id(d)] for d in _unused(defs, uses)])


def test_every_private_definition_is_used_in_src():
    defs, unused = _private_definitions()
    assert len(defs) > 100
    assert unused == []


_TOY = """
def _lonely(n):
    return _lonely(n - 1) if n else 0

def _used():
    return 1

def public():
    "Calls _used, never _lonely."
    return _used()
"""


def test_a_helper_used_only_by_itself_or_in_a_docstring_is_unused():
    defs, uses = [], {}
    _walk(ast.parse(_TOY), frozenset(), defs, uses)
    assert [d.name for d in defs] == ["_lonely", "_used"]
    assert [d.name for d in _unused(defs, uses)] == ["_lonely"]
