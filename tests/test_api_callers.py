"""Every public top-level function and class of fdsic has a reader besides
the tests of its own behaviour.

A name counts as read when another src module uses it, when its own module
uses it outside its definition, or when tests/test_acceptance.py, a perfbench
file or a script uses it. A string constant that is an identifier counts as a
use, so perfbench's LAYER_FUNCTIONS table counts. A name with no reader belongs
in tests/reference.py or nowhere. Each file is parsed once, with ast, so
nothing here is imported.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "fdsic"
READERS = [REPO / "tests" / "test_acceptance.py", *(REPO / "perfbench").glob("*.py"),
           *(REPO / "scripts").glob("*.py")]
# paper API kept for the model suite (ROADMAP 2A), which gives it its first caller
RESERVED = {"taylor_coeffs"}


def _names_used(node: ast.AST) -> set:
    """Identifiers node reads: names, attributes, imported names and string
    constants that are identifiers."""
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.alias):
            used.add(n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            used.add(n.value)
    return used


def _readers() -> dict:
    """"module.name" of each public top-level function and class in src ->
    every name read outside its definition, by its own module or any other file."""
    bodies = {path.stem: ast.parse(path.read_text()).body for path in SRC.glob("*.py")}
    uses = {module: [_names_used(stmt) for stmt in body] for module, body in bodies.items()}
    read_by = {module: set().union(*u) for module, u in uses.items()}
    outside = set().union(*(_names_used(ast.parse(path.read_text())) for path in READERS))
    readers = {}
    for module, body in bodies.items():
        others = outside.union(*(u for m, u in read_by.items() if m != module))
        own = uses[module]
        for i, stmt in enumerate(body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                readers[f"{module}.{stmt.name}"] = others.union(*own[:i], *own[i + 1:])
    return readers


READERS_OF = _readers()


@pytest.mark.parametrize("qualname", sorted(READERS_OF))
def test_public_name_has_a_reader(qualname):
    name = qualname.split(".")[1]
    assert name in RESERVED or name in READERS_OF[qualname], (
        f"{qualname} is read only by tests: delete it, or move it to tests/reference.py")
