"""Every public top-level function and class of fdsic has a reader besides
the tests of its own behaviour, and so does every option of such a function.

A name counts as read when another src module uses it, when its own module
uses it outside its definition, or when tests/test_acceptance.py, a perfbench
file or a script uses it. A string constant that is an identifier counts as a
use, so perfbench's LAYER_FUNCTIONS table counts. A name with no reader belongs
in tests/reference.py or nowhere. A parameter with a default counts as read
when some call in src or in those files passes it, by position or by keyword;
one that no such call passes is an option nothing uses. Each file is parsed
once, with ast, so nothing here is imported.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "fdsic"
READERS = [REPO / "tests" / "test_acceptance.py", *(REPO / "perfbench").glob("*.py"),
           *(REPO / "scripts").glob("*.py")]
# paper API kept for the model suite (ROADMAP item 1), which gives it its first caller
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


SRC_TREES = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
READER_TREES = [ast.parse(path.read_text()) for path in READERS]


def _readers() -> dict:
    """"module.name" of each public top-level function and class in src ->
    every name read outside its definition, by its own module or any other file."""
    bodies = {module: tree.body for module, tree in SRC_TREES.items()}
    uses = {module: [_names_used(stmt) for stmt in body] for module, body in bodies.items()}
    read_by = {module: set().union(*u) for module, u in uses.items()}
    outside = set().union(*(_names_used(tree) for tree in READER_TREES))
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


def _passed() -> dict:
    """Called name -> what the calls in src and the readers pass it: the
    positions they fill, the keywords they name, and "*" or "**" when one
    unpacks a sequence or a mapping."""
    passed = {}
    for tree in [*SRC_TREES.values(), *READER_TREES]:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            got = passed.setdefault(name, set())
            for i, arg in enumerate(call.args):
                got.add("*" if isinstance(arg, ast.Starred) else i)
            got.update("**" if kw.arg is None else kw.arg for kw in call.keywords)
    return passed


def _options() -> dict:
    """"module.name(parameter)" of each defaulted parameter of a public
    top-level function in src -> (the function's name, the parameter's position
    or None if it is keyword-only, the parameter's name)."""
    options = {}
    for module, tree in SRC_TREES.items():
        for stmt in tree.body:
            if not isinstance(stmt, ast.FunctionDef) or stmt.name.startswith("_"):
                continue
            a = stmt.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            params = [(i, p.arg) for i, p in enumerate(positional) if i >= first]
            params += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for i, arg in params:
                options[f"{module}.{stmt.name}({arg})"] = (stmt.name, i, arg)
    return options


PASSED = _passed()
OPTIONS = _options()


@pytest.mark.parametrize("option", sorted(OPTIONS))
def test_option_has_a_reader(option):
    name, position, arg = OPTIONS[option]
    got = PASSED.get(name, set())
    by_position = position is not None and (position in got or "*" in got)
    assert by_position or arg in got or "**" in got, (
        f"{option}: no call in src, perfbench, scripts or tests/test_acceptance.py passes it; "
        "drop the parameter, or give it a caller")
