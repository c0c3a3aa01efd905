"""Every name the library defines has a reader outside tests.

A function or class counts as used when ``src/enclosure_kit`` or
``benchmarks`` refers to it, as a plain name or as an attribute; a
dataclass field counts as used when one of them reads it as an attribute.
The rest must be in ALLOWED or ALLOWED_FIELDS, each with the reason it
stays; a name that tests alone read, and that no test compares the
pipeline against, should be deleted instead, and a field whose value the
code can work out should be a property.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "enclosure_kit"

ALLOWED = {
    "cgo_trace": "test reference: the probe trace of the two-solve check",
    "identity_field": "test reference: background field of criterion 4 and the two-solve check",
    "scene_field": "test reference: original-variable field of criterion 5",
    "dtn_pairing": "test reference: weak Neumann pairing of criteria 4 and 5",
    "difference_pairing": "test reference: pairing difference of the two-solve check",
    "shifted": "criterion 7 moves indicator curves to other heights",
    "zero": "the README library example builds SymMat2.zero()",
    "error": "argparse calls _Parser.error",
}

ALLOWED_FIELDS = {
    "residual_norm": "test reference: the Dirichlet tests check the solve residual",
}


def parsed(directory):
    return [ast.parse(path.read_text(), str(path)) for path in sorted(directory.glob("*.py"))]


def test_every_library_name_has_a_caller():
    library = parsed(LIBRARY)
    defined = {
        node.name
        for tree in library
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    used = set()
    for tree in library + parsed(ROOT / "benchmarks"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined - used == set(ALLOWED)


def is_dataclass(node):
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in node.decorator_list
    )


def test_every_dataclass_field_is_read():
    library = parsed(LIBRARY)
    fields = {
        stmt.target.id
        for tree in library
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and is_dataclass(node)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }
    read = {
        node.attr
        for tree in library + parsed(ROOT / "benchmarks")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert fields - read == set(ALLOWED_FIELDS)
