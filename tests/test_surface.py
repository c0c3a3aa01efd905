"""Every function and class the library defines has a caller outside tests.

A name counts as used when ``src/enclosure_kit`` or ``benchmarks`` refers
to it, as a plain name or as an attribute.  The rest must be in ALLOWED,
each with the reason it stays; a name that tests alone call, and that no
test compares the pipeline against, should be deleted instead.
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
