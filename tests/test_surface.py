"""Every name the library defines has a reader outside tests, every
constant it sets is read, every defaulted parameter is passed, every name
it imports is used, and every error it raises is typed.

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

import numpy as np
import pytest

from enclosure_kit import enclosure, materials, meshing, solver
from enclosure_kit.errors import InvalidParameterError
from enclosure_kit.geometry import ConvexPolygon, DirectionFrame, Disk, Rectangle, UnitDisk

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "enclosure_kit"

ALLOWED = {
    "scene_field": "test reference: original-variable field of criterion 5",
    "reduced_field": "test reference: whole-mesh field, background included, of the whole-interior solves",
    "dtn_pairing": "test reference: weak Neumann pairing of criteria 4 and 5",
    "difference_pairing": "test reference: pairing difference of the two-solve check",
    "shifted": "criterion 7 moves indicator curves to other heights",
    "zero": "the README library example builds SymMat2.zero()",
    "error": "argparse calls _Parser.error",
}

ALLOWED_FIELDS = {}

# defaulted parameters that no call in the library or the benchmarks passes
ALLOWED_KNOBS = {
    "cmd_check.direction": "argparse sets it through COMMANDS",
    "cmd_check.as_json": "argparse sets it through COMMANDS",
    "cmd_sweep.out_dir": "argparse sets it through COMMANDS",
    "cmd_mesh_dump.out_dir": "argparse sets it through COMMANDS",
    "dtn_pairing.extension": "test reference: criterion 4 pairs through a random extension",
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


def test_every_library_constant_is_read():
    """A module-level UPPER_CASE constant is read somewhere in the library
    or the benchmarks, not only assigned."""
    library = parsed(LIBRARY)
    constants = {
        target.id
        for tree in library
        for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
        if isinstance(target, ast.Name) and target.id.isupper()
    }
    read = set()
    for tree in library + parsed(ROOT / "benchmarks"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert constants
    assert constants - read == set()


def imported_names(tree):
    """The names a module's imports bind, but those of __future__."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def test_every_library_import_is_used():
    """Each name a library module imports is used in that module, in code,
    in an annotation or, for a re-export, in its __all__."""
    unused = []
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
        unused += [f"{path.name}: {name}" for name in sorted(imported_names(tree) - used)]
    assert unused == []


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


def defaulted_parameters(tree):
    """(callee name, parameter, positional index or None) per defaulted
    parameter; a method's index leaves out self, and an __init__ is called
    by its class's name."""
    for cls in [None] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        body = tree.body if cls is None else cls.body
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = cls.name if cls is not None and node.name == "__init__" else node.name
            args = node.args
            positional = args.posonlyargs + args.args
            skip = 1 if cls is not None and positional and positional[0].arg in ("self", "cls") else 0
            first = len(positional) - len(args.defaults)
            for index in range(first, len(positional)):
                yield name, positional[index].arg, index - skip
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None


def test_every_defaulted_parameter_is_passed():
    """A parameter with a default is a knob: some call in the library or
    the benchmarks passes it, by keyword or by position, or it should go."""
    library = parsed(LIBRARY)
    keywords, widest = {}, {}
    for tree in library + parsed(ROOT / "benchmarks"):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
            widest[name] = max(widest.get(name, 0), len(node.args))
    unpassed = {
        f"{name}.{arg}"
        for tree in library
        for name, arg, index in defaulted_parameters(tree)
        if arg not in keywords.get(name, ())
        and not (index is not None and index < widest.get(name, 0))
    }
    assert unpassed == set(ALLOWED_KNOBS)


def error_classes(library):
    """EnclosureKitError and every class derived from it in the library."""
    bases = {
        node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
        for tree in library
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    typed = {"EnclosureKitError"}
    while True:
        grown = typed | {name for name, parents in bases.items() if parents & typed}
        if grown == typed:
            return typed
        typed = grown


def test_every_raise_is_typed():
    """A bad input or resource limit ends as an EnclosureKitError."""
    typed = error_classes(parsed(LIBRARY))
    raises, untyped = 0, []
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:  # bare re-raise
                continue
            raises += 1
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in typed):
                untyped.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert raises > 0
    assert untyped == []


@pytest.mark.parametrize(
    "call",
    [
        lambda: meshing.generate_mesh(UnitDisk(), "0.1"),
        lambda: meshing.generate_mesh("disk", 0.1),
        lambda: enclosure.Probe(DirectionFrame((1.0, 0.0)), "4", 0.0),
        lambda: enclosure.Probe(DirectionFrame((1.0, 0.0)), 4.0, "0"),
        lambda: materials.pq_weights("1", 1.0, 1.0),
        lambda: materials.frequency_bound("1", 1.0, 1.0),
        lambda: Disk((0, 0), "0.2"),
        lambda: materials.MaterialScene("1", 1.0, 1.0),
        lambda: materials.MaterialScene(1.0, 1.0, 1.0, (5,)),
        lambda: materials.MaterialScene(1.0, 1.0, 1.0, 5),
        lambda: ConvexPolygon(5),
        lambda: DirectionFrame("x"),
        lambda: DirectionFrame(1.0),
        lambda: DirectionFrame((1.0, "a")),
        lambda: DirectionFrame.from_angle("x"),
        lambda: materials.SymMat2("1", 0.0, 1.0),
        lambda: materials.SymMat2.iso("1"),
        lambda: materials.Inclusion("disk", materials.SymMat2.iso(1.0), materials.SymMat2.zero()),
        lambda: materials.Inclusion(Disk((0, 0), 0.2), 1.0, materials.SymMat2.zero()),
        lambda: Rectangle("0", 1.0, 0.0, 1.0),
        lambda: enclosure.sweep(
            materials.MaterialScene(1.0, 1.0, 1.0),
            meshing.generate_mesh(UnitDisk(), 0.2),
            8,
            ["a"] * 9,
        ),
        lambda: materials.similarity_check(materials.MaterialScene(1.0, 1.0, 1.0), "1", 1.0),
        lambda: enclosure.IndicatorCurve("0", [1.0], [0.0], [1]),
        lambda: enclosure.IndicatorCurve(0.0, [1.0], [0.0], [1]).shifted("1"),
        lambda: solver.assemble(np.eye(3, 2), np.array([[0, 1, 2]]), "x"),
        lambda: enclosure.Probe(DirectionFrame((1.0, 0.0)), 1.0, 0.0).evaluate("ab"),
        lambda: enclosure.Probe(DirectionFrame((1.0, 0.0)), 1.0, 0.0).evaluate(np.zeros((2, 3))),
        lambda: enclosure.Probe("f", 1.0, 0.0),
        lambda: meshing.Mesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([[0, 1, 2]]),
            np.arange(3),
            domain="dom",
        ),
        # a bool is no number
        lambda: enclosure.Probe(DirectionFrame((1.0, 0.0)), True, 0.0),
        lambda: Disk((0, 0), True),
        lambda: materials.SymMat2(True, 0.0, 1.0),
        lambda: materials.MaterialScene(True, 1.0, 1.0),
        lambda: materials.check_jump(
            materials.MaterialScene(1.0, 1.0, 1.0), DirectionFrame((1.0, 0.0)), True
        ),
        lambda: enclosure.sweep(
            materials.MaterialScene(1.0, 1.0, 1.0),
            meshing.generate_mesh(UnitDisk(), 0.2),
            8,
            np.linspace(0.5, 1.5, 9),
            delta=True,
        ),
        lambda: enclosure.IndicatorCurve(True, [1.0], [0.0], [1]),
        lambda: DirectionFrame((True, False)),
    ],
    ids=[
        "generate_mesh-target_h",
        "generate_mesh-domain",
        "Probe-tau",
        "Probe-shift",
        "pq_weights",
        "frequency_bound",
        "Disk-radius",
        "MaterialScene",
        "MaterialScene-inclusion",
        "MaterialScene-inclusions",
        "ConvexPolygon-vertices",
        "DirectionFrame-scalar",
        "DirectionFrame-number",
        "DirectionFrame-entry",
        "DirectionFrame.from_angle",
        "SymMat2-entry",
        "SymMat2.iso",
        "Inclusion-shape",
        "Inclusion-alpha",
        "Rectangle-bound",
        "sweep-taus",
        "similarity_check",
        "IndicatorCurve-t",
        "IndicatorCurve.shifted",
        "assemble-coeff",
        "Probe.evaluate-string",
        "Probe.evaluate-shape",
        "Probe-frame",
        "Mesh-domain",
        "Probe-tau-bool",
        "Disk-radius-bool",
        "SymMat2-entry-bool",
        "MaterialScene-bool",
        "check_jump-delta-bool",
        "sweep-delta-bool",
        "IndicatorCurve-t-bool",
        "DirectionFrame-entry-bool",
    ],
)
def test_mistyped_argument_is_an_invalid_parameter(call):
    """An argument of the wrong type, such as a string where the library
    expects a number or a number where it expects a shape, a domain or a
    sequence, ends as the typed error, not as a TypeError, ValueError or
    AttributeError from a comparison, a cast or an attribute lookup."""
    with pytest.raises(InvalidParameterError):
        call()
