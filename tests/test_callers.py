"""Every public class, function and method of bcortho has a caller in
bcortho.

A public module-level class or function, or a public method of a
module-level class, passes if its name appears as a name or attribute
somewhere in the package outside its own body; otherwise it belongs in
the tests (tests/oracles.py) or is listed in KEPT with the reason it
stays. The constructor hooks __init__ and __post_init__ are called by
construction. Other special methods are called by operators, which no
name search sees, so each of them is listed too."""

import ast
from pathlib import Path

import bcortho

TREES = {path.stem: ast.parse(path.read_text())
         for path in sorted(Path(bcortho.__file__).parent.glob("*.py"))}

KEPT = {
    "bcpoly.LaurentPolynomial.eval_grid":
        "the tests' full-grid reference for the chamber tables; the "
        "benchmark tracer wraps it by name",
    "bcpoly.LaurentPolynomial.__mul__":
        "the benchmark tracer wraps it by name",
    "bcpoly.LaurentPolynomial.__add__":
        "reference semantics of _add_scaled (oracles.orthogonalize_loop)",
    "bcpoly.LaurentPolynomial.__sub__":
        "reference semantics of _add_scaled (oracles.orthogonalize_loop)",
    "bcpoly.LaurentPolynomial.__eq__":
        "value equality of the immutable polynomials",
    "bcpoly.LaurentPolynomial.__hash__":
        "kept consistent with __eq__",
    "bcpoly.LaurentPolynomial.__repr__":
        "the terms, for failure messages",
    "cli.SuiteConfig.__getitem__":
        "cfg[key], the CLI's read of a setting",
    "bcpoly._Tables.__iter__":
        "a family's pairings read its node tables by iteration",
}

CONSTRUCTION = {"__init__", "__post_init__"}


def definitions():
    """(qualified name, node, module) of every public class, function and
    method."""
    for stem, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    yield f"{stem}.{node.name}", node, stem
            if isinstance(node, ast.ClassDef):
                for meth in node.body:
                    if not isinstance(meth, ast.FunctionDef):
                        continue
                    name = meth.name
                    special = name.startswith("__") and name.endswith("__")
                    if ((special or not name.startswith("_"))
                            and name not in CONSTRUCTION):
                        yield f"{stem}.{node.name}.{name}", meth, stem


def named_outside(node, module: str) -> bool:
    """The name of node appears in the package outside its own body."""
    for stem, tree in TREES.items():
        for sub in ast.walk(tree):
            name = (sub.id if isinstance(sub, ast.Name)
                    else sub.attr if isinstance(sub, ast.Attribute)
                    else None)
            if name != node.name:
                continue
            if stem == module and node.lineno <= sub.lineno <= node.end_lineno:
                continue
            return True
    return False


def test_every_public_function_has_a_caller():
    uncalled = [qual for qual, node, module in definitions()
                if qual not in KEPT and not named_outside(node, module)]
    assert uncalled == []


def test_every_kept_entry_is_needed():
    # a kept entry names a definition that still has no caller
    found = {qual: (node, module) for qual, node, module in definitions()}
    assert set(KEPT) <= set(found)
    assert [qual for qual in KEPT if named_outside(*found[qual])] == []
