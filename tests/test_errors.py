"""Static checks over the package source: every exception the package raises
is one of its own error classes, and every one of those classes is raised."""

import ast
from pathlib import Path

import pioucrypt

SOURCES = sorted(Path(pioucrypt.__file__).parent.glob("*.py"))

# Raised outside the PiouCryptError hierarchy on purpose: argparse and exit
# handling in the CLI, a missing output directory, and unreachable branches.
OTHER_RAISES = {"NotADirectoryError", "argparse.ArgumentTypeError", "SystemExit", "AssertionError"}


def error_classes():
    tree = ast.parse((Path(pioucrypt.__file__).parent / "errors.py").read_text())
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}


def raises():
    """(file, line, raised name) of every raise with an exception in the sources."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                found.append((path.name, node.lineno, ast.unparse(exc)))
    return found


def test_every_raise_names_a_package_error():
    allowed = error_classes() | OTHER_RAISES
    assert [r for r in raises() if r[2] not in allowed] == []


def test_every_error_class_is_raised():
    raised = {name for _, _, name in raises()}
    assert sorted(error_classes() - raised) == []
