"""Static checks over the package source: every exception the package raises
is one of its own error classes, every one of those classes is raised, and no
module imports another's private names."""

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


def test_no_module_imports_a_private_name_of_another():
    # A private module such as _text is imported whole; the names a module
    # keeps private to itself are imported by none of the others.
    modules = {path.stem for path in SOURCES}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not (node.level or (node.module or "").split(".")[0] == "pioucrypt"):
                continue
            whole_module = node.module in (None, "pioucrypt")
            for alias in node.names:
                if alias.name.startswith("_") and not (whole_module and alias.name in modules):
                    found.append((path.name, node.lineno, alias.name))
    assert found == []
