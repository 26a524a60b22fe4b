"""The README's Library snippet runs as written and names the package's exports."""

import ast
from pathlib import Path
from types import ModuleType

import numpy as np

import pioucrypt
from pioucrypt.layer1 import RgbImage
from pioucrypt.pipeline import write_image

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_snippet(tmp_path, monkeypatch):
    code = library_snippet()
    planes = np.random.default_rng(5).integers(0, 256, (3, 9, 12), dtype=np.uint8)
    write_image(RgbImage(np.stack(planes, axis=-1)), tmp_path / "photo.ppm")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    assert (tmp_path / "photo.dec.ppm").read_bytes() == (tmp_path / "photo.ppm").read_bytes()

    imported = sorted(
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "pioucrypt"
        for alias in node.names
    )
    exported = sorted(
        name
        for name, value in vars(pioucrypt).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    )
    assert sorted(pioucrypt.__all__) == exported == imported
    namespace = {}
    exec("from pioucrypt import *", namespace)
    assert set(pioucrypt.__all__) <= namespace.keys()
