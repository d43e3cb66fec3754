import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treeramsey

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_export_resolves():
    missing = [name for name in treeramsey.__all__ if not hasattr(treeramsey, name)]
    assert missing == []
    assert len(set(treeramsey.__all__)) == len(treeramsey.__all__)


@pytest.mark.parametrize("module, absent", [
    ("treeramsey", ["dataclasses"]),
    ("treeramsey.cli", ["dataclasses", "treeramsey.demo"]),
])
def test_import_loads_neither_dataclasses_nor_the_demo(module, absent):
    # a fresh interpreter without site hooks: records are plain classes or
    # NamedTuples, and only the demo command compiles the acceptance matrix
    probe = f"import sys, {module}; print([m for m in {absent!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "[]"


def test_the_package_imports_only_the_standard_library():
    # every top-level module a package module imports is stdlib or the package itself
    foreign = {}
    for path in sorted((SRC / "treeramsey").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "treeramsey" and top not in sys.stdlib_module_names:
                    foreign.setdefault(path.name, []).append(name)
    assert foreign == {}
