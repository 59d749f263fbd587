"""The dependency rule: at run time termex needs only numpy. A stray import
of another installed package would pass every other test on a machine that
happens to have it."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "termex").rglob("*.py"))


def imported_modules(path: Path) -> list[str]:
    """The top-level names of a module's absolute imports, at any depth in
    the file; relative imports (within termex) are left out."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.partition(".")[0])
    return names


def test_source_imports_only_stdlib_numpy_and_termex():
    assert SOURCES
    allowed = sys.stdlib_module_names | {"numpy", "termex"}
    stray = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in SOURCES
        for name in imported_modules(path)
        if name not in allowed
    ]
    assert not stray, "imports outside the stdlib and numpy:\n" + "\n".join(stray)


def test_imports_are_found_at_any_depth(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "import os.path\nfrom . import x\n"
        "def f():\n    import scipy.sparse\n    from yaml import safe_load\n",
        encoding="utf-8",
    )
    assert imported_modules(source) == ["os", "scipy", "yaml"]


def test_pyproject_depends_on_numpy_alone():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in project["dependencies"]]
    assert names == ["numpy"]
