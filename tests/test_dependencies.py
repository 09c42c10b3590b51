"""The package is stdlib-only: no source file imports a third-party module.

It also keeps its checks when run under `python -O`: no source file has a
bare `assert` statement.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "trussmin").glob("*.py"))


def imported_top_level_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:          # relative: inside the package
                yield "trussmin"
            else:
                yield node.module.partition(".")[0]


def test_sources_import_only_stdlib_and_trussmin():
    assert SOURCES
    foreign = {(path.name, mod) for path in SOURCES
               for mod in imported_top_level_modules(path)
               if mod != "trussmin" and mod not in sys.stdlib_module_names}
    assert foreign == set()


def test_pyproject_declares_no_dependencies():
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    declared = [line.strip() for line in lines if line.strip().startswith("dependencies")]
    assert declared == ["dependencies = []"]


def test_sources_have_no_assert_statements():
    # `python -O` strips asserts; a library check must raise explicitly
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
