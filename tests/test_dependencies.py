"""kljn's runtime dependencies are the packages its modules import: numpy alone.

scipy is a test dependency only (the oracles of the acceptance, estimator and
periodogram tests); tests/test_entry_point.py checks that no command loads it.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import kljn

PACKAGE = Path(kljn.__file__).resolve().parent


def imported_packages():
    """Top-level names of the packages kljn's modules import, at any depth, less the standard library and kljn."""
    names = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"kljn"}


def test_runtime_dependencies_are_the_imported_packages():
    """pyproject's ``dependencies`` name exactly the packages that kljn imports (a distribution's name is its import name here)."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {re.match(r"[A-Za-z0-9._-]+", req).group() for req in pyproject["project"]["dependencies"]}
    assert imported_packages() == declared == {"numpy"}
