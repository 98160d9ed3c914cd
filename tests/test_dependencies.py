"""kljn imports numpy alone, and its tests numpy and the test extra alone, as pyproject declares.

scipy is a test dependency only (the oracles of the acceptance, estimator and
periodogram tests, and ``tests/exact.py``'s Imhof integral);
tests/test_entry_point.py checks that no command loads it. The tests' own
helper modules (``exact``, ``gates``, ``goldens``, ``mutants``, ``reference``,
``refusals``, ``streams``, ``traced``) and the kill matrix's script
(``kill_matrix``, which pytest does not collect) are local, not packages.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import kljn

PACKAGE = Path(kljn.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def imported_packages(paths):
    """Top-level names of the packages the modules at ``paths`` import, at any depth, less the standard library."""
    names = set()
    for path in sorted(paths):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def declared(requirements):
    """The distribution names of pyproject requirement strings (a distribution's name is its import name here)."""
    return {re.match(r"[A-Za-z0-9._-]+", req).group() for req in requirements}


@pytest.fixture(scope="module")
def project():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    return tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))["project"]


def test_runtime_dependencies_are_the_imported_packages(project):
    """pyproject's ``dependencies`` name exactly the packages that kljn imports."""
    assert imported_packages(PACKAGE.rglob("*.py")) - {"kljn"} == declared(project["dependencies"]) == {"numpy"}


def test_test_dependencies_are_the_imported_packages(project):
    """``dependencies`` and the ``test`` extra name exactly the packages that the tests import, less kljn and
    the tests' own modules."""
    tests = list(TESTS.glob("*.py"))
    local = {"kljn"} | {path.stem for path in tests}
    wanted = declared(project["dependencies"]) | declared(project["optional-dependencies"]["test"])
    assert imported_packages(tests) - local == wanted == {"numpy", "pytest", "hypothesis", "scipy"}
