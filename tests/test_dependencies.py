"""Every package the simulator imports is declared in ``pyproject.toml``.

An undeclared import passes on a machine that happens to have the package
installed and fails everywhere else, often at import time of an unrelated
entry point.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def declared_packages():
    """Import names of ``[project].dependencies`` (lowercase, ``-`` -> ``_``)."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower()
            .replace("-", "_") for req in requirements}


def imported_packages(path):
    """Top-level package name of every absolute import in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_import_is_declared():
    allowed = set(sys.stdlib_module_names) | {"repro"} | declared_packages()
    undeclared = [
        f"{path.relative_to(ROOT)}:{lineno}: {package}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, package in imported_packages(path)
        if package not in allowed
    ]
    assert not undeclared, "imports missing from [project].dependencies:\n" \
        + "\n".join(undeclared)
