"""Every source file parses as Python 3.10, the floor ``pyproject.toml``
declares (``requires-python = ">=3.10"``), whatever interpreter runs the
tests.  Syntax only: library calls newer than the floor are not caught."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_at_the_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
