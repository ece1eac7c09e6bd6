"""The package's source parses under the oldest Python that pyproject.toml
declares, whichever newer interpreter runs the tests."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "strrecon").glob("*.py"))
FLOOR = (3, 10)


def test_pyproject_declares_the_floor():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()


def test_the_check_refuses_newer_syntax():
    # except* came in 3.11
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(newer)
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=FLOOR)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
