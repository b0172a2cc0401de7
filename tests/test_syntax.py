"""The package, its tests and its benchmark keep to the oldest Python that
pyproject.toml admits (requires-python = ">=3.10"): each file parses under
3.10's grammar."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    paths = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 20 and any(p.parent.name == "perfbench" for p in paths)
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
