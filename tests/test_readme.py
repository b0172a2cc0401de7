"""The README's code runs as written, and its claims about the code hold."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_tour_runs():
    # the first python block under "## Library tour", run as a script
    text = (ROOT / "README.md").read_text()
    tour = text[text.index("\n## Library tour\n"):]
    start = tour.index("```python\n") + len("```python\n")
    code = tour[start:tour.index("\n```", start)]
    assert "check_all" in code and "synthesize" in code
    exec(compile(code, "README.md (Library tour)", "exec"), {})


def test_stdlib_imports_listed():
    # the install section names every module the package imports, and no other
    text = " ".join((ROOT / "README.md").read_text().split())
    start = text.index("It imports only the standard library's")
    listed = set(re.findall(r"`(\w+)`", text[start:text.index(".", start)]))
    imported = set()
    for path in sorted((ROOT / "src" / "b2crystal").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    assert listed == imported
