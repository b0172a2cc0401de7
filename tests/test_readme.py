"""The README's code runs as written."""

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
