"""The README's examples run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    library = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert list(namespace["euler"].coeffs[:8]) == [1, -1, -1, 0, 0, 1, 0, 1]
    assert namespace["counts"].order == 50
    assert namespace["report"] and all(report.passed for report in namespace["report"])
    assert namespace["b4"].order == 100
