"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library use") :]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert len(namespace["result"].directions) == 16
    assert len(capsys.readouterr().out.splitlines()) == 17
