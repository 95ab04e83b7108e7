import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    # The documented example imports only public names of the package, so
    # it fails here when one of them is dropped or renamed.
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["result"].basis.cols == [[1, 0], [0, 1]]
    assert len(namespace["result"].stages) == 2
    assert "True" in capsys.readouterr().out
