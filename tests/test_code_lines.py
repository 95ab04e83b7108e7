"""The code-line counter in tools/ counts what the simplicity records quote:
lines that are not blank, not only a comment and not part of a docstring."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line


# a comment line
def f(x):
    """One-line docstring."""
    s = """a string that is
    not a docstring"""
    return (x +
            1)


class C:
    """Class docstring."""

    y = 1
'''


def test_counts_code_and_skips_docstrings_comments_and_blanks():
    # import, def, s = (2 lines), return (2 lines), class, y = 1.
    assert load_tool().count_code_lines(SOURCE) == 8


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# done\n")
    assert load_tool().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["8", "1", "9"]
    assert lines[-1].split()[1] == "total"
