import importlib
import re
import shlex
import types
from pathlib import Path

import latred
from latred.cli import main

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


def cli_section():
    text = README.read_text(encoding="utf-8")
    return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def test_cli_commands_run(tmp_path, monkeypatch):
    # One command per block, run in order, so reduce reads what gen wrote.
    blocks = re.findall(r"```sh\n(.*?)```", cli_section(), re.S)
    assert len(blocks) == 3
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        argv = shlex.split(block.replace("\\\n", " "))
        assert argv[0] == "latred"
        assert main(argv[1:]) == 0, argv
    assert (tmp_path / "results.csv").exists()


def test_cli_section_names_only_existing_flags(capsys):
    helps = []
    for command in ("gen", "reduce", "bench"):
        assert main([command, "--help"]) == 0
        helps.append(capsys.readouterr().out)
    for flag in set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", cli_section())):
        assert any(re.search(rf"{flag}\b(?!-)", h) for h in helps), flag


def resolve(dotted):
    """The object a dotted name such as latred.core.apply_moves names."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part):
            obj = importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


def test_exports_are_the_names_readme_documents():
    text = README.read_text(encoding="utf-8")
    spans = " ".join(re.findall(r"`([^`\n]+)`", text))
    documented = set(re.findall(r"\w+", spans))
    exported = {name for name, value in vars(latred).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported - documented == set()
    for dotted in set(re.findall(r"\blatred(?:\.\w+)+", text)):
        resolve(dotted)
