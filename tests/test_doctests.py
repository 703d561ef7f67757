"""The examples in the docstrings of every `knotdom` module, run as
doctests, and the Python examples and command lines of README.md."""
import doctest
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import knotdom
from knotdom.cli import main

MODULES = sorted(info.name for info in pkgutil.iter_modules(knotdom.__path__, "knotdom."))
ROOT = Path(__file__).resolve().parents[1]


def test_every_module_is_collected():
    assert {"knotdom.alexander", "knotdom.laurent", "knotdom.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", ["knotdom"] + MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed in {name}"


def test_readme_python_blocks(monkeypatch):
    # in order and in one namespace, from the repository root as the
    # README's paths assume
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_readme_command_lines(capsys):
    # each line of the "Command line" block, in process; a comment that
    # names an exit code gives the code expected, else 0
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    lines = block.splitlines()
    assert lines
    for line in lines:
        program, *argv = shlex.split(line, comments=True)
        expected = re.search(r"# exit code (\d+)", line)
        assert program == "knotdom"
        assert main(argv) == (int(expected.group(1)) if expected else 0), line
