"""The README's library example runs as written, its list of modules to read
next names exactly the package's modules, and it counts the acceptance
criteria right."""
from __future__ import annotations

import pathlib
import re

import strrecon

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
NUMBERS = ("zero one two three four five six seven eight nine ten eleven twelve "
           "thirteen fourteen fifteen sixteen seventeen eighteen nineteen twenty").split()


def library_section() -> str:
    text = README.read_text()
    start = text.index("## Library\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else None]


def test_library_example_runs_as_written(capsys):
    (example,) = re.findall(r"```python\n(.*?)```", library_section(), re.S)
    exec(compile(example, str(README), "exec"), {})
    assert "QueryStats(" in capsys.readouterr().out


def test_where_to_read_next_names_every_module():
    section = library_section()
    listing = section[section.index("Where to read next") :]
    named = re.findall(r"`(\w+\.py)`", listing)
    assert len(named) == len(set(named))
    modules = {p.name for p in pathlib.Path(strrecon.__file__).parent.glob("*.py")}
    assert set(named) == modules - {"__init__.py"}


def test_readme_counts_every_acceptance_criterion():
    (word,) = re.findall(r"(\w+) end-to-end criteria", README.read_text())
    criteria = re.findall(r"^def test_criterion_\w+", (ROOT / "tests" / "test_acceptance.py").read_text(), re.M)
    assert NUMBERS.index(word) == len(criteria)
