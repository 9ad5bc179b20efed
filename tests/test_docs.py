"""The README's library example runs against the current API, and its CLI
table names exactly the parser's options."""

from __future__ import annotations

import re
from pathlib import Path

from probegrover.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    exec(compile(block, f"{README}:Library", "exec"), {})


def test_readme_cli_table_names_every_option():
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    # The first backticked word of each row: `--db-size N` names --db-size.
    documented = re.findall(r"^\| `([^` ]+)", section, re.M)
    options = [o for a in build_parser()._actions for o in a.option_strings if o[:2] == "--"]
    options.remove("--help")
    assert sorted(documented) == sorted(options)
