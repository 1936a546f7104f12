"""Every option of every subcommand is read by the command it configures,
and the README's flag table lists exactly those options.

Each subcommand's function is parsed with ``ast``; an option whose ``dest``
never appears as ``args.<dest>`` there is a flag that is accepted and then
ignored.
"""

import ast
import inspect
import re
import textwrap
from pathlib import Path

import pytest

from domdensity import cli

# bench/run.py passes --cache to every command of the products-warm
# workload, thresholds included.
ALLOWED_UNREAD = {("thresholds", "cache")}


SUBCOMMANDS = next(action.choices for action in cli.build_parser()._actions
                   if action.dest == "command")


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_every_option_is_read(name):
    sub = SUBCOMMANDS[name]
    func = sub.get_default("func")
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}
    unread = [action.dest for action in sub._actions
              if action.dest != "help" and action.dest not in read
              and (name, action.dest) not in ALLOWED_UNREAD]
    assert not unread, f"{name}: options never read: {unread}"


def test_readme_flag_table_lists_each_subcommands_options():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| subcommand | flags |") + 2  # past the header rule
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, flags = (cell.strip() for cell in line.strip("|").split("|"))
        table[name.strip("`")] = set(re.findall(r"--[a-z][a-z-]*", flags))
    options = {name: {opt for action in sub._actions for opt in action.option_strings
                      if opt not in ("-h", "--help")}
               for name, sub in SUBCOMMANDS.items()}
    assert table == options
