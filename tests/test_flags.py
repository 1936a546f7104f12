"""Every option of every subcommand is read by the command it configures.

Each subcommand's function is parsed with ``ast``; an option whose ``dest``
never appears as ``args.<dest>`` there is a flag that is accepted and then
ignored.
"""

import ast
import inspect
import textwrap

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
