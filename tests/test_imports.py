"""Every module-level import in ``src/domdensity`` is named by its module.

No linter ships with the toolchain, so this is the unused-import check:
each module is parsed with ``ast`` and every name a top-level import binds
must appear as a name somewhere in the module.
"""

import ast
from pathlib import Path

import pytest

import domdensity

PACKAGE = Path(domdensity.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# bench/test_bench.py::test_traced_generator_and_rebinding checks that the
# tracer rebinds canonical_key in the cli namespace, so cli keeps importing it.
ALLOWED_UNUSED = {("cli.py", "canonical_key")}


def _module_imports(tree: ast.Module):
    """(bound name, line) for each import at module level, including those
    under a module-level ``if`` (the TYPE_CHECKING imports)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If):
            stack.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [f"{module}:{line}: {name}"
              for name, line in _module_imports(tree)
              if name not in named and (module, name) not in ALLOWED_UNUSED]
    assert not unused, "unused imports: " + ", ".join(unused)
