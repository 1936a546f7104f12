"""Every module-level import and private name in ``src/domdensity`` is
named by its module, every public name has a reader in ``src``, and
importing the command line loads every module in ``src`` and no module
that only slows start-up.

No linter ships with the toolchain, so these are the dead-name checks:
each module is parsed with ``ast``; every name a top-level import binds
must appear as a name somewhere in the module, every private (``_x``)
function, class or constant defined at top level must be read somewhere
in it, and every public top-level function, class or method must be read
somewhere in ``src`` outside its own body unless an allowlist names it.  A
method is read only through an attribute load, never through a bare name.
"""

import ast
import os
import subprocess
import sys
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


def _module_private_names(tree: ast.Module):
    """(name, line) for each top-level def, class or assignment of a name
    that starts with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node.lineno) for name in names
                    if name.startswith("_") and not name.startswith("__"))


@pytest.mark.parametrize("module", MODULES)
def test_every_private_name_is_read(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    dead = [f"{module}:{line}: {name}"
            for name, line in _module_private_names(tree) if name not in read]
    assert not dead, "private names never read: " + ", ".join(dead)


# Each is slow to import and answers nothing a command prints: dataclasses
# (with inspect behind it), hashlib's OpenSSL binding, which graph_key
# loads only for a graph with more than 62 vertices, base64: the graph6
# codec calls binascii, which the interpreter loads at start-up, csv,
# which only the csv output of a command loads, and fractions with the
# decimal module it imports: no scan, gamma or thresholds command builds a
# rational, nor does check-vizing on factors that are not bipartite.
STARTUP_FREE = {"dataclasses", "inspect", "hashlib", "base64", "csv",
                "fractions", "decimal"}


def _modules_after(statement: str) -> set[str]:
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    code = f"import sys\n{statement}\nprint(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    return set(out.stdout.split())


def test_cli_import_adds_no_slow_modules():
    added = _modules_after("import domdensity.cli") - _modules_after("pass")
    assert "domdensity.cli" in added
    assert not added & STARTUP_FREE, sorted(added & STARTUP_FREE)


def test_check_vizing_on_odd_cycles_builds_no_rational(tmp_path):
    # Neither factor is bipartite, so no criterion runs, and the density
    # form is decided in integers.
    files = []
    for n in (5, 7):
        path = tmp_path / f"c{n}.edges"
        path.write_text("".join(f"{v} {(v + 1) % n}\n" for v in range(n)))
        files.append(str(path))
    run = f"from domdensity.cli import main\nassert main(['check-vizing', *{files!r}]) == 0"
    added = _modules_after(run) - _modules_after("import domdensity.cli")
    assert not added & {"fractions", "decimal"}, sorted(added & {"fractions", "decimal"})


def test_thresholds_builds_no_rational():
    # N(k) is decided in integers; the benchmark's start-up probe is
    # ``thresholds 3``.
    run = "from domdensity.cli import main\nassert main(['thresholds', '50']) == 0"
    added = _modules_after(run) - _modules_after("import domdensity.cli")
    assert not added & {"fractions", "decimal"}, sorted(added & {"fractions", "decimal"})


def test_cli_import_loads_every_module():
    # src holds only what a command reaches; test-only code lives in
    # tests/support.py.
    loaded = _modules_after("import domdensity.cli")
    missing = {f"domdensity.{m.removesuffix('.py')}" for m in MODULES} - loaded
    assert not missing, sorted(missing)


def test_package_root_binds_no_name():
    # Each name is imported from the module that defines it; the version
    # lives in pyproject.toml.
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert ast.get_docstring(tree)
    assert len(tree.body) == 1, [ast.dump(node)[:60] for node in tree.body[1:]]


# Public names that no code in src reads, each kept for a stated reason.
PUBLIC_WITHOUT_SRC_READER = {
    # methods of the package's own types that the tests' assertions read
    "Graph.has_edge", "Graph.edge_count", "Graph.edges",
    "BiadjacencyMatrix.to_text",
    # acceptance criterion 10 reads it
    "ObstructionReport.implication_holds",
    # ROADMAP item 8 gives it a CLI caller
    "finite_remainder",
}


def _public_definitions(tree: ast.Module):
    """(qualified name, bare name, node) for each public top-level function
    or class and each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def _reads(tree: ast.Module):
    """(name, node) for each Name or Attribute that loads a value."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node


def test_every_public_name_has_a_src_reader():
    trees = {m: ast.parse((PACKAGE / m).read_text(), filename=m)
             for m in MODULES}
    reads = {m: list(_reads(tree)) for m, tree in trees.items()}
    unread = []
    for module in MODULES:
        for qualified, name, node in _public_definitions(trees[module]):
            own = set(map(id, ast.walk(node)))
            method = qualified != name
            if not any(read == name and (m != module or id(at) not in own)
                       and (isinstance(at, ast.Attribute) or not method)
                       for m, pairs in reads.items() for read, at in pairs):
                unread.append(qualified)
    assert sorted(unread) == sorted(PUBLIC_WITHOUT_SRC_READER)
