"""Import hygiene of the package, checked by parsing its modules with ast
and by importing the CLI in a fresh interpreter."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fintopo"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(tree):
    """(bound name, imported name) of every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, alias.name


def _used_names(tree):
    """Names the module reads, counting the strings in __all__."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    tree = _parse(path)
    used = _used_names(tree)
    assert [name for name, _ in _imports(tree) if name not in used] == []


def test_cli_imports_no_private_names():
    tree = _parse(SRC / "cli.py")
    private = [
        name for _, name in _imports(tree)
        if name.rsplit(".", 1)[-1].startswith("_")
    ]
    assert private == []


def _references(tree):
    """Every name the module reads, as a name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
    for _, imported in _imports(tree):
        yield imported.rsplit(".", 1)[-1]


def test_no_unreferenced_private_definitions():
    # a module-level _name function or class that nothing in src/ or
    # tests/ reads is left over from code that has gone
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    referenced = set()
    for path in paths:
        referenced.update(_references(_parse(path)))
    unreferenced = [
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in _parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and node.name.startswith("_") and node.name not in referenced
    ]
    assert unreferenced == []


def test_src_imports_only_the_standard_library():
    # fintopo has no runtime dependency: every absolute import, nested
    # ones included, names fintopo or a standard-library module
    modules = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module)
    outside = {m.split(".")[0] for m in modules} - {"fintopo"}
    assert sorted(outside - sys.stdlib_module_names) == []


# modules no CLI process should load before it needs them: a map sweep
# takes a pool, the records are named tuples, and argparse (with its
# gettext and locale) reads only help and usage errors
_HEAVY = ("multiprocessing", "dataclasses", "inspect",
          "argparse", "gettext", "locale")


def _heavy(modules):
    return [m for m in modules if m.split(".")[0].lstrip("_") in _HEAVY]


def _modules_added(code):
    """The modules code prints, run in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": path},
    ).stdout.split()


def test_cli_import_loads_no_pool_or_dataclass_machinery():
    # every command starts a cold process
    added = _modules_added(
        "import sys; before = set(sys.modules); import fintopo.cli; "
        "print(*sorted(set(sys.modules) - before))")
    assert "fintopo.cli" in added
    assert _heavy(added) == []


def test_well_formed_call_loads_no_argument_parser():
    added = _modules_added(
        "import io, sys, contextlib; import fintopo.cli; "
        "before = set(sys.modules); out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = fintopo.cli.main(['enumerate', '--n', '0', "
        "'--count-only'])\n"
        "print(code, out.getvalue().strip(), "
        "*sorted(set(sys.modules) - before))")
    assert added[:2] == ["0", "1"]
    assert _heavy(added[2:]) == []


def test_every_class_table_member_has_a_reader():
    # a method or property of ClassTable that only tests read is a
    # second path the program no longer takes
    root = TESTS.parent
    paths = sorted(SRC.glob("*.py"))
    for folder in ("perfbench", "demos", "benchmarks"):
        paths += sorted((root / folder).glob("*.py"))
    read = {node.attr for path in paths for node in ast.walk(_parse(path))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    (body,) = [node.body for node in _parse(SRC / "setclasses.py").body
               if isinstance(node, ast.ClassDef) and node.name == "ClassTable"]
    members = [node.name for node in body
               if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("__")]
    assert len(members) > 15
    assert [name for name in members if name not in read] == []
