"""Package hygiene: public names that exist and are used, short lines, no
unused imports, no new defaults."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import polyvem

SOURCES = sorted(Path(polyvem.__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
MODULES = sorted(f"polyvem.{info.name}" for info in pkgutil.iter_modules(polyvem.__path__))
MAX_COLUMNS = 101
MAX_DEFAULTS = 7


@pytest.mark.parametrize("name", MODULES)
def test_public_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_lines_fit(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [n for n, line in enumerate(lines, 1) if len(line) > MAX_COLUMNS]
    assert long == []


def _imported_names(tree):
    """(name, line) of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _public_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _public_names(tree)
    unused = [(line, name) for name, line in _imported_names(tree) if name not in used]
    assert unused == []


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_no_module_imports_warnings():
    """The package reports what it notes as data and log records, never as a
    Python warning, which a caller running with ``-W error`` would see fail."""
    importers = [path.stem for path in SOURCES
                 if "warnings" in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))]
    assert importers == []


def _loaded_names(path):
    """Every name a file reads, bare or as an attribute: not the statement
    that defines it, nor its entry in ``__all__``, which is a string."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_public_name_is_used():
    """A name in a module's ``__all__`` is read somewhere in the package or
    by the benchmark under ``perfbench/``: no public name serves only tests."""
    assert PERFBENCH, "perfbench/ not found next to tests/"
    used = {name for path in SOURCES + PERFBENCH for name in _loaded_names(path)}
    unused = [f"{path.stem}.{name}" for path in SOURCES
              for name in sorted(_public_names(ast.parse(path.read_text(encoding="utf-8"))))
              if name not in used]
    assert unused == []


def _defaults(tree):
    """(owner, line) of each default parameter value of every function and
    lambda, and of each field given a value in every dataclass."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            owner = getattr(node, "name", "lambda")
            values = node.args.defaults + [v for v in node.args.kw_defaults if v is not None]
            yield from ((owner, value.lineno) for value in values)
        elif isinstance(node, ast.ClassDef) and any(
            ast.unparse(deco).split("(")[0] == "dataclass" for deco in node.decorator_list
        ):
            yield from ((node.name, stmt.lineno) for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None)


def test_no_new_defaults():
    """Every default is a knob a caller can forget; the package holds at
    most MAX_DEFAULTS of them.  A failure lists each one it counted."""
    found = [f"{path.stem}.{owner} line {line}" for path in SOURCES
             for owner, line in _defaults(ast.parse(path.read_text(encoding="utf-8")))]
    assert len(found) <= MAX_DEFAULTS, "\n".join(found)


def test_cli_import_leaves_out_scipy_optimize():
    """Only the mesh quality report needs ``scipy.optimize``, which it loads
    itself: importing it with the CLI would raise every solve's peak memory."""
    src = Path(polyvem.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, polyvem.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout == "False\n"
