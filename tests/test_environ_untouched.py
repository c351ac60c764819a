"""No module under ``src/repro`` writes the process environment.

Settings travel as call parameters; a pool worker inherits its
parent's environment as it is.  The scan is static (``ast``), so it
covers code paths no other test executes.
"""

import ast
from pathlib import Path

import pytest

import repro

SOURCE_ROOT = Path(repro.__file__).parent

#: ``os.environ`` methods that change the mapping in place.
MUTATORS = frozenset({"update", "setdefault", "pop", "popitem", "clear"})

#: ``os`` functions that change the process environment.
ENV_FUNCTIONS = frozenset({"putenv", "unsetenv"})


def _is_environ(node: ast.AST) -> bool:
    """``os.environ``, or ``environ`` imported from ``os``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "environ"
    return isinstance(node, ast.Name) and node.id == "environ"


def _writes_environ(node: ast.AST) -> bool:
    """An item of ``os.environ`` or the name itself stored or deleted,
    a mutating method called on it, or ``putenv``/``unsetenv``."""
    if isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
        if isinstance(node, ast.Subscript):
            return _is_environ(node.value)
        return isinstance(node, ast.Attribute) and node.attr == "environ"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute):
            return func.attr in ENV_FUNCTIONS or (
                func.attr in MUTATORS and _is_environ(func.value))
        return isinstance(func, ast.Name) and func.id in ENV_FUNCTIONS
    return False


def environ_writes(tree: ast.AST) -> list[int]:
    """Line numbers of every statement that writes ``os.environ``."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if _writes_environ(node)})


@pytest.mark.parametrize("source", [
    'os.environ["REPRO_PROFILE"] = "quick"',
    'os.environ["REPRO_JOBS"] += "1"',
    'a, os.environ["X"] = 1, 2',
    'del os.environ["REPRO_CACHE"]',
    'os.environ.update(REPRO_CACHE="off")',
    'os.environ.setdefault("REPRO_PROFILE", "quick")',
    'os.environ.pop("REPRO_BACKEND", None)',
    'os.environ.clear()',
    'environ["X"] = "1"',
    'os.environ = {}',
    'os.putenv("X", "1")',
    'os.unsetenv("X")',
    'putenv("X", "1")',
    'for os.environ["X"] in ("1",): pass',
])
def test_scan_flags_every_kind_of_write(source):
    assert environ_writes(ast.parse(source)) == [1]


def test_scan_ignores_reads():
    source = ('x = os.environ.get("REPRO_CACHE", "")\n'
              'y = os.environ["REPRO_PROFILE"]\n'
              'z = "REPRO_JOBS" in os.environ\n'
              'env = dict(os.environ)\n'
              'env["X"] = "1"\n'
              'table[os.environ["X"]] = 1\n')
    assert environ_writes(ast.parse(source)) == []


def test_no_module_writes_os_environ():
    paths = sorted(SOURCE_ROOT.rglob("*.py"))
    assert paths
    found = {
        str(path.relative_to(SOURCE_ROOT)): lines
        for path in paths
        if (lines := environ_writes(ast.parse(path.read_text(),
                                              filename=str(path))))
    }
    assert found == {}
