"""Whole-package checks: no assert-based invariants, no catch-all handlers,
and every demo runs."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "algbilliards").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_no_assert_in_library_code():
    # asserts vanish under python -O, so invariants must raise typed errors
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert MODULES
    assert found == []


def _catches_everything(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(
        isinstance(n, ast.Name) and n.id in ("Exception", "BaseException") for n in names
    )


def test_no_catch_all_handlers_in_library_code():
    # a catch-all hides programming errors as skipped branches or input errors
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ExceptHandler) and _catches_everything(node)
    ]
    assert found == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
