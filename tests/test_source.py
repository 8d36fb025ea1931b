"""Whole-package checks: no assert-based invariants, no catch-all handlers,
every error maps to an exit code, and every demo runs."""

import ast
import importlib
import importlib.util
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


def test_every_library_error_maps_to_an_exit_code():
    # cli.main reports a ValueError as exit 1 and VERIFICATION_ERRORS as exit 2;
    # anything else would escape as a traceback
    from algbilliards import cli

    mapped = (ValueError, *cli.VERIFICATION_ERRORS)
    modules = [importlib.import_module(f"algbilliards.{p.stem}") for p in MODULES
               if p.stem != "__init__"]
    errors = [
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, BaseException)
        and obj.__module__ == module.__name__
    ]
    assert errors
    assert [e.__qualname__ for e in errors if not issubclass(e, mapped)] == []


def test_no_generic_raises_in_library_code():
    # a bare RuntimeError or Exception has no place in the exit-code contract
    def raised_name(node: ast.Raise):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return exc.id if isinstance(exc, ast.Name) else None

    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Raise) and raised_name(node) in ("RuntimeError", "Exception")
    ]
    assert found == []


def test_one_function_reads_the_cluster_tolerance():
    # every root and point merge goes through one closeness test: a copy of it
    # elsewhere in src/, or an import of its tolerance, fails here
    readers, stray = set(), []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        reads = {n for n in ast.walk(tree) if isinstance(n, ast.Name)
                 and n.id == "CLUSTER_REL_TOL" and isinstance(n.ctx, ast.Load)}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and reads & set(ast.walk(func)):
                readers.add(f"{path.name}:{func.name}")
                reads -= set(ast.walk(func))
        stray += [f"{path.name}:{n.lineno}" for n in reads]  # read outside every function
        stray += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  and any(alias.name == "CLUSTER_REL_TOL" for alias in node.names)]
    assert readers == {"numerics.py:close_pairs"}
    assert stray == []


def test_every_traced_name_resolves():
    # bench/bench_trace.py wraps each (owner, attribute) where its callers look
    # it up; a refactor that drops one would fail only inside a traced run
    spec = importlib.util.spec_from_file_location("bench_trace", ROOT / "bench" / "bench_trace.py")
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    missing = [f"{owner}.{attr}" for owner, attr, _name, _extra in trace.PATCHES
               if attr not in vars(trace._resolve(owner))]
    assert trace.PATCHES
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
