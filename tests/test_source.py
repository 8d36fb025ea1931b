"""Whole-package checks: no assert-based invariants, no catch-all handlers,
every error maps to an exit code, the package namespace is lazy, every
demo runs, and the digest tool keeps its work dir to one run."""

import ast
import fcntl
import importlib
import importlib.util
import json
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


# the package's public names: 57 re-exports and the six layers they come from
PACKAGE_ALL = [
    "BigIntMatrix", "BranchSet", "ComplexPoly", "DirectionPoint", "DivisorBasis",
    "ExceptionalParam", "GenericityReport", "IntPoly", "OrbitLevel", "OrbitTree",
    "PhasePoint", "PlaneCurve", "ProjPoint", "PushforwardMatrix", "RootCluster",
    "ScratchPoint", "TangentData", "billiard_step", "blowup", "bracketed_largest_root",
    "char_poly", "check_invariance", "confinement_experiment_infinity_multi",
    "confinement_experiment_isotropic", "curve", "curve_from_affine", "curve_from_json",
    "curve_to_json", "degree_sequence", "direction_from_slope", "direction_point",
    "enumerate_scratch_points", "evaluate", "find_roots", "form_density", "genericity_report",
    "intersection_form", "isotropic_tangency_points", "jordan_structure_d2", "local_frame",
    "numerics", "orbit_tree", "phase", "phase_point", "phi", "points_at_infinity", "proj_point",
    "pushforward_b_hat", "pushforward_r_hat", "pushforward_s_hat", "real_billiard_step",
    "reflect", "reflect_at_infinity_limit", "reflect_at_isotropic_limit", "rho", "secant",
    "secant_at_infinity_limit", "secant_at_isotropic_limit", "spectral", "symplectic",
    "tangent_at", "verify_conjugation", "verify_factorization",
]

LAZY_PROBE = """
import importlib, json, sys, types

def loaded():
    return sorted(m for m in sys.modules if m.startswith("algbilliards."))

import algbilliards
bare = loaded()
import algbilliards.curve
with_curve = loaded()
star = {}
exec("from algbilliards import *", star)
wrong = []
for name in algbilliards.__all__:
    value = getattr(algbilliards, name)
    if isinstance(value, types.ModuleType):
        owner = sys.modules.get(f"algbilliards.{name}")
    else:
        owner = getattr(importlib.import_module(value.__module__), name)
    if value is not owner or star[name] is not value:
        wrong.append(name)
print(json.dumps({"bare": bare, "with_curve": with_curve, "all": algbilliards.__all__,
                  "dir": dir(algbilliards), "wrong": wrong}))
"""


def test_the_package_namespace_is_lazy():
    # a process that needs one layer pays only for it: `import algbilliards`
    # imports no layer, and a public name is imported on first access
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", LAZY_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["bare"] == []
    assert seen["with_curve"] == ["algbilliards.curve", "algbilliards.numerics"]
    assert seen["all"] == PACKAGE_ALL
    assert seen["dir"] == PACKAGE_ALL
    assert seen["wrong"] == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_output_digests_refuses_a_work_dir_in_use(tmp_path, monkeypatch, capsys):
    # two runs sharing a work dir would overwrite each other's curve file and
    # outputs, so a second run exits 1 before its first command
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import output_digests

    runs = []
    monkeypatch.setattr(output_digests, "digest", lambda *a, **k: runs.append(a) or "")
    with open(tmp_path / ".lock", "w") as held:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert output_digests.main(["--work", str(tmp_path), "--seeds"]) == 1
    assert runs == []
    (line,) = capsys.readouterr().err.splitlines()
    assert str(tmp_path) in line and "--work" in line
