"""Spans around the calls into each layer of algbilliards, recorded from outside.

``Tracer.installed()`` rebinds the public functions of each layer in the
modules that call them (``phase.find_roots``, ``cli.orbit_tree``,
``PlaneCurve.restrict_to_line``, ...) to thin wrappers and restores the
originals on exit.  A wrapper costs two ``perf_counter_ns`` calls and one list
slot; spans stay in memory until ``write`` dumps them.

A span is ``(name, start_ns, end_ns, parent, job, raised, extra)``; its index
in ``Tracer.spans`` is its id and ``parent`` is -1 at the top.  ``extra`` is a
small value read from the result (a count or a flag) where a per-layer ratio
needs one.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path


def _clusters(result):
    return len(result), sum(rc.multiplicity > 1 for rc in result)


def _orbit_mass(tree):
    nodes = [n for level in tree.levels[1:] for n in level]
    terminated = sum(n.multiplicity for n in nodes if n.terminated_reason is not None)
    return terminated, sum(n.multiplicity for n in nodes)


def _ill(branch_set):
    return branch_set.ill_conditioned


def _count(result):
    return len(result)


def _one(_result):
    return 1


# (module, attribute, span name, extra) -- module "curve.PlaneCurve" means the
# class attribute.  Each function is wrapped where its callers look it up.
PATCHES = (
    # numerics
    ("spectral", "char_poly", "numerics.char_poly", None),
    ("numerics", "_primes_for_crt", "numerics.crt_primes", _count),
    ("numerics.BigIntMatrix", "__matmul__", "numerics.matmul", None),
    ("curve", "find_roots", "numerics.find_roots", _clusters),
    ("phase", "find_roots", "numerics.find_roots", _clusters),
    ("blowup", "find_roots", "numerics.find_roots", _clusters),
    ("sampling", "find_roots", "numerics.find_roots", _clusters),
    # curve
    ("curve.PlaneCurve", "restrict_to_line", "curve.restrict_to_line", None),
    ("curve.PlaneCurve", "form_value", "curve.form_value", None),
    ("curve.PlaneCurve", "gradient", "curve.gradient", None),
    ("curve", "tangent_at", "curve.tangent_at", None),
    ("phase", "tangent_at", "curve.tangent_at", None),
    ("blowup", "tangent_at", "curve.tangent_at", None),
    ("cli", "genericity_report", "curve.genericity_report", None),
    ("blowup", "genericity_report", "curve.genericity_report", None),
    # phase
    ("phase", "secant", "phase.secant", _ill),
    ("blowup", "secant", "phase.secant", _ill),
    ("phase", "reflect", "phase.reflect", _ill),
    ("blowup", "reflect", "phase.reflect", _ill),
    ("phase", "billiard_step", "phase.billiard_step", _ill),
    ("cli", "real_billiard_step", "phase.real_billiard_step", None),
    ("cli", "orbit_tree", "phase.orbit_tree", _orbit_mass),
    ("cli", "orbit_tree_jsonl", "phase.orbit_tree_jsonl", None),
    # blowup
    ("cli", "enumerate_scratch_points", "blowup.enumerate_scratch_points", None),
    ("cli", "confinement_experiment_isotropic", "blowup.confinement", None),
    ("cli", "confinement_experiment_infinity_multi", "blowup.confinement", None),
    # sampling
    ("cli", "sample_phase_points", "sampling.sample_phase_points", _count),
    ("cli", "sample_curve_points", "sampling.sample_curve_points", _count),
    ("cli", "sample_real_state", "sampling.sample_real_state", _one),
    # spectral
    ("spectral", "pushforward_b_hat", "spectral.pushforward_b_hat", None),
    ("cli", "verify_factorization", "spectral.verify_factorization", None),
    ("cli", "verify_conjugation", "spectral.verify_conjugation", None),
    ("cli", "rho", "spectral.rho", None),
    ("cli", "degree_sequence", "spectral.degree_sequence", None),
    # cli
    ("cli", "main", "cli.main", None),
)


def _resolve(owner: str):
    import importlib

    module, _, cls = owner.partition(".")
    target = importlib.import_module(f"algbilliards.{module}")
    return getattr(target, cls) if cls else target


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.job = None

    def wrap(self, name, fn, extra):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.job, True, None)
                raise
            end = clock()
            stack.pop()
            spans[sid] = (name, start, end, parent, self.job, False,
                          extra(result) if extra else None)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, extra in PATCHES:
                target = _resolve(owner)
                original = target.__dict__[attr]
                saved.append((target, attr, original))
                setattr(target, attr, self.wrap(name, original, extra))
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    def write(self, path: Path, jobs: dict):
        """One JSON object per span; ``job`` is the job's name."""
        with path.open("w") as fh:
            for sid, (name, start, end, parent, job, raised, _extra) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "job": jobs.get(job), "raised": raised,
                }) + "\n")


def _ratio(num: float, den: float) -> float:
    """A ratio whose base is empty (the layer did no such work) reads 0."""
    return num / den if den else 0.0


def layer_metrics(spans: list, jobs: dict, degrees, confine_stats) -> dict:
    """Per-layer numbers from one traced pass over a workload's job list.

    ``jobs`` maps job ids to Job objects, ``degrees`` lists the swept
    spectral degrees, ``confine_stats`` is (reports, passed) over the
    pass's confine outputs.
    """
    child_ns = defaultdict(int)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    raised = defaultdict(int)
    extras = defaultdict(list)
    by_degree = defaultdict(int)
    primes = defaultdict(int)
    for sid, (name, start, end, parent, job, err, extra) in enumerate(spans):
        own = end - start - child_ns[sid]
        calls[name] += 1
        self_ns[name] += own
        raised[name] += err
        if extra is not None:
            extras[name].append(extra)
        if name == "numerics.char_poly" and jobs[job].command == "spectral":
            by_degree[jobs[job].params["d"]] += own
        elif name == "numerics.crt_primes" and not err:
            primes[jobs[job].params["d"]] += extra

    def seconds(name):
        return self_ns[name] / 1e9

    clusters = extras["numerics.find_roots"]
    steps = [flag for n in ("phase.secant", "phase.reflect", "phase.billiard_step")
             for flag in extras[n]]
    mass = extras["phase.orbit_tree"]
    sampling = ("sampling.sample_phase_points", "sampling.sample_curve_points",
                "sampling.sample_real_state")
    sampled = sum(sum(extras[n]) for n in sampling)
    sampling_lines = 0
    for name, _s, _e, parent, *_ in spans:
        if name != "curve.restrict_to_line":
            continue
        while parent >= 0 and not spans[parent][0].startswith("sampling."):
            parent = spans[parent][3]
        sampling_lines += parent >= 0
    reports, passed = confine_stats

    m = {}
    for d in degrees:
        m[f"numerics.char_poly.self_s.d{d}"] = (by_degree[d] / 1e9, "s")
        m[f"numerics.crt_primes.d{d}"] = (primes[d], "count")
    m["numerics.matmul.calls"] = (calls["numerics.matmul"], "count")
    m["numerics.matmul.self_s"] = (seconds("numerics.matmul"), "s")
    m["numerics.find_roots.calls"] = (calls["numerics.find_roots"], "count")
    m["numerics.find_roots.self_s"] = (seconds("numerics.find_roots"), "s")
    m["numerics.find_roots.multi_ratio"] = (
        _ratio(sum(c[1] for c in clusters), sum(c[0] for c in clusters)), "ratio")
    m["numerics.find_roots.errors"] = (raised["numerics.find_roots"], "count")
    for name in ("restrict_to_line", "form_value", "gradient"):
        m[f"curve.{name}.calls"] = (calls[f"curve.{name}"], "count")
        m[f"curve.{name}.self_s"] = (seconds(f"curve.{name}"), "s")
    m["curve.tangent_at.self_s"] = (seconds("curve.tangent_at"), "s")
    m["curve.genericity_report.self_s"] = (seconds("curve.genericity_report"), "s")
    for name in ("secant", "reflect"):
        m[f"phase.{name}.calls"] = (calls[f"phase.{name}"], "count")
        m[f"phase.{name}.self_s"] = (seconds(f"phase.{name}"), "s")
    m["phase.billiard_step.self_s"] = (seconds("phase.billiard_step"), "s")
    m["phase.orbit_tree_jsonl.self_s"] = (seconds("phase.orbit_tree_jsonl"), "s")
    m["phase.terminated_ratio"] = (
        _ratio(sum(t for t, _ in mass), sum(n for _, n in mass)), "ratio")
    m["phase.ill_conditioned_ratio"] = (_ratio(sum(steps), len(steps)), "ratio")
    m["blowup.enumerate_scratch_points.self_s"] = (
        seconds("blowup.enumerate_scratch_points"), "s")
    m["blowup.confinement.calls"] = (calls["blowup.confinement"], "count")
    m["blowup.confinement.self_s"] = (seconds("blowup.confinement"), "s")
    m["blowup.confinement.pass_ratio"] = (_ratio(passed, reports), "ratio")
    m["sampling.self_s"] = (sum(seconds(n) for n in sampling), "s")
    m["sampling.accept_ratio"] = (_ratio(sampled, sampling_lines), "ratio")
    m["spectral.pushforward_b_hat.calls"] = (calls["spectral.pushforward_b_hat"], "count")
    m["spectral.pushforward_b_hat.self_s"] = (seconds("spectral.pushforward_b_hat"), "s")
    m["spectral.verify_conjugation.self_s"] = (seconds("spectral.verify_conjugation"), "s")
    m["spectral.rho.self_s"] = (seconds("spectral.rho"), "s")
    m["spectral.degree_sequence.self_s"] = (seconds("spectral.degree_sequence"), "s")
    m["cli.main.self_s"] = (seconds("cli.main"), "s")
    return m


def median_metrics(samples: list[dict]) -> dict:
    """Per-metric (low) median over traced passes, so counts stay whole."""
    return {
        name: (statistics.median_low(s[name][0] for s in samples), unit)
        for name, (_value, unit) in samples[0].items()
    }
