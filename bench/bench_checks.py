"""Correctness checks on the CLI's --out files, made from outside the library.

The checks re-evaluate what they need from the curve JSON and the committed
spectral reference; none of them imports algbilliards.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "spectral_reference.json"
RHO_REL_TOL = 1e-12
GEOMETRY_TOL = 1e-7  # acceptance criterion 8: on-curve and on-conic residuals


def exact_digest(values) -> str:
    """sha256 of the decimal integers, so the digest ignores JSON big-int encoding."""
    return hashlib.sha256(",".join(str(int(v)) for v in values).encode()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)


class CurveForm:
    """The curve's homogeneous form, evaluated directly from its JSON file."""

    def __init__(self, path: Path):
        spec = json.loads(path.read_text())
        self.degree = spec["degree"]
        self.terms = [
            ((t["i"], t["j"], t["k"]),
             complex(float(Fraction(t.get("re", "0"))), float(Fraction(t.get("im", "0")))))
            for t in spec["coeffs"]
        ]
        self.scale = max(1.0, max(abs(a) for _, a in self.terms))

    def residual(self, c) -> float:
        x0, x1, x2 = c
        value = sum(a * x0**i * x1**j * x2**k for (i, j, k), a in self.terms)
        return abs(value) / self.scale


def conic_residual(q) -> float:
    q0, q1, q2 = q
    return abs(q0 * q0 + q1 * q1 - q2 * q2) / max(1.0, sum(abs(z) ** 2 for z in q))


def _point(pairs) -> tuple[complex, ...]:
    return tuple(complex(re, im) for re, im in pairs)


def _geometry(out: Outcome, form: CurveForm, nodes: list[dict]):
    worst_curve = max(form.residual(_point(n["c"])) for n in nodes)
    worst_conic = max(conic_residual(_point(n["q"])) for n in nodes)
    out.stats["worst_residual"] = worst_curve
    if worst_curve > GEOMETRY_TOL:
        out.problems.append(f"on-curve residual {worst_curve:.2e} > {GEOMETRY_TOL}")
    if worst_conic > GEOMETRY_TOL:
        out.problems.append(f"on-conic residual {worst_conic:.2e} > {GEOMETRY_TOL}")


def _check_spectral(out: Outcome, job, text: str, reference: dict):
    payload = json.loads(text)
    d = job.params["d"]
    ref = reference.get(str(d))
    if ref is None:
        out.problems.append(f"no committed reference for d = {d}")
        return
    if not (payload["char_poly_verified"] and payload["conjugation_verified"]):
        out.problems.append("certificate not verified")
    if payload["meta"]["config"]["m_max"] != ref["m_max"]:
        out.problems.append("degree sequence length differs from the reference's")
    if exact_digest(payload["phi_coeffs"]) != ref["phi_sha256"]:
        out.problems.append("phi_coeffs differ from the closed form")
    if exact_digest(payload["degree_sequence"]) != ref["degree_sequence_sha256"]:
        out.problems.append("degree_sequence differs from the closed-form recurrence")
    rho_ref = float(ref["rho"])
    if abs(payload["rho"] - rho_ref) > RHO_REL_TOL * rho_ref:
        out.problems.append(f"rho {payload['rho']!r} differs from {ref['rho']}")


def _check_tree(out: Outcome, job, nodes: list[dict], form: CurveForm):
    """Live mass at level k plus terminated mass carried forward is (d-1)^k."""
    branches = job.params["d"] - 1
    depth = job.params["depth"]
    live = [0] * (depth + 1)
    terminated = [0] * (depth + 1)
    for n in nodes:
        if n["level"] > depth:
            out.problems.append(f"node at level {n['level']} beyond depth {depth}")
            return
        bucket = terminated if "terminated_reason" in n else live
        bucket[n["level"]] += n["mult"]
    carried = 0
    for k in range(depth + 1):
        carried = carried * branches + terminated[k]
        if live[k] + carried != branches**k:
            out.problems.append(
                f"level {k}: live {live[k]} + terminated {carried} != {branches}^{k}"
            )
            break
    out.stats["nodes"] = len(nodes)
    _geometry(out, form, nodes)


def check_job(job, code: int, out_path: Path, stderr_text: str, root: Path,
              reference: dict) -> Outcome:
    out = Outcome()
    if code != 0:
        out.problems.append(f"exit code {code}: {stderr_text.strip()[-300:]}")
        return out
    text = out_path.read_text()
    if job.command == "spectral":
        _check_spectral(out, job, text, reference)
        return out
    form = CurveForm(root / job.argv[job.argv.index("--curve") + 1])
    if job.command == "orbit":
        nodes = [json.loads(line) for line in text.splitlines()]
        if job.params.get("real"):
            if len(nodes) != job.params["depth"]:
                out.problems.append(f"real trajectory has {len(nodes)} steps")
            _geometry(out, form, nodes)
        else:
            _check_tree(out, job, nodes, form)
    elif job.command == "genericity":
        if not json.loads(text)["all_ok"]:
            out.problems.append("genericity report not all_ok")
    elif job.command == "scratch":
        payload = json.loads(text)
        expected = 2 * form.degree**2
        if not payload["count"] == payload["expected"] == expected:
            out.problems.append(f"census {payload['count']} != 2d^2 = {expected}")
    elif job.command == "confine":
        payload = json.loads(text)
        passed = sum(bool(r["passed"]) for r in payload["reports"])
        if not payload["all_passed"]:
            out.problems.append(f"confinement passed {passed}/{len(payload['reports'])}")
    return out
