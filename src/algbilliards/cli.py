"""Command-line interface: curve ingestion and experiment orchestration.

Subcommands
-----------
spectral    exact pushforward data for a degree: Phi_d, rho_d, certificates
orbit       billiard orbit tree (or real trajectory) from a seeded start
confine     confinement experiments at scratch points
form-check  invariant 2-form residuals over seeded samples
scratch     scratch-point census
genericity  general-position report for a curve

Exit codes: 0 on success, 1 on input or usage errors, 2 when a mathematical
verification fails.  Identical configuration and seed produce byte-identical
output files; the wall-time line goes to stderr so it cannot break that.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from collections import Counter
from itertools import islice
from json.encoder import encode_basestring_ascii

from . import __version__
from .blowup import (
    MIN_ISOTROPIC_STARTS,
    confinement_reports,
    enumerate_scratch_points,
    infinity_experiment,
    infinity_experiment_starts,
    isotropic_experiment,
    require_generic,
)
from .blowup import confinement_experiment_infinity_multi  # noqa: F401 -- unused; bench/bench_trace.py wraps it
from .blowup import confinement_experiment_isotropic  # noqa: F401 -- unused; bench/bench_trace.py wraps it
from .curve import MAX_SPECTRAL_DEGREE, CurveError, curve_from_json, genericity_report
from .numerics import NonConvergenceError
from .phase import (
    MAX_ORBIT_NODES,
    NoRealReturnError,
    OffCurveError,
    PhaseError,
    orbit_step_json,
    orbit_tree,
    orbit_tree_jsonl,
    real_billiard_step,
)
from .sampling import MAX_TRIES, phase_point_stream, sample_phase_points, sample_real_state
from .sampling import sample_curve_points  # noqa: F401 -- unused; bench/bench_trace.py wraps it
from .spectral import (
    MAX_SEQUENCE_INDEX,
    MatrixMismatchError,
    degree_sequence,
    phi,
    rho,
    rho_bracket,
    verify_conjugation,
    verify_factorization,
)
from .symplectic import MIN_STEP, SymplecticError, check_invariance

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFICATION = 2

# errors that mean a mathematical verification failed (exit 2); every other
# error the package raises is a ValueError (exit 1).  OffCurveError is a
# ValueError too, so main tests these first
VERIFICATION_ERRORS = (NonConvergenceError, MatrixMismatchError, ArithmeticError, OffCurveError)

JSON_INT_LIMIT = 2**53


def _json(obj, pad: str = "\n") -> str:
    """``obj`` exactly as ``json.dumps(obj, indent=2, sort_keys=True)`` writes
    it, except that integers of magnitude 2**53 or more become decimal
    strings; ``pad`` is the line break and indent of the level holding it."""
    if isinstance(obj, float) and math.isfinite(obj):
        return float.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        items = (f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + pad + "}" if obj else "{}"
    if isinstance(obj, (list, tuple)):
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in obj]) + pad + "]" if obj else "[]"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, int) and not isinstance(obj, bool):
        return int.__repr__(obj) if abs(obj) < JSON_INT_LIMIT else f'"{obj}"'
    return json.dumps(obj)  # None, booleans, NaN and infinities


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(args, fields: dict):
    """Write ``fields`` with the run's ``meta`` (version and configuration) as
    indented, key-sorted JSON to --out or stdout."""
    config = {k: v for k, v in vars(args).items() if k != "func"}
    payload = {"meta": {"version": __version__, "config": config}, **fields}
    _emit(_json(payload) + "\n", args.out)


def _write_csv(out_path: str | None, rows):
    """Write rows, the header first, as CSV to --out or stdout."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    _emit(buf.getvalue(), out_path)


def _log(message: str):
    print(message, file=sys.stderr)


def _error(message: str, code: int = EXIT_INPUT) -> int:
    """Report a refused or failed run as its one ``error:`` line; return the exit code."""
    _log(f"error: {message}")
    return code


def _load_curve(path: str):
    try:
        with open(path) as fh:
            return curve_from_json(fh.read())
    except OSError as exc:
        raise CurveError(f"cannot read curve file: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_spectral(args) -> int:
    if not 0 <= args.m_max <= MAX_SEQUENCE_INDEX:
        return _error(f"--m-max must be in 0..{MAX_SEQUENCE_INDEX}")
    d = args.d
    if args.curve:
        curve = _load_curve(args.curve)
        require_generic(curve)
        d = curve.degree
    if d is None or not 2 <= d <= MAX_SPECTRAL_DEGREE:
        return _error(f"spectral needs --d N with 2 <= N <= {MAX_SPECTRAL_DEGREE} (or a generic --curve)")

    fact_ok, _fact_cert = verify_factorization(d)
    conj_ok, _conj_cert = verify_conjugation(d)
    seq = degree_sequence(d, args.m_max)
    # the terms overflow float long before m_max = 200; int / int rounds the
    # exact quotient once, as float(Fraction) would
    ratios = [seq[i + 1] / seq[i] for i in range(len(seq) - 1)]
    payload = {
        "d": d,
        "phi_coeffs": list(phi(d).coeffs),
        "rho": rho(d),
        "bracket": list(rho_bracket(d)),
        "char_poly_verified": fact_ok,
        "conjugation_verified": conj_ok,
        "degree_sequence": seq,
        "ratios": ratios,
    }
    _write_json(args, payload)
    failed = [key for key in ("char_poly_verified", "conjugation_verified") if not payload[key]]
    return _error("failed certificate: " + ", ".join(failed), EXIT_VERIFICATION) if failed else EXIT_OK


def cmd_orbit(args) -> int:
    if args.depth < 0:
        return _error("--depth must be at least 0")
    if args.real and args.depth > MAX_ORBIT_NODES:  # one node per step
        return _error(f"--depth must be at most {MAX_ORBIT_NODES} with --real")
    curve = _load_curve(args.curve)
    require_generic(curve)
    if args.real:
        x = sample_real_state(curve, args.seed)
        lines = []
        escaped = None
        for step in range(args.depth):
            lines.append(orbit_step_json(step, x) + "\n")
            if step + 1 == args.depth:
                break
            try:
                x = real_billiard_step(curve, x)
            except NoRealReturnError:
                # the classical map is only partially defined: on unbounded
                # tables a ray may never re-meet the real curve
                escaped = step
                break
        _emit("".join(lines), args.out)
        if escaped is not None:
            _log(f"trajectory escaped after {escaped + 1} steps")
        else:
            _log(f"real trajectory of {args.depth} steps written")
        return EXIT_OK
    start = sample_phase_points(curve, 1, args.seed)[0]
    tree = orbit_tree(curve, start, args.depth)
    _emit("\n".join(orbit_tree_jsonl(tree)) + "\n", args.out)
    summary = ", ".join(
        f"level {k}: {tree.level_mass(k)}" for k in range(tree.depth + 1)
    )
    _log(f"orbit tree leaf counts with multiplicity: {summary}")
    ended = Counter(reason for level in tree.levels for reason in level.reason if reason is not None)
    _log("terminated: " + (", ".join(f"{r} {n}" for r, n in sorted(ended.items())) or "none"))
    return EXIT_OK


def cmd_confine(args) -> int:
    if not 1 <= args.samples <= MAX_TRIES:  # isotropic experiments build --samples directions up front
        return _error(f"--samples must be in 1..{MAX_TRIES}")
    eps_list = None
    if args.eps:
        try:
            eps_list = [float(v) for v in args.eps.split(",")]
        except ValueError:
            return _error("--eps expects comma-separated floats")
        # the Richardson step 2 f(eps / 2) - f(eps) cancels the O(eps) term
        # only on a halving schedule
        if len(eps_list) < 3 or not all(math.isfinite(e) and e > 0 for e in eps_list) or any(
            not abs(a / b - 2) <= 2e-12 for a, b in zip(eps_list, eps_list[1:])
        ):
            return _error("--eps must be at least 3 positive finite values, each half the one before")
    curve = _load_curve(args.curve)
    scratch = enumerate_scratch_points(curve)
    selected = scratch
    if args.scratch_index is not None:
        if not 0 <= args.scratch_index < len(scratch):
            return _error(f"scratch index out of range 0..{len(scratch) - 1}")
        selected = [scratch[args.scratch_index]]
    if args.samples < MIN_ISOTROPIC_STARTS and any(sp.kind != "infinity" for sp in selected):
        return _error(f"--samples must be at least {MIN_ISOTROPIC_STARTS} at isotropic scratch points")
    experiments = []
    for idx, sp in enumerate(selected):
        if sp.kind == "infinity":
            stream = islice(phase_point_stream(curve, args.seed + idx), 8 * args.samples)
            starts = infinity_experiment_starts(sp, (x.c for x in stream), args.samples)
            experiments.append(infinity_experiment(sp, starts))
        else:
            experiments.append(isotropic_experiment(sp, args.samples, args.seed + idx))
    reports = [{**rep.to_dict(), "passed": rep.passed()} for rep in confinement_reports(curve, experiments, eps_list)]
    all_ok = all(entry["passed"] for entry in reports)
    _write_json(args, {"reports": reports, "all_passed": all_ok})
    return EXIT_OK if all_ok else _error("a confinement report failed", EXIT_VERIFICATION)


def cmd_form_check(args) -> int:
    if not MIN_STEP <= args.h < math.inf:
        return _error(f"--h must be a finite step of at least {MIN_STEP!r}, below which the residual is rounding")
    if not 1 <= args.samples <= MAX_TRIES:  # each sampling try yields at most one state
        return _error(f"--samples must be in 1..{MAX_TRIES}")
    curve = _load_curve(args.curve)
    require_generic(curve)
    states = sample_phase_points(curve, args.samples, args.seed)
    rows = [["sample_id", "op", "h", "residual_h", "residual_h2", "order_estimate", "residual_extrapolated"]]
    worst = 0.0
    skipped = 0
    for i, x in enumerate(states):
        for (op, branch), r in check_invariance(curve, x, args.h).items():
            tag = op if op == "reflect" else f"{op}:{branch}"
            if isinstance(r, (SymplecticError, PhaseError)):
                skipped += 1
                _log(f"sample {i} {tag} skipped: {r}")
                continue
            if isinstance(r, Exception):
                raise r
            worst = max(worst, r.residual_extrapolated)
            rows.append([i, tag, *map(repr, (args.h, r.residual_h, r.residual_h2, r.order_estimate,
                                             r.residual_extrapolated))])
    _write_csv(args.out, rows)
    _log(f"max extrapolated residual {worst:.3e}; skipped {skipped}")
    if len(rows) == 1:  # the header alone
        return _error("no residual was measured: every job was skipped", EXIT_VERIFICATION)
    return EXIT_OK if worst < 1e-4 else _error("max extrapolated residual is not below 1e-4", EXIT_VERIFICATION)


def cmd_scratch(args) -> int:
    curve = _load_curve(args.curve)
    # the census raises GenericityFailureError unless the curve is generic
    points = enumerate_scratch_points(curve)
    expected = 2 * curve.degree**2
    if args.format == "csv":
        header = ["kind", "basic"] + [f"{v}{i}_{p}" for v in "cq" for i in range(3) for p in ("re", "im")]
        _write_csv(args.out, [header] + [
            [sp.kind, sp.basic] + [repr(v) for z in sp.phase.c.coords + sp.phase.q.q for v in (z.real, z.imag)]
            for sp in points])
    else:
        _write_json(args, {
            "count": len(points),
            "expected": expected,
            "genericity_ok": True,
            "scratch_points": [sp.describe() for sp in points],
        })
    if len(points) != expected:
        return _error(f"census mismatch: {len(points)} != {expected}", EXIT_VERIFICATION)
    return EXIT_OK


def cmd_genericity(args) -> int:
    curve = _load_curve(args.curve)
    report = genericity_report(curve)
    _write_json(args, {"report": report.to_dict(), "all_ok": report.all_ok()})
    return EXIT_OK if report.all_ok() else _error("curve fails genericity", EXIT_VERIFICATION)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="algbilliards",
        description="billiard correspondences on plane algebraic curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, curve_required=True):
        p.add_argument("--curve", help="path to a curve JSON file",
                       required=curve_required)
        p.add_argument("--seed", type=int, default=0, help="sampling seed")
        p.add_argument("--out", help="output file (defaults to stdout)")

    p = sub.add_parser("spectral", help="exact spectral data for a degree")
    p.add_argument("--d", type=int, help="curve degree (alternative to --curve)")
    p.add_argument("--m-max", dest="m_max", type=int, default=60)
    common(p, curve_required=False)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("orbit", help="billiard orbit tree or real trajectory")
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--real", action="store_true", help="classical real trajectory")
    common(p)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("confine", help="confinement experiments at scratch points")
    p.add_argument("--scratch-index", dest="scratch_index", type=int)
    p.add_argument("--samples", type=int, default=3)
    p.add_argument(
        "--eps",
        help="override the epsilon schedule (comma-separated floats, at least 3, each half the one before)",
    )
    common(p)
    p.set_defaults(func=cmd_confine)

    p = sub.add_parser("form-check", help="invariant 2-form residuals")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--h", type=float, default=1e-4)
    common(p)
    p.set_defaults(func=cmd_form_check)

    p = sub.add_parser("scratch", help="scratch-point census")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p)
    p.set_defaults(func=cmd_scratch)

    p = sub.add_parser("genericity", help="general-position report")
    common(p)
    p.set_defaults(func=cmd_genericity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    started = time.monotonic()
    try:
        code = args.func(args)
    except VERIFICATION_ERRORS as exc:
        code = _error(str(exc), EXIT_VERIFICATION)
    except ValueError as exc:
        code = _error(str(exc))
    _log(f"[{args.command}] version {__version__}, wall time {time.monotonic() - started:.3f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
