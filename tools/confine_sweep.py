"""Print one line per seed of ``confine`` on one curve: the seed, the exit
code and the terms of ``ConfinementReport.passed`` that some report fails,
then the counts.

    python3 tools/confine_sweep.py quartic --seeds 1-150                  # this checkout
    python3 tools/confine_sweep.py sextic --seeds 1-15 --samples 2 --root ../parent
    python3 tools/confine_sweep.py cubic --seeds 1-30 --time              # with wall times

The curve is a fixture name of ``tests/data`` or a path to a curve file.
Each run is ``confine --curve <curve> --samples <samples> --seed <seed>``
through ``algbilliards.cli.main`` in-process, with the library imported
from ``<root>/src``.  The failing terms are read from the run's JSON
output: ``cauchy`` (``cauchy_ok`` false), ``final`` (``max_final_diff`` at
least 1e-3), ``pred`` (a report with a prediction whose
``max_prediction_error`` is at least ``PREDICTION_TOL``) and ``sep`` (a
report with several starts whose ``min_pairwise_limit_distance`` is at
most ``SEPARATION_TOL``).  With ``--time`` each line also gives the run's
in-process wall time (the ``cli.main`` call, output written), and a last
line their median and quartiles.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
import tempfile
from collections import Counter
from pathlib import Path

FINAL_TOL = 1e-3  # the bound on max_final_diff in ConfinementReport.passed
TERMS = ("cauchy", "final", "pred", "sep")


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def failing_terms(report: dict, prediction_tol: float, separation_tol: float) -> list[str]:
    """The terms of ``ConfinementReport.passed`` that one report fails."""
    terms = []
    if not report["cauchy_ok"]:
        terms.append("cauchy")
    if not report["max_final_diff"] < FINAL_TOL:
        terms.append("final")
    if any(report["predicted"]) and not report["max_prediction_error"] < prediction_tol:
        terms.append("pred")
    if len(report["limits"]) >= 2 and not report["min_pairwise_limit_distance"] > separation_tol:
        terms.append("sep")
    return terms


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("curve", help="fixture name in tests/data, or a curve file")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-30"),
                        help="inclusive seed range FIRST-LAST (default 1-30)")
    parser.add_argument("--samples", type=int, default=3)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ is imported (default: this one)")
    parser.add_argument("--time", action="store_true", help="print each run's in-process wall time")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    from algbilliards.blowup import PREDICTION_TOL, SEPARATION_TOL
    from algbilliards.cli import main as cli_main

    curve = Path(args.curve)
    if not curve.exists():
        curve = root / "tests" / "data" / f"{args.curve}.json"
    exits: Counter = Counter()
    failing: Counter = Counter()
    times = []
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "confine.json"
        for seed in args.seeds:
            out.unlink(missing_ok=True)
            with contextlib.redirect_stderr(io.StringIO()):
                started = time.perf_counter()
                code = cli_main(["confine", "--curve", str(curve), "--samples", str(args.samples),
                                 "--seed", str(seed), "--out", str(out)])
                times.append(time.perf_counter() - started)
            terms: set[str] = set()
            if out.exists():
                for report in json.loads(out.read_text())["reports"]:
                    terms.update(failing_terms(report, PREDICTION_TOL, SEPARATION_TOL))
            ordered = [t for t in TERMS if t in terms]
            exits[code] += 1
            failing.update(ordered)
            timed = f"  {times[-1] * 1e3:.1f} ms" if args.time else ""
            print(f"seed {seed:<4d} exit {code}  {' '.join(ordered) or '-'}{timed}", flush=True)
    print(f"{len(args.seeds)} runs: " + ", ".join(f"exit {code} {n}" for code, n in sorted(exits.items()))
          + "; failing " + (", ".join(f"{term} {failing[term]}" for term in TERMS if failing[term]) or "none"))
    if args.time:
        low, mid, high = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        print(f"wall time: median {mid * 1e3:.1f} ms, quartiles {low * 1e3:.1f}-{high * 1e3:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
