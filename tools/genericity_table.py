"""Print one line per degree d = 6..12: how many of eight random integer
curves pass ``genericity_report``, and the mean time of one report.

    python3 tools/genericity_table.py                    # this checkout
    python3 tools/genericity_table.py --root ../parent   # another checkout

The family is derandomized: curve (d, seed) for seeds 0..7 draws every
coefficient of the degree-d form uniformly from -5..5 with
``random.Random(seed)``, in the order of ``random_curve``, and replaces a
zero by 1.  Such a curve is generic, so every report should pass.  The
library is imported from ``<root>/src``.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

DEGREES = range(6, 13)
SEEDS = range(8)


def random_curve(d: int, seed: int):
    from algbilliards.curve import PlaneCurve  # from --root's src/, once main has put it on the path

    rng = random.Random(seed)
    coeffs = {}
    for i in range(d + 1):
        for j in range(d + 1 - i):
            coeffs[(i, j, d - i - j)] = rng.randint(-5, 5) or 1
    return PlaneCurve.from_coeffs(d, coeffs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ is imported (default: this one)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "src"))
    from algbilliards.curve import genericity_report

    for d in DEGREES:
        passed, seconds = 0, 0.0
        for seed in SEEDS:
            curve = random_curve(d, seed)
            started = time.perf_counter()
            passed += genericity_report(curve).all_ok()
            seconds += time.perf_counter() - started
        print(f"d={d:<2d} all_ok {passed}/{len(SEEDS)}  {1e3 * seconds / len(SEEDS):7.1f} ms/report")
    return 0


if __name__ == "__main__":
    sys.exit(main())
