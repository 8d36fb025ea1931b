"""Print one line per curve and seed of ``form-check``: the exit code, the
worst plain and extrapolated residuals and the number of skipped jobs,
then the counts.

    python3 tools/form_check_sweep.py ellipse cubic quartic sextic --seeds 0-39   # every fixture
    python3 tools/form_check_sweep.py sextic --seeds 0-9 --samples 10 --h 1e-7    # near the step floor
    python3 tools/form_check_sweep.py cubic --seeds 0-9 --samples 100 --time --root ../parent

Each curve is a fixture name of ``tests/data`` or a path to a curve file.
Each run is ``form-check --curve <curve> --samples <samples> --seed <seed>
[--h <h>]`` through ``algbilliards.cli.main`` in-process, with the library
imported from ``<root>/src``.  ``plain`` is the largest ``residual_h`` of the
run's CSV, ``J*`` the largest ``residual_extrapolated`` (the gated one), and
``skipped`` the count from the run's last log line; ``-`` where the run wrote
no CSV or no such line.  With ``--time`` each line also gives the run's
in-process wall time (the ``cli.main`` call, output written), and a last
line their median and quartiles.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import re
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def worst(rows: list[dict], column: str) -> str:
    return f"{max(float(r[column]) for r in rows):.1e}" if rows else "-"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("curves", nargs="+", help="fixture names in tests/data, or curve files")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-39"),
                        help="inclusive seed range FIRST-LAST (default 0-39)")
    parser.add_argument("--samples", type=int, default=40)
    parser.add_argument("--h", help="the step (default: the command's)")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ is imported (default: this one)")
    parser.add_argument("--time", action="store_true", help="print each run's in-process wall time")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    from algbilliards.cli import main as cli_main

    exits: Counter = Counter()
    times = []
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "form.csv"
        for name in args.curves:
            curve = Path(name)
            if not curve.exists():
                curve = root / "tests" / "data" / f"{name}.json"
            for seed in args.seeds:
                out.unlink(missing_ok=True)
                run = ["form-check", "--curve", str(curve), "--samples", str(args.samples),
                       "--seed", str(seed), "--out", str(out)] + (["--h", args.h] if args.h else [])
                log = io.StringIO()
                with contextlib.redirect_stderr(log):
                    started = time.perf_counter()
                    code = cli_main(run)
                    times.append(time.perf_counter() - started)
                rows = list(csv.DictReader(out.open())) if out.exists() else []
                skipped = re.findall(r"; skipped (\d+)$", log.getvalue(), re.MULTILINE)
                exits[code] += 1
                timed = f"  {times[-1] * 1e3:.1f} ms" if args.time else ""
                print(f"{name} seed {seed:<4d} exit {code}  plain {worst(rows, 'residual_h')}  "
                      f"J* {worst(rows, 'residual_extrapolated')}  skipped {skipped[-1] if skipped else '-'}"
                      f"{timed}", flush=True)
    print(f"{len(times)} runs: " + ", ".join(f"exit {code} {n}" for code, n in sorted(exits.items())))
    if args.time:
        low, mid, high = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        print(f"wall time: median {mid * 1e3:.1f} ms, quartiles {low * 1e3:.1f}-{high * 1e3:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
