"""Print what importing the package costs a fresh interpreter: the median
import time of each target, then each target's five largest
``-X importtime`` self times.

    python3 tools/import_cost.py                          # this checkout
    python3 tools/import_cost.py --runs 25 --root ../parent

The targets are ``numpy`` (the floor every target pays), ``algbilliards``,
``algbilliards.curve`` and ``algbilliards.cli``, imported from
``<root>/src``.  Every run is a new interpreter with bytecode writing off
(``PYTHONDONTWRITEBYTECODE=1``), so every module of the package is compiled
from source as it is where no ``__pycache__`` can be written, and with one
BLAS thread, as in ``bench/setup_probe.py``.  A timed run reads the clock
just before and after its one import statement, so interpreter start-up is
not counted; the runs of all targets are interleaved, so drift in the host's
load reaches each target alike.  Self times are the median, over ``--runs``
separate ``-X importtime`` runs, of each module's self time (its compile
plus execution, without the modules it imports), counting only the modules
that the import statement loads.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

TARGETS = ("numpy", "algbilliards", "algbilliards.curve", "algbilliards.cli")
TOP = 5
TIMED = "import time\nt = time.perf_counter()\nimport {}\nprint(time.perf_counter() - t)"
MARK = "import statement"
# the modules that import after the mark are those of the import statement
# itself, not of interpreter start-up (site, .pth files)
MARKED = "import sys\nprint({!r}, file=sys.stderr, flush=True)\nimport {{}}".format(MARK)


def fresh(env: dict, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True, timeout=120)


def self_times(stderr: str) -> dict[str, int]:
    """Module -> self time in microseconds, from one ``-X importtime`` report
    of ``MARKED``, counting only the lines after the mark."""
    out = {}
    for line in stderr.partition(MARK)[2].splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            out[fields[2].strip()] = int(fields[0])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=15, help="fresh interpreters per target and kind (default 15)")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ is imported (default: this one)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    env = dict(os.environ, PYTHONPATH=str(args.root.resolve() / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    seconds: dict[str, list[float]] = defaultdict(list)
    selfs: dict[str, dict[str, list[int]]] = {target: defaultdict(list) for target in TARGETS}
    for _ in range(args.runs):
        for target in TARGETS:
            seconds[target].append(float(fresh(env, "-c", TIMED.format(target)).stdout))
            for module, us in self_times(fresh(env, "-X", "importtime", "-c", MARKED.format(target)).stderr).items():
                selfs[target][module].append(us)
    print(f"{args.runs} fresh interpreters per target, bytecode writing off, src {args.root.resolve() / 'src'}")
    for target in TARGETS:
        median = statistics.median(seconds[target])
        q1, _, q3 = statistics.quantiles(seconds[target], n=4) if args.runs > 1 else [median] * 3
        print(f"{target:<20s} median {median * 1e3:7.1f} ms  quartiles {q1 * 1e3:.1f}-{q3 * 1e3:.1f} ms")
    for target in TARGETS:
        top = sorted(((statistics.median(us), module) for module, us in selfs[target].items()), reverse=True)[:TOP]
        print(f"{target} self: " + ", ".join(f"{module} {us / 1e3:.1f}" for us, module in top) + " ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
