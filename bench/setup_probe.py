"""One set-up of a workload in a fresh interpreter; prints the monotonic clock when ready.

    python3 bench/setup_probe.py <workload>

Ready means ``import algbilliards`` and, for the geometry workloads, every
curve the workload uses loaded and passed through the general-position
report.  The caller subtracts its own clock reading taken just before it
started this process (both read CLOCK_MONOTONIC).
"""

import os
import sys
import time
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import algbilliards  # noqa: E402
from algbilliards.curve import curve_from_json, genericity_report  # noqa: E402

from bench_jobs import CURVES, curve_path  # noqa: E402

if sys.argv[1] != "spectral-sweep":
    for name in CURVES:
        curve = curve_from_json((ROOT / curve_path(name)).read_text())
        if not genericity_report(curve).all_ok():
            sys.exit(f"{name} fails the general-position report")
print(time.monotonic_ns(), algbilliards.__file__)
