#!/usr/bin/env python3
"""spinbounds benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload direction_sets --seed 0 --seconds 10 --trace 0

Run it from a checkout of the repository; it imports the package from the
checkout's `src/` (nothing needs installing) and writes only under
`.bench_out/` in the checkout, besides Python's bytecode caches.
Workloads: direction_sets, angle_grid, two_qubit, cli (see workloads.py for
what each one stresses and why).

With `--trace 0` it times the untraced closed loop and reports the
end-to-end metrics; with `--trace 1` it alternates untraced and traced
stretches of the loop, half the time each, and reports the per-layer
metrics. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `attempted` counts the
distinct inputs the loop ran and `failed` those whose outcome the
independent reference rejects; `correct` is false when any op fails on an
input outside the domains with a documented defect (degenerate spectra and
scales below 1e-5 in direction_sets), i.e. when the program got worse.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("direction_sets", "angle_grid", "two_qubit", "cli")
# Every matrix here is 4x4 or smaller, so BLAS threads never help; one
# thread keeps the loop steady on a shared machine and never exceeds nproc.
BLAS_THREADS = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "spinbounds" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'spinbounds'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import harness  # imports numpy and the package, so only after the above

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, SRC)


if __name__ == "__main__":
    sys.exit(main())
