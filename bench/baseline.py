"""The ROADMAP baseline table, re-measured next to the traced per-layer
numbers so a reader can see where this machine and commit differ from it.

The ROADMAP figures were taken with `timeit` on a 2-core sandbox (Python
3.11.7, numpy 2.4.6). Each row here is timed the same way (best of five
repeats), untraced. In-process rows are scaled to the nominal host like the
timed loop (see calibration.py); subprocess rows stay wall times, like the
set-up probes. A row is flagged when it lies outside half
to twice the ROADMAP figure.
"""

from __future__ import annotations

import math
import subprocess
import sys
import timeit
from dataclasses import dataclass
from typing import Callable

import numpy as np
from spinbounds import criteria, incompat, linalg3, oracle, states

import calibration

XYZ = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
E4 = [(1.0, 0.0, 0.0), (0.5, math.sqrt(3) / 2, 0.0), (0.5, 0.5, 1 / math.sqrt(2)), (1 / math.sqrt(3),) * 3]
DIFFER_FACTOR = 2.0
TARGET_S = 0.02  # time one repeat for about this long
STRETCH_NS = 10**8  # about what one row takes, for sizing its calibration points


@dataclass(frozen=True)
class Row:
    label: str
    workloads: tuple
    roadmap_us: float
    call: Callable  # () -> None, or None for the subprocess rows


def _rows() -> list[Row]:
    a4, traces4 = incompat.moment_matrix(E4)
    n100 = np.random.default_rng(0).normal(size=(100, 3))
    w08 = states.werner(0.8)
    lib = ("direction_sets",)
    return [
        Row("lambda_max_from_traces (closed form)", lib + ("angle_grid",), 3.3, lambda: incompat.lambda_max_from_traces(traces4)),
        Row("moment_matrix(E4)", lib, 84.0, lambda: incompat.moment_matrix(E4)),
        Row("sym3_eigen_jacobi", lib + ("angle_grid",), 159.0, lambda: linalg3.sym3_eigen_jacobi(a4)),
        Row("optimal_bloch(E4)", lib, 256.0, lambda: incompat.optimal_bloch(E4)),
        Row("incompatibility(E4)", lib, 538.0, lambda: incompat.incompatibility(E4)),
        Row("incompatibility, N = 100", lib, 2790.0, lambda: incompat.incompatibility(n100)),
        Row("incompatibility_pair", lib, 21.0, lambda: incompat.incompatibility_pair(E4[0], E4[1])),
        Row("incompatibility_from_angles", ("angle_grid",), 201.0, lambda: incompat.incompatibility_from_angles(1.0, 1.2, 1.4)),
        Row("werner(0.8) construction", ("two_qubit",), 89.0, lambda: states.werner(0.8)),
        Row("entanglement_witness(werner, xyz, xyz)", ("two_qubit",), 967.0, lambda: criteria.entanglement_witness(w08, XYZ, XYZ)),
        Row("steering_test(werner, xyz settings)", ("two_qubit",), 915.0, lambda: criteria.steering_test(w08, [(d, d) for d in XYZ])),
        Row("sphere_grid_min(E4, 20000)", ("cli",), 4000.0, lambda: oracle.sphere_grid_min(E4, 20_000)),
        Row("CLI incompat --json (subprocess)", ("cli",), 162e3, None),
        Row("CLI table (subprocess)", ("cli",), 156e3, None),
        Row("CLI verify (subprocess)", ("cli",), 177e3, None),
        Row("python -c pass", ("cli",), 51e3, None),
        Row("python -c 'import numpy'", ("cli",), 136e3, None),
    ]


def _time_call(call: Callable) -> float:
    timer = timeit.Timer(call)
    t = timer.timeit(1)
    number = max(1, int(TARGET_S / max(t, 1e-7)))
    return min(timer.repeat(repeat=5, number=number)) / number * 1e6


def _time_argv(argv: list, env: dict, cwd) -> float:
    best = math.inf
    for _ in range(3):
        t0 = timeit.default_timer()
        subprocess.run(argv, env=env, cwd=cwd, capture_output=True, check=True, timeout=60)
        best = min(best, timeit.default_timer() - t0)
    return best * 1e6


def measure(workload: str, env: dict, cwd, dirs_file: str | None) -> list[dict]:
    """Rows related to `workload`, each with the ROADMAP figure, this run's
    figure and whether they differ by more than DIFFER_FACTOR."""
    py = [sys.executable]
    argv = {
        "CLI incompat --json (subprocess)": py + ["-m", "spinbounds", "incompat", "--angles", "pi/2", "pi/3", "pi/4", "--json"],
        "CLI table (subprocess)": py + ["-m", "spinbounds", "table"],
        "CLI verify (subprocess)": py + ["-m", "spinbounds", "verify", "--dirs", str(dirs_file), "--json"],
        "python -c pass": py + ["-c", "pass"],
        "python -c 'import numpy'": py + ["-c", "import numpy"],
    }
    out = []
    for row in _rows():
        if workload not in row.workloads:
            continue
        if row.call:
            before = calibration.point_s(STRETCH_NS)
            wall_us = _time_call(row.call)
            us = wall_us * calibration.LOOP.factor(before, calibration.point_s(STRETCH_NS))
        else:
            wall_us = us = _time_argv(argv[row.label], env, cwd)
        ratio = us / row.roadmap_us
        out.append({
            "row": row.label,
            "roadmap_us": row.roadmap_us,
            "measured_us": us,
            "measured_wall_us": wall_us,
            "ratio": ratio,
            "differs": not 1 / DIFFER_FACTOR <= ratio <= DIFFER_FACTOR,
        })
    return out
