"""Host-speed calibration for the timed loop.

The sandboxes this benchmark runs in share their hosts, and a host's speed
can swing by a third or more over tens of seconds. On a 2-core sandbox, a
fixed pass of angle_grid ops was timed in 10-second windows. Its raw time
had an interquartile range of 29-37% of the median. The ratio of the same
pass to the loop below, run right after it, had an IQR of 1.8%. Both slow
down together, so the ratio measures the program and the loop measures the
host.

The timed loop takes a calibration point after about every 10 ms of ops,
and after every op that takes longer. It scales those ops' wall time by
NOMINAL_S over the mean of the two points on either side. The reported
figure is the time the ops would take on a host that runs the loop in
NOMINAL_S. The run's report file keeps the raw wall-clock figures too.

Over ten 20-second runs per workload, the spread of ops_per_s was 1.4-3.9%
scaled against 12-39% raw.

Child processes do not follow that loop: their time goes to exec, loading
shared libraries and reading files. A cli op's wall time swung between 180
and 280 ms across 10-second windows of one 100-second stretch, and its
ratio to a fresh `python -c "import numpy"` timed next to it stayed within
1.24-1.27; the ratio of a set-up probe to the numpy import timed inside
such a child stayed within 1.22-1.30. So the cli workload's loop is scaled
by that child's wall time (`child_calibrator`), and the set-up probes by
its import time (`child_s`). The cli baselines and the ROADMAP subprocess
rows stay wall times.
"""

from __future__ import annotations

import math
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

import numpy as np

REPS = 500
# Typical time of `loop_s()` on the reference machine: a 2-core sandbox
# with Python 3.11.7, numpy 2.4.6 and one BLAS thread.
NOMINAL_S = 0.001
# The same machine's `python -c "import numpy"` and the import alone
# (the ROADMAP baseline's 136 ms, less its 51 ms interpreter start).
NOMINAL_CHILD_S = 0.136
NOMINAL_IMPORT_S = 0.085
CHILD_ARGS = ("-c", "import time; t0 = time.perf_counter(); import numpy; print(repr(time.perf_counter() - t0))")
CHILD_TIMEOUT_S = 60

_M = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 3.0]])


def loop_s() -> float:
    """Seconds for a fixed mix of interpreter work and small numpy calls,
    the same kind of work the package does per op."""
    t0 = perf_counter_ns()
    acc = 0.0
    m = _M
    for i in range(REPS):
        b = m @ m
        acc += float(b[0, 0]) * 1e-3 + math.cos(i * 1e-3)
        if acc > 1e300:  # never taken; keeps the result live
            m = b
    return (perf_counter_ns() - t0) / 1e9


def point_s(stretch_ns: int) -> float:
    """Median of enough loops to cost about 5% of the stretch just timed
    (1 to 20 loops), so that long stretches get a steadier reading."""
    n = max(1, min(20, round(stretch_ns * 0.05 / 1e9 / NOMINAL_S)))
    return sorted(loop_s() for _ in range(n))[n // 2]


def child_s(env: dict, cwd) -> tuple[float, float]:
    """Wall seconds of a fresh interpreter that imports numpy, and the
    seconds the import took inside it."""
    t0 = perf_counter_ns()
    out = subprocess.run([sys.executable, *CHILD_ARGS], cwd=cwd, env=env, capture_output=True, text=True,
                         check=True, timeout=CHILD_TIMEOUT_S)
    return (perf_counter_ns() - t0) / 1e9, float(out.stdout.split()[-1])


@dataclass(frozen=True)
class Calibrator:
    """How the timed loop reads the host's speed: `point_s(stretch_ns)`
    after about every `chunk_ns` of ops, compared with `nominal_s`."""

    point_s: Callable[[int], float]
    nominal_s: float
    chunk_ns: int

    def factor(self, before: float, after: float) -> float:
        """Scale from wall time to nominal-host time for a stretch
        bracketed by two points."""
        return self.nominal_s / (0.5 * (before + after))


LOOP = Calibrator(point_s, NOMINAL_S, 10_000_000)


def child_calibrator(env: dict, cwd) -> Calibrator:
    """For loops whose ops are child processes: one child after about
    every half second of ops."""
    return Calibrator(lambda _stretch_ns: child_s(env, cwd)[0], NOMINAL_CHILD_S, 500_000_000)
