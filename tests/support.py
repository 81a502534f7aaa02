"""Constants and helpers that more than one test module uses, in one copy.

Imports no numpy: `random_unit` imports it when called, so the modules that
run without numpy can import this one (see README).
"""

import math

from spinbounds.criteria import steering_test
from spinbounds.linalg3 import HERMITIAN_TOL, PSD_TOL

HUGE = 10**400  # an int too large for a float
XYZ = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
XYZ_SETTINGS = [(d, d) for d in XYZ]
EXAMPLE4 = [  # the paper's four-direction example
    (1.0, 0.0, 0.0),
    (0.5, math.sqrt(3) / 2, 0.0),
    (0.5, 0.5, 1 / math.sqrt(2)),
    (1 / math.sqrt(3),) * 3,
]


def random_unit(rng):
    """A unit 3-vector from a numpy Generator."""
    import numpy as np

    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_set(rng, n, unit=False):
    dirs = [random_unit(rng) for _ in range(n)]
    if not unit:
        dirs = [d * rng.uniform(0.2, 2.0) for d in dirs]
    return dirs


def inference_variance(state, a, b):
    """Bob's minimal inference variance along `b` given Alice's outcome along `a`."""
    return steering_test(state, [(a, b)]).inference_variances[0]


def sum311(values):
    """sum() as CPython 3.11 adds floats: from 0, left to right."""
    total = 0
    for v in values:
        total += v
    return total


def dot(p, q):
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def matvec(b, x):
    return (dot(b[0], x), dot(b[1], x), dot(b[2], x))


def bits(x):
    """Every float in nested tuples, lists and reports, as hex: -0.0 and 0.0
    differ, nan matches."""
    if hasattr(x, "__dict__"):
        x = tuple(vars(x).values())
    if isinstance(x, (tuple, list)):
        return [h for y in x for h in bits(y)]
    return [repr(x)] if isinstance(x, bool) else [float.hex(x)]


def outcome(fn, *args):
    """The bits of fn(*args), or the type and message of what it raised."""
    try:
        return bits(fn(*args))
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def shift(m, delta):
    """Square rows m + delta I."""
    return [[z + delta if i == j else z for j, z in enumerate(row)] for i, row in enumerate(m)]


def reference_psd_check(m):
    """`hermitian_psd_check` as the n x n loop it was before it was written
    out for 4x4: the same tolerances and the same operations in the same order."""
    try:
        a = [list(map(complex, row)) for row in m]
    except TypeError:
        raise ValueError("expected a square matrix") from None
    n = len(a)
    if not n or any(len(row) != n for row in a):
        raise ValueError("expected a square matrix")
    if not all(abs(a[i][j] - a[j][i].conjugate()) <= HERMITIAN_TOL for i in range(n) for j in range(i, n)):
        raise ValueError("density matrix is not Hermitian")
    pivots, low = [], []  # low[i][k] = L[i][k] for k < i; L has a unit diagonal
    for i, a_row in enumerate(a):
        row, scaled = [], []  # row[k] = L[i][k] and scaled[k] = L[i][k] * pivots[k]
        for k in range(i):
            x = a_row[k]
            for q in range(k):
                x -= scaled[q] * low[k][q].conjugate()
            scaled.append(x)
            row.append(x / pivots[k])
        pivot = a_row[i].real + PSD_TOL
        for q in range(i):
            pivot -= (scaled[q] * row[q].conjugate()).real
        if not pivot > 0.0:
            return False
        pivots.append(pivot)
        low.append(row)
    return True
