"""Constants and helpers that more than one test module uses, in one copy.

Imports no numpy: `random_unit` imports it when called, so the modules that
run without numpy can import this one (see README).
"""

import math

from spinbounds.criteria import steering_test

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
