"""Entanglement-witness and EPR-steering tests built on the variance bound.

Both read a two-qubit state only through its Bloch tensors (a, b, T)
(`states.TwoQubitState`), so every statistic is 3x3 real arithmetic on
Python floats.

A separable two-qubit state keeps the summed variance of the joint
observables S_n (x) I + I (x) S_m at or above the sum of the two local
bounds; going below certifies entanglement. Likewise, if Bob's statistics
admit a local-hidden-state model, Alice's summed inference variances
cannot undercut the bound for Bob's measured directions; going below
demonstrates EPR-steering.
"""

from __future__ import annotations

from .incompat import _UNIT_TOL, _certified_spectrum, _plain
from .states import TwoQubitState, as_vec3

_VIOLATION_SLACK = 1e-10  # exact saturation must not count as a violation
_BRANCH_EPS = 1e-12  # outcome probabilities below this are treated as absent


# `witness --json` and `steer --json` print a report's vars(), so each sets its attributes in parameter order
class WitnessReport:
    def __init__(self, variance_sum, bound, violated, margin):  # margin = bound - variance_sum
        self.variance_sum, self.bound, self.violated, self.margin = variance_sum, bound, violated, margin


class SteeringReport:
    def __init__(self, inference_variances, total, bound, violated, margin):
        self.inference_variances, self.total, self.bound, self.violated, self.margin = (
            inference_variances, total, bound, violated, margin)


def _unit(v, what: str) -> tuple[float, float, float]:
    x, y, z = v = as_vec3(v)
    if abs(x * x + y * y + z * z - 1.0) > _UNIT_TOL:
        raise ValueError(f"{what} direction must be unit length")
    return v


def _bound(units) -> float:
    """incompatibility(units).value, to the bit, for unit 3-tuples: A adds row by row from 0.0, as in moment_matrix."""
    xx = xy = xz = yy = yz = zz = 0.0
    for x, y, z in units:
        xx, xy, xz = xx + x * x, xy + x * y, xz + x * z
        yy, yz, zz = yy + y * y, yz + y * z, zz + z * z
    trace = xx + yy + zz
    return trace - _certified_spectrum(((xx, xy, xz), (xy, yy, yz), (xz, yz, zz)), trace)[0].lam_max


def entanglement_witness(state: TwoQubitState, alice_dirs, bob_dirs) -> WitnessReport:
    """Test the separability bound on paired joint observables.

    variance_sum = sum_i Var(S_n_i (x) I + I (x) S_m_i), and each term is
    |n|^2 + |m|^2 + 2 n^T T m - (n . a + m . b)^2; the bound is the sum of
    the two local incompatibilities, each a `_bound`. Violation certifies entanglement;
    non-violation certifies nothing. Bob's directions are read only when
    they are not the same object as Alice's, and bounded only when they differ.
    """
    alice = [_unit(d, "alice") for d in _plain(alice_dirs)]
    bob = alice if bob_dirs is alice_dirs else [_unit(d, "bob") for d in _plain(bob_dirs)]
    if len(alice) != len(bob):
        raise ValueError("alice and bob need the same number of directions")
    if not alice:
        raise ValueError("need at least one direction")
    (ax, ay, az), (bx, by, bz) = state.a, state.b
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = state.T
    variance_sum = 0.0  # sum()'s order before Python 3.12; each dot product adds x, y, z in turn
    for (nx, ny, nz), (mx, my, mz) in zip(alice, bob):
        tx, ty, tz = t00 * mx + t01 * my + t02 * mz, t10 * mx + t11 * my + t12 * mz, t20 * mx + t21 * my + t22 * mz
        norms = nx * nx + ny * ny + nz * nz + (mx * mx + my * my + mz * mz)
        mean = nx * ax + ny * ay + nz * az + (mx * bx + my * by + mz * bz)
        variance_sum += norms + 2.0 * (nx * tx + ny * ty + nz * tz) - mean**2
    alice_bound = _bound(alice)  # equal lists (0.0 == -0.0) add to one moment matrix: one bound, to the bit
    bound = alice_bound + (alice_bound if bob == alice else _bound(bob))
    return WitnessReport(variance_sum, bound, variance_sum < bound - _VIOLATION_SLACK, bound - variance_sum)


def _inference_variance(state: TwoQubitState, n, m) -> float:
    """sum_A p(A) (1 - (m . r_B|A)^2) for unit n (Alice) and m (Bob), on
    unpacked floats: p(+-) = (1 +- a . n)/2 and r_B|+- = (b +- T^T n)/(2 p(+-))
    (Cavalcanti et al., PRA 80, 032112, 2009); an outcome with p below
    _BRANCH_EPS adds nothing."""
    (nx, ny, nz), (mx, my, mz), (ax, ay, az), (bx, by, bz) = n, m, state.a, state.b
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = state.T
    mean_a = nx * ax + ny * ay + nz * az
    sx, sy, sz = t00 * nx + t10 * ny + t20 * nz, t01 * nx + t11 * ny + t21 * nz, t02 * nx + t12 * ny + t22 * nz
    total = 0.0
    for s in (1.0, -1.0):  # Alice's outcome; multiplying by -1.0 negates exactly
        p = 0.5 * (1.0 + s * mean_a)
        if p >= _BRANCH_EPS:
            q = 2.0 * p
            mean = mx * ((bx + s * sx) / q) + my * ((by + s * sy) / q) + mz * ((bz + s * sz) / q)
            total += p * (1.0 - mean * mean)
    return total


def steering_test(state: TwoQubitState, settings) -> SteeringReport:
    """EPR-steering test: summed inference variances vs the bound for Bob's
    measured directions.

    `settings` is a sequence of (alice_dir, bob_dir) pairs; `inference_variances[i]`
    is pair i's minimal inference variance of Bob's spin given Alice's outcome, in
    [0, 1]. Violation demonstrates steering (no local-hidden-state model for Bob).
    A pair whose two directions are one object is read once.
    """
    settings = list(_plain(settings))
    if not settings:
        raise ValueError("need at least one measurement setting")
    variances, bob, total = [], [], 0.0
    for a, b in settings:
        m = _unit(b, "bob")
        variance = _inference_variance(state, m if a is b else _unit(a, "alice"), m)
        total += variance  # left to right from 0.0, as sum() added before 3.12
        variances.append(variance)
        bob.append(m)
    bound = _bound(bob)
    return SteeringReport(tuple(variances), total, bound, total < bound - _VIOLATION_SLACK, bound - total)
