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

from .incompat import incompatibility
from .states import TwoQubitState, _Record, _plain, as_vec3

_VIOLATION_SLACK = 1e-10  # exact saturation must not count as a violation
_BRANCH_EPS = 1e-12  # outcome probabilities below this are treated as absent


class WitnessReport(_Record):
    _fields = ("variance_sum", "bound", "violated", "margin")  # margin = bound - variance_sum


class SteeringReport(_Record):
    _fields = ("inference_variances", "total", "bound", "violated", "margin")


def _unit(v, what: str) -> tuple[float, float, float]:
    x, y, z = v = as_vec3(v)
    if abs(x * x + y * y + z * z - 1.0) > 2e-9:
        raise ValueError(f"{what} direction must be unit length")
    return v


def entanglement_witness(state: TwoQubitState, alice_dirs, bob_dirs) -> WitnessReport:
    """Test the separability bound on paired joint observables.

    variance_sum = sum_i Var(S_n_i (x) I + I (x) S_m_i), and each term is
    |n|^2 + |m|^2 + 2 n^T T m - (n . a + m . b)^2; the bound is the sum of
    the two local incompatibilities. Violation certifies entanglement;
    non-violation certifies nothing.
    """
    alice = [_unit(d, "alice") for d in _plain(alice_dirs)]
    bob = [_unit(d, "bob") for d in _plain(bob_dirs)]
    if len(alice) != len(bob):
        raise ValueError("alice and bob need the same number of directions")
    (ax, ay, az), (bx, by, bz) = state.a, state.b
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = state.T
    variance_sum = 0.0  # sum()'s order before Python 3.12; each dot product adds x, y, z in turn
    for (nx, ny, nz), (mx, my, mz) in zip(alice, bob):
        tx, ty, tz = t00 * mx + t01 * my + t02 * mz, t10 * mx + t11 * my + t12 * mz, t20 * mx + t21 * my + t22 * mz
        norms = nx * nx + ny * ny + nz * nz + (mx * mx + my * my + mz * mz)
        mean = nx * ax + ny * ay + nz * az + (mx * bx + my * by + mz * bz)
        variance_sum += norms + 2.0 * (nx * tx + ny * ty + nz * tz) - mean**2
    alice_bound = incompatibility(alice).value
    # lists that compare equal (0.0 == -0.0) give one moment matrix, whose sums start from 0: one bound, to the bit
    bound = alice_bound + (alice_bound if bob == alice else incompatibility(bob).value)
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
    p = 0.5 * (1.0 + mean_a)  # outcome +1
    if p >= _BRANCH_EPS:
        q = 2.0 * p
        mean = mx * ((bx + sx) / q) + my * ((by + sy) / q) + mz * ((bz + sz) / q)
        total += p * (1.0 - mean * mean)
    p = 0.5 * (1.0 - mean_a)  # outcome -1
    if p >= _BRANCH_EPS:
        q = 2.0 * p
        mean = mx * ((bx - sx) / q) + my * ((by - sy) / q) + mz * ((bz - sz) / q)
        total += p * (1.0 - mean * mean)
    return total


def inference_variance_min(state: TwoQubitState, a_dir, b_dir) -> float:
    """Minimal inference variance of Bob's spin along b_dir given Alice's outcome.

    Uses the conditional mean as estimator: sum_A p(A) (1 - <B>_A^2) with
    <B>_A = b . r_B|A, where Alice's outcome A = +-1 has probability
    p(+-) = (1 +- a . n)/2 and leaves Bob's Bloch vector at
    r_B|+- = (b +- T^T n)/(2 p(+-)) (Cavalcanti et al., PRA 80, 032112,
    2009); outcomes are +-1 so <B^2> = 1. Result lies in [0, 1].
    """
    m = _unit(b_dir, "bob")
    return _inference_variance(state, _unit(a_dir, "alice"), m)


def steering_test(state: TwoQubitState, settings) -> SteeringReport:
    """EPR-steering test: summed inference variances vs the bound for Bob's
    measured directions.

    `settings` is a sequence of (alice_dir, bob_dir) pairs. Violation
    demonstrates steering (no local-hidden-state model for Bob).
    """
    settings = list(_plain(settings))
    if not settings:
        raise ValueError("need at least one measurement setting")
    bob, variances, total = [], [], 0.0
    for a, b in settings:
        m = _unit(b, "bob")
        variance = _inference_variance(state, _unit(a, "alice"), m)
        total += variance  # left to right from 0.0, as sum() added before 3.12
        variances.append(variance)
        bob.append(m)
    bound = incompatibility(bob).value
    return SteeringReport(tuple(variances), total, bound, total < bound - _VIOLATION_SLACK, bound - total)
