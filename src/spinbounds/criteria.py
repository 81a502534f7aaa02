"""Entanglement-witness and EPR-steering tests built on the variance bound.

Both read a two-qubit state only through its Bloch tensors (a, b, T)
(`states.TwoQubitState`), so every statistic is 3x3 real arithmetic.

A separable two-qubit state keeps the summed variance of the joint
observables S_n (x) I + I (x) S_m at or above the sum of the two local
bounds; going below certifies entanglement. Likewise, if Bob's statistics
admit a local-hidden-state model, Alice's summed inference variances
cannot undercut the bound for Bob's measured directions; going below
demonstrates EPR-steering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .incompat import incompatibility
from .linalg3 import as_vec3
from .states import TwoQubitState

_VIOLATION_SLACK = 1e-10  # exact saturation must not count as a violation
_BRANCH_EPS = 1e-12  # outcome probabilities below this are treated as absent


@dataclass(frozen=True)
class WitnessReport:
    variance_sum: float
    bound: float
    violated: bool
    margin: float  # bound - variance_sum; positive when violated


@dataclass(frozen=True)
class ConditionalBranch:
    outcome: int  # +1 or -1
    probability: float
    bob_bloch: np.ndarray


@dataclass(frozen=True)
class ConditionalDistribution:
    branches: tuple[ConditionalBranch, ...]


@dataclass(frozen=True)
class SteeringReport:
    inference_variances: tuple[float, ...]
    total: float
    bound: float
    violated: bool
    margin: float


def _unit(v, what: str) -> np.ndarray:
    v = as_vec3(v)
    if abs(np.dot(v, v) - 1.0) > 2e-9:
        raise ValueError(f"{what} direction must be unit length")
    return v


def entanglement_witness(
    state: TwoQubitState, alice_dirs, bob_dirs
) -> WitnessReport:
    """Test the separability bound on paired joint observables.

    variance_sum = sum_i Var(S_n_i (x) I + I (x) S_m_i), and each term is
    |n|^2 + |m|^2 + 2 n^T T m - (n . a + m . b)^2; the bound is the sum of
    the two local incompatibilities. Violation certifies entanglement;
    non-violation certifies nothing.
    """
    alice = [_unit(d, "alice") for d in alice_dirs]
    bob = [_unit(d, "bob") for d in bob_dirs]
    if len(alice) != len(bob):
        raise ValueError("alice and bob need the same number of directions")
    variance_sum = float(sum(
        n @ n + m @ m + 2.0 * (n @ state.T @ m) - (n @ state.a + m @ state.b) ** 2
        for n, m in zip(alice, bob)
    ))
    bound = incompatibility(alice).value + incompatibility(bob).value
    margin = bound - variance_sum
    return WitnessReport(
        variance_sum=variance_sum,
        bound=bound,
        violated=variance_sum < bound - _VIOLATION_SLACK,
        margin=margin,
    )


def conditional_stats(state: TwoQubitState, a_dir) -> ConditionalDistribution:
    """Born-rule statistics of Alice's +-1 outcome and Bob's conditional state.

    p(+-) = (1 +- a . n)/2 and Bob's conditional Bloch vector is
    r_B|+- = (b +- T^T n)/(2 p(+-)) (Cavalcanti et al., PRA 80, 032112,
    2009). Branches with negligible probability are omitted.
    """
    n = _unit(a_dir, "alice")
    mean_a = float(n @ state.a)
    steered = state.T.T @ n
    branches = []
    for outcome in (+1, -1):
        p = 0.5 * (1.0 + outcome * mean_a)
        if p < _BRANCH_EPS:
            continue
        branches.append(ConditionalBranch(outcome, p, (state.b + outcome * steered) / (2.0 * p)))
    return ConditionalDistribution(tuple(branches))


def inference_variance_min(state: TwoQubitState, a_dir, b_dir) -> float:
    """Minimal inference variance of Bob's spin along b_dir given Alice's outcome.

    Uses the conditional mean as estimator: sum_A p(A) (1 - <B>_A^2) with
    <B>_A = b . r_{B|A}; outcomes are +-1 so <B^2> = 1. Result lies in
    [0, 1].
    """
    b = _unit(b_dir, "bob")
    dist = conditional_stats(state, a_dir)
    total = 0.0
    for branch in dist.branches:
        mean = float(np.dot(b, branch.bob_bloch))
        total += branch.probability * (1.0 - mean * mean)
    return total


def steering_test(state: TwoQubitState, settings) -> SteeringReport:
    """EPR-steering test: summed inference variances vs the bound for Bob's
    measured directions.

    `settings` is a sequence of (alice_dir, bob_dir) pairs. Violation
    demonstrates steering (no local-hidden-state model for Bob).
    """
    settings = list(settings)
    if not settings:
        raise ValueError("need at least one measurement setting")
    variances = tuple(
        inference_variance_min(state, a, b) for a, b in settings
    )
    total = float(sum(variances))
    bound = incompatibility([b for _, b in settings]).value
    margin = bound - total
    return SteeringReport(
        inference_variances=variances,
        total=total,
        bound=bound,
        violated=total < bound - _VIOLATION_SLACK,
        margin=margin,
    )
