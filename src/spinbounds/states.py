"""Qubit and two-qubit states, spin observables, and variance evaluation.

Single-qubit states are Bloch vectors (all qubit variances are then exact
closed forms); two-qubit states are dense 4x4 density matrices with index
convention 2*i_A + i_B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .incompat import validate_directions
from .linalg3 import (
    as_vec3,
    hermitian_psd_check,
    is_hermitian,
    pauli_matrices,
    tensor_product,
)

_SX, _SY, _SZ = pauli_matrices()
_I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class PauliObservable:
    """Hermitian 2x2 observable a*I + b . sigma."""

    axis: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "axis", as_vec3(self.axis))
        if not np.isfinite(self.offset):
            raise ValueError("offset must be finite")


@dataclass(frozen=True)
class QubitState:
    """Qubit density matrix (I + r . sigma)/2, stored as the Bloch vector r."""

    bloch: np.ndarray

    def __post_init__(self):
        r = as_vec3(self.bloch)
        if np.dot(r, r) > 1.0 + 1e-12:
            raise ValueError(f"Bloch vector norm {np.linalg.norm(r):.12g} exceeds 1")
        object.__setattr__(self, "bloch", r)

    def density_matrix(self) -> np.ndarray:
        x, y, z = self.bloch
        return 0.5 * (_I2 + x * _SX + y * _SY + z * _SZ)


@dataclass(frozen=True)
class TwoQubitState:
    """Two-qubit density matrix: 4x4, Hermitian, unit trace, PSD."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError("two-qubit state must be a 4x4 matrix")
        if not is_hermitian(rho, 1e-12):
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-10:
            raise ValueError(f"trace is {np.trace(rho).real:.12g}, expected 1")
        if not hermitian_psd_check(rho, 1e-9):
            raise ValueError("density matrix is not positive semidefinite")
        object.__setattr__(self, "rho", rho)


def spin_matrix(b, a: float = 0.0) -> np.ndarray:
    """The 2x2 Hermitian matrix a*I + b . sigma."""
    bx, by, bz = as_vec3(b)
    return a * _I2 + bx * _SX + by * _SY + bz * _SZ


def qubit_variance(obs: PauliObservable, state: QubitState) -> float:
    """Variance of a*I + b . sigma on a Bloch-vector state: b^2 - (b . r)^2.

    Independent of the offset a.
    """
    b = obs.axis
    r = state.bloch
    return float(np.dot(b, b) - np.dot(b, r) ** 2)


def uncertainty_sum(directions, state: QubitState) -> float:
    """Sum of variances of the spin observables n_i . sigma on the state."""
    d = validate_directions(directions)
    return float(np.sum(d * d) - np.sum(np.square(d @ state.bloch)))


def robertson_bound(
    m1: PauliObservable, m2: PauliObservable, state: QubitState
) -> float:
    """State-dependent commutator bound |<[M1, M2]>|/2 = |(b1 x b2) . r|."""
    return float(abs(np.dot(np.cross(m1.axis, m2.axis), state.bloch)))


def operator_variance(m: np.ndarray, rho: np.ndarray) -> float:
    """Variance tr(M^2 rho) - tr(M rho)^2 of a Hermitian operator."""
    m = np.asarray(m, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if m.shape != rho.shape or m.ndim != 2:
        raise ValueError("operator and state dimensions do not match")
    mean = np.trace(m @ rho).real
    mean_sq = np.trace(m @ m @ rho).real
    return float(mean_sq - mean * mean)


def joint_observable(n, m) -> np.ndarray:
    """The 4x4 observable S_n (x) I + I (x) S_m."""
    return tensor_product(spin_matrix(n), _I2) + tensor_product(_I2, spin_matrix(m))


def singlet() -> TwoQubitState:
    """The two-qubit singlet |01> - |10> (normalized), as a density matrix."""
    psi = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    return TwoQubitState(np.outer(psi, psi.conj()))


def werner(p: float) -> TwoQubitState:
    """Werner state p * singlet + (1 - p) * I/4."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Werner parameter must lie in [0, 1], got {p}")
    return TwoQubitState(p * singlet().rho + (1.0 - p) * np.eye(4) / 4.0)


def product_state(r_a, r_b) -> TwoQubitState:
    """Product state rho(r_a) (x) rho(r_b) from two Bloch vectors."""
    rho_a = QubitState(r_a).density_matrix()
    rho_b = QubitState(r_b).density_matrix()
    return TwoQubitState(np.kron(rho_a, rho_b))


def pure_bloch(r) -> QubitState:
    """Pure qubit state from a unit Bloch vector."""
    r = as_vec3(r)
    if abs(np.dot(r, r) - 1.0) > 1e-10:
        raise ValueError("pure state requires a unit Bloch vector")
    return QubitState(r)
