"""Qubit and two-qubit states.

Single-qubit states are Bloch vectors (all qubit variances are then exact
closed forms). A two-qubit state is given as a 4x4 density matrix (index
convention 2*i_A + i_B) and is read through its Bloch tensors (a, b, T),
rho = (I + a . sigma (x) I + I (x) b . sigma + sum_ij T_ij sigma_i (x) sigma_j)/4
(Horodecki & Horodecki, PRA 54, 1838, 1996).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .incompat import validate_directions
from .linalg3 import as_vec3, hermitian_psd_check, pauli_matrices

_SX, _SY, _SZ = pauli_matrices()
_I2 = np.eye(2, dtype=complex)
# _PAULI_PAIRS[mu, nu] = sigma_mu (x) sigma_nu, with sigma_0 = I
_PAULI_PAIRS = np.array([[np.kron(p, q) for q in (_I2, _SX, _SY, _SZ)] for p in (_I2, _SX, _SY, _SZ)])


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
    """Two-qubit density matrix: 4x4, Hermitian, unit trace, PSD.

    Construction also computes the Bloch tensors from
    M[mu, nu] = tr(rho sigma_mu (x) sigma_nu): Alice's Bloch vector
    a = M[1:, 0], Bob's b = M[0, 1:] and the correlations T = M[1:, 1:].
    """

    rho: np.ndarray
    a: np.ndarray = field(init=False, repr=False)
    b: np.ndarray = field(init=False, repr=False)
    T: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError("two-qubit state must be a 4x4 matrix")
        psd = hermitian_psd_check(rho, 1e-9)  # tests Hermiticity first, at 1e-12
        if abs(np.trace(rho).real - 1.0) > 1e-10:
            raise ValueError(f"trace is {np.trace(rho).real:.12g}, expected 1")
        if not psd:
            raise ValueError("density matrix is not positive semidefinite")
        m = np.einsum("mnji,ij->mn", _PAULI_PAIRS, rho).real
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "a", m[1:, 0])
        object.__setattr__(self, "b", m[0, 1:])
        object.__setattr__(self, "T", m[1:, 1:])


def uncertainty_sum(directions, state: QubitState) -> float:
    """Sum of variances of the spin observables n_i . sigma on the state."""
    d = np.asarray(validate_directions(directions))
    return float(np.sum(d * d) - np.sum(np.square(d @ state.bloch)))


def singlet() -> TwoQubitState:
    """The two-qubit singlet |01> - |10> (normalized), as a density matrix."""
    return werner(1.0)


def werner(p: float) -> TwoQubitState:
    """Werner state p * singlet + (1 - p) * I/4."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Werner parameter must lie in [0, 1], got {p}")
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return TwoQubitState(p * np.outer(psi, psi) + (1.0 - p) * np.eye(4) / 4.0)


def product_state(r_a, r_b) -> TwoQubitState:
    """Product state rho(r_a) (x) rho(r_b) from two Bloch vectors."""
    rho_a = QubitState(r_a).density_matrix()
    rho_b = QubitState(r_b).density_matrix()
    return TwoQubitState(np.kron(rho_a, rho_b))
