"""Qubit and two-qubit states.

Single-qubit states are Bloch vectors (all qubit variances are then exact
closed forms). A two-qubit state is given as a 4x4 density matrix (index
convention 2*i_A + i_B) and is read through its Bloch tensors (a, b, T),
rho = (I + a . sigma (x) I + I (x) b . sigma + sum_ij T_ij sigma_i (x) sigma_j)/4
(Horodecki & Horodecki, PRA 54, 1838, 1996). Both run on Python floats
and complex numbers, without numpy.
"""

from __future__ import annotations

import sys
from math import isfinite, sqrt
from operator import itemgetter

from .incompat import validate_directions
from .linalg3 import _dot, hermitian_psd_check

# Nonzero entries (row, column, value) of I, sigma_x, sigma_y, sigma_z.
_PAULI = (((0, 0, 1), (1, 1, 1)), ((0, 1, 1), (1, 0, 1)), ((0, 1, -1j), (1, 0, 1j)), ((0, 0, 1), (1, 1, -1)))
_PART = {1: 0, -1j: 1, -1: 2, 1j: 3}  # Re(v z) = (Re z, Im z, -Re z, -Im z)[_PART[v]]
# _BLOCH[4 mu + nu - 1] gathers the terms Re(v rho[i][j]) of tr(rho sigma_mu (x) sigma_nu),
# (mu, nu) != (0, 0), in rho's row-major order: numpy's einsum summed them so, and the
# Werner outputs keep their last bits.
_BLOCH = [
    itemgetter(*(16 * _PART[v] + 4 * i + j for i, j, v in sorted(
        (2 * c + d, 2 * r + s, u * w) for r, c, u in _PAULI[mu] for s, d, w in _PAULI[nu])))
    for mu in range(4) for nu in range(4)
][1:]


class _Record:
    """A frozen record without `dataclasses` (whose import is ~10% of a CLI
    run): construction by position or keyword in `_fields` order, then
    `__post_init__` if the class has one; `vars()`, equality, hashing and a
    dataclass repr."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) > len(names) or sorted(kwargs) != sorted(names[len(args):]):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        vars(self).update(zip(names, args), **kwargs)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"


def as_vec3(v) -> tuple[float, float, float]:
    """Coerce to a 3-tuple of finite Python floats."""
    try:
        r = tuple(map(float, v))
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"expected a 3-vector: {exc}") from None
    if len(r) != 3 or not all(map(isfinite, r)):
        raise ValueError(f"expected a 3-vector of finite components, got {r}")
    return r


def _bloch_vector(r) -> tuple[float, float, float]:
    r = as_vec3(r)
    if _dot(r, r) > 1.0 + 1e-12:
        raise ValueError(f"Bloch vector norm {sqrt(_dot(r, r)):.12g} exceeds 1")
    return r


class QubitState(_Record):
    """Qubit density matrix (I + r . sigma)/2, stored as the Bloch vector r
    (a 3-tuple of floats)."""

    _fields = ("bloch",)

    def __post_init__(self):
        vars(self)["bloch"] = _bloch_vector(self.bloch)


class TwoQubitState(_Record):
    """Two-qubit density matrix: 4x4, Hermitian, unit trace, PSD.

    `rho` is kept as rows of complex numbers. Construction also computes
    the Bloch tensors from M[mu, nu] = tr(rho sigma_mu (x) sigma_nu):
    Alice's Bloch vector a = M[1:, 0], Bob's b = M[0, 1:] (3-tuples) and
    the correlations T = M[1:, 1:] (rows of floats).
    """

    _fields = ("rho",)

    def __post_init__(self):
        rho = self.rho
        np = sys.modules.get("numpy")
        if np is not None and isinstance(rho, np.ndarray):
            rho = rho.tolist()  # ~20x faster than reading its scalars
        try:
            rho = tuple(tuple(map(complex, row)) for row in rho)
        except TypeError:
            rho = ()
        if len(rho) != 4 or any(len(row) != 4 for row in rho):
            raise ValueError("two-qubit state must be a 4x4 matrix")
        psd = hermitian_psd_check(rho, 1e-9)  # tests Hermiticity first, at 1e-12
        trace = (rho[0][0] + rho[1][1] + rho[2][2] + rho[3][3]).real
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"trace is {trace:.12g}, expected 1")
        if not psd:
            raise ValueError("density matrix is not positive semidefinite")
        re, im = [z.real for row in rho for z in row], [z.imag for row in rho for z in row]
        parts = re + im + [-x for x in re] + [-x for x in im]
        m = [sum(g(parts)) for g in _BLOCH]
        t = (tuple(m[4:7]), tuple(m[8:11]), tuple(m[12:15]))
        vars(self).update(rho=rho, a=tuple(m[3:12:4]), b=tuple(m[0:3]), T=t)


def uncertainty_sum(directions, state: QubitState) -> float:
    """Sum of variances of the spin observables n_i . sigma on the state,
    sum_i |n_i|^2 - (n_i . r)^2."""
    d, r = validate_directions(directions), state.bloch
    return sum(_dot(n, n) - _dot(n, r) ** 2 for n in (d.tolist() if hasattr(d, "tolist") else d))


def singlet() -> TwoQubitState:
    """The two-qubit singlet |01> - |10> (normalized), as a density matrix."""
    return werner(1.0)


def werner(p: float) -> TwoQubitState:
    """Werner state p * singlet + (1 - p) * I/4."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Werner parameter must lie in [0, 1], got {p}")
    psi = [x / sqrt(2.0) for x in (0.0, 1.0, -1.0, 0.0)]
    rows = [[p * (u * v) + (1.0 - p) * float(i == j) / 4.0 for j, v in enumerate(psi)] for i, u in enumerate(psi)]
    return TwoQubitState(rows)


def product_state(r_a, r_b) -> TwoQubitState:
    """Product state rho(r_a) (x) rho(r_b) from two Bloch vectors."""
    (xa, ya, za), (xb, yb, zb) = _bloch_vector(r_a), _bloch_vector(r_b)
    rho_a = ((0.5 * (1.0 + za), 0.5 * complex(xa, -ya)), (0.5 * complex(xa, ya), 0.5 * (1.0 - za)))
    rho_b = ((0.5 * (1.0 + zb), 0.5 * complex(xb, -yb)), (0.5 * complex(xb, yb), 0.5 * (1.0 - zb)))
    return TwoQubitState([[rho_a[i // 2][j // 2] * rho_b[i % 2][j % 2] for j in range(4)] for i in range(4)])
