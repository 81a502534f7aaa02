"""Qubit and two-qubit states.

Single-qubit states are Bloch vectors (all qubit variances are then exact
closed forms). A two-qubit state is given as a 4x4 density matrix (index
convention 2*i_A + i_B) and is read through its Bloch tensors (a, b, T),
rho = (I + a . sigma (x) I + I (x) b . sigma + sum_ij T_ij sigma_i (x) sigma_j)/4
(Horodecki & Horodecki, PRA 54, 1838, 1996). Both run on Python floats
and complex numbers, without numpy.
"""

from __future__ import annotations

from math import isfinite, sqrt

from .incompat import _plain, validate_directions
from .linalg3 import _ROWS, _dot, hermitian_psd_check


class _Record:
    """A frozen record without `dataclasses` (whose import is ~10% of a CLI
    run): construction by position only, one argument per name in `_fields`,
    then `__post_init__` if the class has one; `vars()`, equality, hashing
    and a dataclass repr."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *args):
        names = self._fields
        if len(args) != len(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        vars(self).update(zip(names, args))
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
        if isinstance(v, _ROWS) and len(v) == 3:  # the common case, unpacked
            x, y, z = v
            r = float(x), float(y), float(z)
        else:
            r = tuple(map(float, _plain(v)))
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"expected a 3-vector: {exc}") from None
    if len(r) != 3 or not (isfinite(r[0]) and isfinite(r[1]) and isfinite(r[2])):
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
        try:
            rho = tuple(tuple(map(complex, row)) for row in _plain(self.rho))
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
        r00, r01, r02, r03, r10, r11, r12, r13, r20, r21, r22, r23, r30, r31, r32, r33 = [z.real for row in rho for z in row]
        _, i01, i02, i03, i10, _, i12, i13, i20, i21, _, i23, i30, i31, i32, _ = [z.imag for row in rho for z in row]
        # each M[mu, nu] sums its four terms +-Re/Im rho[i][j] from 0.0 in rho's row-major order
        # (so a -0.0 term rounds as in a sum()); the golden Werner outputs pin these bits
        a = (0.0 + r02 + r13 + r20 + r31, 0.0 - i02 - i13 + i20 + i31, 0.0 + r00 + r11 - r22 - r33)
        b = (0.0 + r01 + r10 + r23 + r32, 0.0 - i01 + i10 - i23 + i32, 0.0 + r00 - r11 + r22 - r33)
        t = ((0.0 + r03 + r12 + r21 + r30, 0.0 - i03 + i12 - i21 + i30, 0.0 + r02 - r13 + r20 - r31),
             (0.0 - i03 - i12 + i21 + i30, 0.0 - r03 + r12 + r21 - r30, 0.0 - i02 + i13 + i20 - i31),
             (0.0 + r01 + r10 - r23 - r32, 0.0 - i01 + i10 + i23 - i32, 0.0 + r00 - r11 - r22 + r33))
        vars(self).update(rho=rho, a=a, b=b, T=t)


def uncertainty_sum(directions, state: QubitState) -> float:
    """Sum of variances of the spin observables n_i . sigma on the state,
    sum_i |n_i|^2 - (n_i . r)^2."""
    r, total = state.bloch, 0.0
    for n in validate_directions(directions):  # left to right from 0.0, as sum() added before 3.12
        total += _dot(n, n) - _dot(n, r) ** 2
    return total


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
