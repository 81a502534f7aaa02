"""Qubit and two-qubit states.

Single-qubit states are Bloch vectors, plain 3-tuples of floats. A two-qubit
state is given as a 4x4 density matrix (index convention 2*i_A + i_B) and is
read through its Bloch tensors (a, b, T),
rho = (I + a . sigma (x) I + I (x) b . sigma + sum_ij T_ij sigma_i (x) sigma_j)/4
(Horodecki & Horodecki, PRA 54, 1838, 1996). Both run on Python floats
and complex numbers, without numpy.
"""

from __future__ import annotations

from math import isfinite, sqrt

from .incompat import _ROWS, _dot, _float, _plain
from .linalg3 import hermitian_psd_check


def as_vec3(v) -> tuple[float, float, float]:
    """Coerce to a 3-tuple of finite Python floats; a complex component, a
    numpy one too, is rejected."""
    try:
        if not isinstance(v, _ROWS):
            v = _plain(v)  # an ndarray as a list, read once
        if isinstance(v, _ROWS) and len(v) == 3:  # the common case, unpacked
            x, y, z = v
            r = (x, y, z) if type(x) is float and type(y) is float and type(z) is float else (
                _float(x), _float(y), _float(z))
        else:
            r = tuple(map(_float, v))
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


def _bloch(rho):
    """(a, b, T) of rows of complex numbers: each M[mu, nu] sums its four terms +-Re/Im rho[i][j] from 0.0
    in rho's row-major order (a -0.0 term rounds as in a sum()); the golden Werner outputs pin these bits."""
    (z00, z01, z02, z03), (z10, z11, z12, z13), (z20, z21, z22, z23), (z30, z31, z32, z33) = rho
    r00, r01, r02, r03, i01, i02, i03 = z00.real, z01.real, z02.real, z03.real, z01.imag, z02.imag, z03.imag
    r10, r11, r12, r13, i10, i12, i13 = z10.real, z11.real, z12.real, z13.real, z10.imag, z12.imag, z13.imag
    r20, r21, r22, r23, i20, i21, i23 = z20.real, z21.real, z22.real, z23.real, z20.imag, z21.imag, z23.imag
    r30, r31, r32, r33, i30, i31, i32 = z30.real, z31.real, z32.real, z33.real, z30.imag, z31.imag, z32.imag
    a = (0.0 + r02 + r13 + r20 + r31, 0.0 - i02 - i13 + i20 + i31, 0.0 + r00 + r11 - r22 - r33)
    b = (0.0 + r01 + r10 + r23 + r32, 0.0 - i01 + i10 - i23 + i32, 0.0 + r00 - r11 + r22 - r33)
    t = ((0.0 + r03 + r12 + r21 + r30, 0.0 - i03 + i12 - i21 + i30, 0.0 + r02 - r13 + r20 - r31),
         (0.0 - i03 - i12 + i21 + i30, 0.0 - r03 + r12 + r21 - r30, 0.0 - i02 + i13 + i20 - i31),
         (0.0 + r01 + r10 - r23 - r32, 0.0 - i01 + i10 + i23 - i32, 0.0 + r00 - r11 - r22 + r33))
    return a, b, t


class TwoQubitState:
    """Two-qubit density matrix: 4x4, Hermitian, unit trace, PSD, with its Bloch tensors from
    M[mu, nu] = tr(rho sigma_mu (x) sigma_nu): Alice's Bloch vector a = M[1:, 0], Bob's b = M[0, 1:]
    (3-tuples) and the correlations T = M[1:, 1:] (rows of floats). `rho` is kept as rows of complex
    numbers, each converted once after `hermitian_psd_check` accepted it. `werner` and `product_state`
    are PSD by construction and skip the check; `tests/test_builders.py` rebuilds them through it.
    """

    def __init__(self, rho):
        try:
            rows = [row if isinstance(row, _ROWS) else tuple(_plain(row)) for row in _plain(rho)]
        except TypeError:
            rows = ()
        if len(rows) != 4 or not len(rows[0]) == len(rows[1]) == len(rows[2]) == len(rows[3]) == 4:
            raise ValueError("two-qubit state must be a 4x4 matrix")
        psd = hermitian_psd_check(rows)  # reads every entry, then tests Hermiticity first, at 1e-12
        rho = tuple([tuple(map(complex, row)) for row in rows])
        trace = (rho[0][0] + rho[1][1] + rho[2][2] + rho[3][3]).real
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"trace is {trace:.12g}, expected 1")
        if not psd:
            raise ValueError("density matrix is not positive semidefinite")
        self.rho, (self.a, self.b, self.T) = rho, _bloch(rho)

    @classmethod
    def _built(cls, rho, bloch):  # rows of complex numbers that form a density matrix, and their (a, b, T)
        state = object.__new__(cls)
        state.rho, (state.a, state.b, state.T) = rho, bloch
        return state


def singlet() -> TwoQubitState:
    """The two-qubit singlet |01> - |10> (normalized), as a density matrix."""
    return werner(1.0)


def werner(p: float) -> TwoQubitState:
    """Werner state p * singlet + (1 - p) * I/4, computed with p read as a Python float. It is PSD by
    construction and skips the density-matrix check; `tests/test_builders.py` rebuilds it through the check."""
    p = p if type(p) is float or type(p) is int else _float(p)  # an int compares exactly, one past a float's range too
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Werner parameter must lie in [0, 1], got {p}")
    # rho_ij = p * psi_i psi_j + (1 - p) * delta_ij / 4, psi = (0, s, -s, 0), as that formula rounds (zeros are +0.0,
    # x too at p = 0); (a, b, T) are _bloch's sums less their +0.0 terms, no bit changed: a sum from 0.0 is never -0.0
    s, q = 1.0 / sqrt(2.0), (1.0 - p) / 4.0
    d, x = p * (s * s) + q, p * (s * -s) + 0.0
    z, c, e, f, t = 0j, complex(q), complex(d), complex(x), 0.0 + x + x
    return TwoQubitState._built(((c, z, z, z), (z, e, f, z), (z, f, e, z), (z, z, z, c)), (
        (0.0, 0.0, 0.0 + q + d - d - q), (0.0, 0.0, 0.0 + q - d + d - q),
        ((t, 0.0, 0.0), (0.0, t, 0.0), (0.0, 0.0, 0.0 + q - d - d + q))))


def product_state(r_a, r_b) -> TwoQubitState:
    """Product state rho(r_a) (x) rho(r_b) from two Bloch vectors, PSD by construction: it skips the check."""
    (xa, ya, za), (xb, yb, zb) = _bloch_vector(r_a), _bloch_vector(r_b)
    a00, a01, a10, a11 = 0.5 * (1.0 + za), 0.5 * complex(xa, -ya), 0.5 * complex(xa, ya), 0.5 * (1.0 - za)
    b00, b01, b10, b11 = 0.5 * (1.0 + zb), 0.5 * complex(xb, -yb), 0.5 * complex(xb, yb), 0.5 * (1.0 - zb)
    rho = tuple([tuple(map(complex, row)) for row in (  # row 2 i + k, column 2 j + l holds a_ij b_kl
        (a00 * b00, a00 * b01, a01 * b00, a01 * b01),
        (a00 * b10, a00 * b11, a01 * b10, a01 * b11),
        (a10 * b00, a10 * b01, a11 * b00, a11 * b01),
        (a10 * b10, a10 * b11, a11 * b10, a11 * b11))])
    return TwoQubitState._built(rho, _bloch(rho))
