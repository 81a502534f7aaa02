"""The one-pass front end against the code it replaced.

`moment_matrix` validates while it sums, `as_vec3` unpacks a plain 3-list,
`criteria._unit` checks the unit length on unpacked floats, and the witness
sums its terms in straight lines. The code they replaced is copied here as
the reference: `validate_directions` followed by `sum(map(mul, ...))`, the
`map`-based `as_vec3`, and the witness sum over `_dot` and `_matvec`. Every
float must keep its bits, signed zeros included, and every rejection its
exception type and message.

The reference sums with `sum311`, which adds as `sum()` does on CPython
3.11 (from 0, left to right); `sum()` compensates from 3.12 on. The
`direction_sets` and `two_qubit` pools come from the benchmark's own
generators in `bench/workloads.py`.
"""

import math
import sys
from itertools import chain
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbounds import criteria
from spinbounds.criteria import entanglement_witness, steering_test
from spinbounds.incompat import (
    CubicCoefficients,
    IncompatibilityResult,
    incompatibility,
    incompatibility_pair,
    moment_matrix,
)
from spinbounds.linalg3 import _dot, sym3_certificate, sym3_spectrum, sym3_traces
from spinbounds.states import QubitState, TwoQubitState, as_vec3, product_state, uncertainty_sum, werner

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

POOL_SEEDS = (7919, 41, 42)


def sum311(values):
    """sum() as CPython 3.11 adds floats."""
    total = 0
    for v in values:
        total += v
    return total


def reference_validate(directions):
    array = isinstance(directions, np.ndarray)
    if array and (directions.ndim != 2 or directions.dtype.kind not in "biuf"):
        directions, array = directions.tolist(), False
    if array:
        d = np.asarray(directions, dtype=float)
        shape = d.shape
    else:
        try:
            d = [tuple(map(float, row)) for row in directions]
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"expected N x 3 directions: {exc}") from None
        shape = (len(d), *sorted({len(row) for row in d}))
    if 0 in shape:
        raise ValueError("need at least one direction")
    if len(shape) != 2 or shape[1] != 3:
        raise ValueError(f"expected N x 3 directions, got shape {shape}")
    if array:
        finite, nonzero = np.isfinite(d).all(), np.count_nonzero(d.any(axis=1)) == len(d)
    else:
        finite, nonzero = all(map(math.isfinite, chain.from_iterable(d))), all(map(any, d))
    if not finite:
        raise ValueError("directions have non-finite components")
    if not nonzero:
        raise ValueError(f"direction {next(i for i, row in enumerate(d) if not any(row))} has zero length")
    return d


def reference_moment_matrix(directions):
    d = reference_validate(directions)
    if isinstance(d, list):
        x, y, z = zip(*d)
        xy, xz, yz = sum311(map(mul, x, y)), sum311(map(mul, x, z)), sum311(map(mul, y, z))
        a = ((sum311(map(mul, x, x)), xy, xz), (xy, sum311(map(mul, y, y)), yz), (xz, yz, sum311(map(mul, z, z))))
    else:
        a = (d.T @ d).tolist()
    return a, sym3_traces(a)


def reference_incompatibility(directions):
    a, traces = reference_moment_matrix(directions)
    spec = sym3_spectrum(a)
    vecs, bound = sym3_certificate(a, spec[:3])
    if not bound <= 1e-9 * traces[0]:
        raise ArithmeticError(f"closed-form eigenvalue {spec.lam_max!r} fails its residual certificate")
    x, y, z = vecs[0]
    sign = -1.0 if (x or y or z) < 0.0 else 1.0
    return IncompatibilityResult(
        value=traces[0] - spec.lam_max,
        lambda_max=spec.lam_max,
        optimizer=(sign * x + 0.0, sign * y + 0.0, sign * z + 0.0),
        coefficients=CubicCoefficients(spec.alpha, spec.beta),
        traces=traces,
    )


def reference_as_vec3(v):
    if isinstance(v, np.ndarray):
        v = v.tolist()
    try:
        r = tuple(map(float, v))
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"expected a 3-vector: {exc}") from None
    if len(r) != 3 or not all(map(math.isfinite, r)):
        raise ValueError(f"expected a 3-vector of finite components, got {r}")
    return r


def reference_unit(v, what):
    v = reference_as_vec3(v)
    if abs(_dot(v, v) - 1.0) > 2e-9:
        raise ValueError(f"{what} direction must be unit length")
    return v


def plain(x):
    return x.tolist() if isinstance(x, np.ndarray) else x


def _matvec(b, x):
    return (_dot(b[0], x), _dot(b[1], x), _dot(b[2], x))


def reference_witness(state, alice_dirs, bob_dirs):
    alice = [reference_unit(d, "alice") for d in plain(alice_dirs)]
    bob = [reference_unit(d, "bob") for d in plain(bob_dirs)]
    variance_sum = sum311(
        _dot(n, n) + _dot(m, m) + 2.0 * _dot(n, _matvec(state.T, m)) - (_dot(n, state.a) + _dot(m, state.b)) ** 2
        for n, m in zip(alice, bob)
    )
    bound = reference_incompatibility(alice).value + reference_incompatibility(bob).value
    return variance_sum, bound, variance_sum < bound - 1e-10, bound - variance_sum


def reference_steering(state, settings):
    bob, variances = [], []
    for a, b in plain(settings):
        m = reference_unit(b, "bob")
        variances.append(criteria._inference_variance(state, reference_unit(a, "alice"), m))
        bob.append(m)
    total = sum(variances)
    bound = reference_incompatibility(bob).value
    return tuple(variances), total, bound, total < bound - 1e-10, bound - total


def bits(x):
    """Every float in nested tuples, lists and reports, as hex: -0.0 and 0.0 differ."""
    if hasattr(x, "_fields") and not isinstance(x, tuple):
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


def assert_same_bound(directions):
    assert outcome(moment_matrix, directions) == outcome(reference_moment_matrix, directions)
    assert outcome(incompatibility, directions) == outcome(reference_incompatibility, directions)


def forms(d):
    """A direction set as an ndarray, rows of lists, rows of tuples and rows of 1-D arrays."""
    d = np.asarray(d, dtype=float)
    return d, d.tolist(), [tuple(row) for row in d.tolist()], list(d)


# --- bit identity


@pytest.mark.parametrize("seed", POOL_SEEDS)
def test_direction_sets_pool_is_bit_identical(seed):
    for item in workloads.direction_sets(seed).passes[0]:
        for directions in forms(item.args[0]):
            assert_same_bound(directions)


def signed_zero_sets(rng, count):
    """Sets of 1-6 directions scaled by 10^k, k in [-150, 150]; each component
    is zeroed with chance 1/3, as 0.0 or -0.0 with the sign of the draw."""
    for _ in range(count):
        d = rng.normal(size=(int(rng.integers(1, 7)), 3))
        d = np.where(rng.uniform(size=d.shape) < 1.0 / 3.0, np.copysign(0.0, d), d)
        d = d[d.any(axis=1)]
        if len(d):
            yield d * 10.0 ** rng.uniform(-150.0, 150.0)


def test_scaled_sets_with_signed_zeros_are_bit_identical():
    rng = np.random.default_rng(15)
    for d in signed_zero_sets(rng, 1500):
        for directions in forms(d):
            assert_same_bound(directions)


def test_signed_zero_columns_keep_their_zero():
    # a column of zeros whose products are all -0.0: the sums start from 0.0,
    # so A keeps +0.0 there, as sum() gave
    for d in ([(-0.0, 1.0, 0.0), (0.0, -2.0, -0.0)], [(1.0, -0.0, 0.0)], [(0.0, 1.0, -0.0), (-0.0, 0.0, 3.0)]):
        a, _ = moment_matrix(d)
        assert bits(a) == bits(reference_moment_matrix(d)[0])
        assert all(math.copysign(1.0, x) == 1.0 for row in a for x in row if x == 0.0)


def two_qubit_state(kind, params):
    if kind == "werner":
        return werner(params)
    if kind == "product":
        return product_state(*params)
    return TwoQubitState(params)


@pytest.mark.parametrize("seed", POOL_SEEDS)
def test_every_two_qubit_input_is_bit_identical(seed):
    for item in workloads.two_qubit(seed).passes[0]:
        kind, params, alice, settings = item.args
        state = two_qubit_state(kind, params)
        assert bits(entanglement_witness(state, alice, alice)) == bits(reference_witness(state, alice, alice))
        assert bits(steering_test(state, settings)) == bits(reference_steering(state, settings))
        for directions in forms(alice):
            assert_same_bound(directions)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    k=st.floats(-150.0, 150.0),
    zero_share=st.sampled_from((0.0, 0.3, 0.6)),
    form=st.integers(0, 3),
)
def test_bound_is_bit_identical(seed, n, k, zero_share, form):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(n, 3))
    d = np.where(rng.uniform(size=d.shape) < zero_share, np.copysign(0.0, d), d) * 10.0**k
    assert_same_bound(forms(d)[form])


def unit_rows(rng, n, zero_share):
    """n unit rows as lists; components zeroed as in signed_zero_sets, and a
    row zeroed whole replaced by (0.0, -0.0, -1.0)."""
    d = rng.normal(size=(n, 3))
    d = np.where(rng.uniform(size=d.shape) < zero_share, np.copysign(0.0, d), d)
    d[~d.any(axis=1)] = (0.0, -0.0, -1.0)
    return (d / np.linalg.norm(d, axis=1, keepdims=True)).tolist()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(("werner", "product", "mixed")),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    zero_share=st.sampled_from((0.0, 0.4)),
)
def test_witness_and_steering_are_bit_identical(kind, seed, n, zero_share):
    rng = np.random.default_rng(seed)
    if kind == "werner":
        state = werner(float(rng.uniform()))
    elif kind == "product":
        state = product_state(*(np.array(unit_rows(rng, 1, 0.0)[0]) * rng.uniform() for _ in range(2)))
    else:
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        state = TwoQubitState(rho / np.trace(rho).real)
    alice = unit_rows(rng, n, zero_share)
    bob = unit_rows(rng, len(alice), zero_share)
    for b in (alice, bob, np.array(bob)):
        assert bits(entanglement_witness(state, alice, b)) == bits(reference_witness(state, alice, b))
    pairs = list(zip(alice, bob))
    assert bits(steering_test(state, pairs)) == bits(reference_steering(state, pairs))


# --- the same rejections


def rejected_sets():
    rows = [[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.0, 0.6, 0.8]]
    for i in range(3):
        yield f"zero-row-{i}", [[0.0] * 3 if j == i else r for j, r in enumerate(rows)]
    yield "zero-row-before-nan", [rows[0], [0.0, 0.0, 0.0], [math.nan, 0.0, 1.0]]
    for bad in (math.nan, math.inf, -math.inf):
        for col in range(3):
            yield f"{bad}-in-column-{col}", [rows[0], [bad if c == col else x for c, x in enumerate(rows[1])], rows[2]]
    yield "int-too-large", [rows[0], [10**400, 0, 0]]
    yield "string", [rows[0], ["abc", 0, 0]]
    yield "length-2", [r[:2] for r in rows]
    yield "length-4", [r + [1.0] for r in rows]
    yield "ragged", [rows[0], rows[1][:2], rows[2] + [1.0]]
    yield "empty", []
    units = np.random.default_rng(3).normal(size=(3, 3))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    for scale in (1e52, 1e152, 1e200):
        yield f"overflow-{scale:g}", (units * scale).tolist()


def input_forms(rows):
    yield "list", lambda: rows
    yield "tuple", lambda: tuple(map(tuple, rows))
    yield "generator", lambda: (row for row in rows)
    array = np.array(rows, dtype=object if len({len(r) for r in rows}) > 1 else None)
    yield "ndarray", lambda: array
    if not rows:
        yield "shape-(0,3)", lambda: np.zeros((0, 3))


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul")  # the reference's D^T D at 1e200
@pytest.mark.parametrize(
    "make", [pytest.param(make, id=f"{name}-{form}") for name, rows in rejected_sets() for form, make in input_forms(rows)]
)
def test_rejections_keep_their_type_and_message(make):
    for fn, reference in ((moment_matrix, reference_moment_matrix), (incompatibility, reference_incompatibility)):
        with pytest.raises(ValueError) as got:
            fn(make())
        with pytest.raises(ValueError) as expected:
            reference(make())
        assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))


def test_not_iterable_and_a_generator_of_bad_rows_keep_their_message():
    def bad_rows():
        yield (1.0, 0.0, 0.0)
        raise TypeError("no more rows")

    for make in (lambda: None, lambda: 5, bad_rows, lambda: "abc", lambda: iter([(1, 0, 0), (0, 0, 0)])):
        for fn, reference in ((moment_matrix, reference_moment_matrix), (incompatibility, reference_incompatibility)):
            with pytest.raises(ValueError) as got:
                fn(make())
            with pytest.raises(ValueError) as expected:
                reference(make())
            assert str(got.value) == str(expected.value)


VECTORS = [
    [1.0, 2.0], [1.0, 2.0, 3.0, 4.0], (1, 2), "abc", "12", "123", None, 5, [math.nan, 0.0, 0.0],
    [0.0, math.inf, 0.0], (0.0, 0.0, -math.inf), [10**400, 0, 0], (0, 0, 10**400),
    [np.float64(0.5), np.int64(2), np.float32(0.25)], [np.True_, 0, 0], np.float64(1.0),
    [1 + 1j, 0, 0], (0, 0, 1j), np.array([1 + 1j, 0, 0]), np.array([0.5, 0.25, -0.0]), np.array([1, 2]),
    [[1.0], [2.0], [3.0]], ["1", "2", "3"], [True, False, 0], range(3), {0: 1, 2: 3, 1: 5},
    [0.6, 0.8, 0.0], (-0.0, 1.0, 0.0), [0.0, 0.6, -0.8], (-0.0, 0.0, -0.0), [1.0, -0.0, -0.0], [3, 4, 12], [1e308, 1e308, 0.0],
]


@pytest.mark.parametrize("v", VECTORS, ids=range(len(VECTORS)))
def test_as_vec3_and_unit_keep_their_results_and_rejections(v):
    assert outcome(as_vec3, v) == outcome(reference_as_vec3, v)
    assert outcome(criteria._unit, v, "bob") == outcome(reference_unit, v, "bob")


# --- complex 1-D array rows in a list


def test_complex_array_rows_raise_the_lists_message():
    # each row was cast to float with a ComplexWarning, which dropped the
    # imaginary part: the bound came out 1.0
    rows = [np.array([1 + 1j, 0, 0]), np.array([0.0, 1, 0])]
    expected = "expected N x 3 directions: float() argument must be a string or a real number, not 'complex'"
    with pytest.raises(ValueError) as listed:
        incompatibility([row.tolist() for row in rows])
    assert str(listed.value) == expected
    for call in (
        lambda: incompatibility(rows),
        lambda: incompatibility_pair(*rows),
        lambda: moment_matrix(rows),
        lambda: moment_matrix(tuple(rows)),
        lambda: moment_matrix(iter(rows)),
        lambda: uncertainty_sum(rows, QubitState((0.0, 0.0, 1.0))),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == expected
