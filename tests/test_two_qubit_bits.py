"""The straight-line two-qubit path against the code it replaced.

`TwoQubitState` sums its Bloch tensors in straight lines, `werner` and
`product_state` write their density matrices entry by entry, the steering
statistics run on unpacked floats without per-branch records, and the
witness computes one bound when Bob's directions equal Alice's. The code
they replaced is copied here as the reference: the `_BLOCH` gather table,
the index comprehensions of `werner` and `product_state`, the per-branch
conditional statistics that the inference variance was summed from
(`reference_branches`), and the witness with two bound calls. The witness and
the steering test sum their moment matrices in the loops that check their
directions, so their bounds are held against `incompatibility()` as well. Every float
they return must keep its bits, signed zeros included. The PSD check, an
LDL^H written out for 4x4, must keep every verdict of the n x n loop it
replaced (`reference_psd_check`), its exceptions too.

The references add with `sum311`, an explicit loop from 0, as `sum()`
added floats before Python 3.12 and as the package does on every version.
The inputs are drawn from `random.Random`, so the module runs without numpy;
only the ndarray variants of its inputs need it, and skip without it.
"""

import math
import random
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbounds.criteria import entanglement_witness, steering_test
from spinbounds.incompat import incompatibility
from spinbounds.linalg3 import PSD_TOL, hermitian_psd_check
from spinbounds.states import TwoQubitState, as_vec3, product_state, werner
from support import bits, dot, inference_variance, matvec, outcome, reference_psd_check, shift, sum311

# Nonzero entries (row, column, value) of I, sigma_x, sigma_y, sigma_z.
_PAULI = (((0, 0, 1), (1, 1, 1)), ((0, 1, 1), (1, 0, 1)), ((0, 1, -1j), (1, 0, 1j)), ((0, 0, 1), (1, 1, -1)))
_PART = {1: 0, -1j: 1, -1: 2, 1j: 3}  # Re(v z) = (Re z, Im z, -Re z, -Im z)[_PART[v]]
# _BLOCH[4 mu + nu - 1] gathers the terms Re(v rho[i][j]) of tr(rho sigma_mu (x) sigma_nu),
# (mu, nu) != (0, 0), in rho's row-major order
_BLOCH = [
    itemgetter(*(16 * _PART[v] + 4 * i + j for i, j, v in sorted(
        (2 * c + d, 2 * r + s, u * w) for r, c, u in _PAULI[mu] for s, d, w in _PAULI[nu])))
    for mu in range(4) for nu in range(4)
][1:]


def reference_bloch(rho):
    re, im = [z.real for row in rho for z in row], [z.imag for row in rho for z in row]
    parts = re + im + [-x for x in re] + [-x for x in im]
    m = [sum311(g(parts)) for g in _BLOCH]
    return tuple(m[3:12:4]), tuple(m[0:3]), (tuple(m[4:7]), tuple(m[8:11]), tuple(m[12:15]))


def vec(d):
    return tuple(map(float, d))


def reference_werner(p):
    psi = [x / math.sqrt(2.0) for x in (0.0, 1.0, -1.0, 0.0)]
    rows = [[p * (u * v) + (1.0 - p) * float(i == j) / 4.0 for j, v in enumerate(psi)] for i, u in enumerate(psi)]
    return TwoQubitState(rows)


def reference_product_state(r_a, r_b):
    (xa, ya, za), (xb, yb, zb) = as_vec3(r_a), as_vec3(r_b)
    rho_a = ((0.5 * (1.0 + za), 0.5 * complex(xa, -ya)), (0.5 * complex(xa, ya), 0.5 * (1.0 - za)))
    rho_b = ((0.5 * (1.0 + zb), 0.5 * complex(xb, -yb)), (0.5 * complex(xb, yb), 0.5 * (1.0 - zb)))
    return TwoQubitState([[rho_a[i // 2][j // 2] * rho_b[i % 2][j % 2] for j in range(4)] for i in range(4)])


def state_bits(state):
    """rho's real and imaginary parts, then a, b and T, as hex."""
    return bits(([(z.real, z.imag) for row in state.rho for z in row], state.a, state.b, state.T))


def reference_witness(state, alice_dirs, bob_dirs):
    alice, bob = list(map(vec, alice_dirs)), list(map(vec, bob_dirs))
    variance_sum = sum311(
        dot(n, n) + dot(m, m) + 2.0 * dot(n, matvec(state.T, m)) - (dot(n, state.a) + dot(m, state.b)) ** 2
        for n, m in zip(alice, bob)
    )
    bound = incompatibility(alice).value + incompatibility(bob).value
    return variance_sum, bound, variance_sum < bound - 1e-10, bound - variance_sum


def reference_branches(state, a_dir):
    """(outcome, probability, Bob's conditional Bloch vector), +1 first;
    outcomes below probability 1e-12 are omitted."""
    n = vec(a_dir)
    mean_a = dot(n, state.a)
    steered = matvec(tuple(zip(*state.T)), n)
    branches = []
    for outcome in (+1, -1):
        p = 0.5 * (1.0 + outcome * mean_a)
        if p < 1e-12:
            continue
        bloch = tuple((b + outcome * s) / (2.0 * p) for b, s in zip(state.b, steered))
        branches.append((outcome, p, bloch))
    return tuple(branches)


def reference_inference_variance(state, a_dir, b_dir):
    b = vec(b_dir)
    total = 0.0
    for _, probability, bob_bloch in reference_branches(state, a_dir):
        mean = dot(b, bob_bloch)
        total += probability * (1.0 - mean * mean)
    return total


def reference_steering(state, settings):
    variances = tuple(reference_inference_variance(state, a, b) for a, b in settings)
    total = sum311(variances)
    bound = incompatibility([b for _, b in settings]).value
    return variances, total, bound, total < bound - 1e-10, bound - total


def assert_bit_identical(state, alice, bob, pairs):
    assert bits((state.a, state.b, state.T)) == bits(reference_bloch(state.rho))
    assert bits(entanglement_witness(state, alice, bob)) == bits(reference_witness(state, alice, bob))
    assert bits(steering_test(state, pairs)) == bits(reference_steering(state, pairs))
    for a, b in pairs:
        assert bits(inference_variance(state, a, b)) == bits(reference_inference_variance(state, a, b))


def flip_zeros(dirs):
    return [tuple(-x if x == 0.0 else x for x in d) for d in dirs]


def normal3(rng):
    return [rng.gauss(0.0, 1.0) for _ in range(3)]


def directions(rng, n):
    """n unit directions as tuples; each component is zeroed with chance 1/3
    (as 0.0 or -0.0, with the sign of the normal draw it replaces)."""
    out = []
    while len(out) < n:
        d = [x * (rng.random() > 1.0 / 3.0) for x in normal3(rng)]
        if any(d):
            norm = math.hypot(*d)
            out.append(tuple(x / norm for x in d))
    return out


def ball(rng):
    d = normal3(rng)
    scale = rng.random() ** (1.0 / 3.0) / math.hypot(*d)
    return tuple(x * scale for x in d)


def mixed(rng, rank):
    """g g^dagger / tr, g a 4 x rank matrix of complex normal draws, as rows of complex."""
    g = [[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(rank)] for _ in range(4)]
    rho = [[sum311(x * y.conjugate() for x, y in zip(gi, gj)) for gj in g] for gi in g]
    trace = sum311(rho[i][i].real for i in range(4))
    return [[z / trace for z in row] for row in rho]


def seeded_states(rng, arrays):
    for p in (0.0, 1.0 / 3.0, 0.5, 1.0 / math.sqrt(3.0), 0.8, 1.0, *(rng.random() for _ in range(8))):
        yield werner(p)
    for _ in range(15):
        yield product_state(ball(rng), ball(rng))
    yield product_state((0, 0, 1), (0, 0, -1))
    for rank in (1, 2, 3, 4, 4, 4):
        rho = mixed(rng, rank)
        for rows in (rho, *arrays(rho)):
            yield TwoQubitState(rows)


def check_seeded_panel(arrays):
    """The seeded panel, with each `arrays(x)` variant of a mixed state's rows and of Alice's directions."""
    rng = random.Random(14)
    for state in seeded_states(rng, arrays):
        for n in (1, 2, 3, 4):
            alice = directions(rng, n)
            pairs = list(zip(directions(rng, n), directions(rng, n)))
            for bob in (alice, flip_zeros(alice), directions(rng, n), *arrays(alice)):
                assert_bit_identical(state, alice, bob, pairs)


def test_two_qubit_path_is_bit_identical_on_a_seeded_panel():
    check_seeded_panel(lambda rows: ())


def test_two_qubit_path_is_bit_identical_on_ndarray_inputs():
    np = pytest.importorskip("numpy", exc_type=ImportError)
    check_seeded_panel(lambda rows: (np.array(rows),))


def test_bloch_tensors_of_signed_zero_entries_are_bit_identical():
    # every zero part of rho as 0.0 or -0.0 at random: the sums start from
    # 0.0, as sum() did, so a -0.0 term rounds as it did
    rng = random.Random(3)
    diag = [[0.25 if i == j else 0.0 for j in range(4)] for i in range(4)]
    real = [werner(0.5).rho, werner(1.0).rho, product_state((0, 0, 1), (1, 0, 0)).rho, diag]
    for rho in real:
        for _ in range(64):
            signed = [
                [complex(*(rng.choice((0.0, -0.0)) if x == 0.0 else x for x in (z.real, z.imag))) for z in row]
                for row in rho
            ]
            state = TwoQubitState(signed)
            assert bits((state.a, state.b, state.T)) == bits(reference_bloch(state.rho))
            alice = directions(rng, 3)
            assert_bit_identical(state, alice, alice, list(zip(alice, alice)))


def test_skipped_branch_is_bit_identical():
    # a . n = +-1 on a pure product state: one outcome has probability ~0 and
    # its branch is skipped
    rng = random.Random(41)
    units = [(0, 0, 1), (1, 0, 0), (0, 1, 0), (0.6, 0.8, 0.0), (3 / 13, 4 / 13, 12 / 13), *directions(rng, 6)]
    for r_a in units:
        r_a = vec(r_a)
        state = product_state(r_a, ball(rng))
        for sign in (1.0, -1.0):
            n = tuple(sign * x for x in r_a)
            assert len(reference_branches(state, n)) == 1
            pairs = [(n, m) for m in directions(rng, 3)]
            assert_bit_identical(state, [n], [n], pairs)


def test_bob_equal_to_alice_but_for_signed_zeros_is_bit_identical():
    sets = [
        [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)],
        [(1.0, -0.0, 0.0), (-0.0, 1.0, -0.0), (0.0, -0.0, -1.0)],
        [(math.cos(t), math.sin(t), 0.0) for t in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)],
        [(0.0, math.sqrt(0.5), -math.sqrt(0.5)), (-0.0, 0.0, 1.0)],
    ]
    rng = random.Random(7)
    for alice in sets:
        bob = flip_zeros(alice)
        assert bob == alice and bits(bob) != bits(alice)
        for state in (werner(0.8), product_state(ball(rng), ball(rng)), TwoQubitState(mixed(rng, 4))):
            assert_bit_identical(state, alice, bob, list(zip(alice, bob)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(("werner", "product", "mixed")),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    bob_kind=st.sampled_from(("same", "flipped", "other", "negated", "permuted")),
)
def test_two_qubit_path_is_bit_identical(kind, p, seed, n, bob_kind):
    rng = random.Random(seed)
    if kind == "werner":
        state = werner(p)
    elif kind == "product":
        state = product_state(ball(rng), ball(rng))
    else:
        state = TwoQubitState(mixed(rng, rng.randint(1, 4)))
    alice = directions(rng, n)
    # negated (m = -n, the singlet's setting) and permuted (xyz against zxy) differ from Alice's list (permuted
    # for N > 1) but have her moment matrix in exact arithmetic, so the witness bounds each side
    bob = {"same": alice, "flipped": flip_zeros(alice), "other": directions(rng, n),
           "negated": [tuple(-x for x in d) for d in alice], "permuted": alice[-1:] + alice[:-1]}[bob_kind]
    assert_bit_identical(state, alice, bob, list(zip(directions(rng, n), directions(rng, n))))


def folded_bound_cases(arrays):
    """(alice, bob) for N = 1-6, as lists and as tuples of directions with signed zeros: Bob as Alice's own
    object, as an equal but distinct list (zeros flipped) and as another set; then each `arrays(x)` form."""
    rng = random.Random(28)
    for n in range(1, 7):
        for _ in range(6):
            alice, other = directions(rng, n), directions(rng, n)
            for a in (alice, tuple(alice)):
                for b in (a, flip_zeros(alice), other, tuple(other)):
                    yield a, b
            for a in arrays(alice):
                for b in (a, *arrays(flip_zeros(alice)), *arrays(other)):
                    yield a, b


def check_folded_bounds(arrays):
    rng = random.Random(29)
    for alice, bob in folded_bound_cases(arrays):
        # an ndarray's own incompatibility() takes D^T D, so its rows are read as the tests read them
        a, b = list(map(vec, alice)), list(map(vec, bob))
        for state in (werner(rng.random()), product_state(ball(rng), ball(rng))):
            witness = entanglement_witness(state, alice, bob).bound
            assert witness.hex() == (incompatibility(a).value + incompatibility(b).value).hex()
            steering = steering_test(state, list(zip(alice, bob))).bound
            assert steering.hex() == incompatibility(b).value.hex()


def test_folded_bounds_are_bit_identical_to_incompatibility():
    check_folded_bounds(lambda dirs: ())


def test_folded_bounds_are_bit_identical_to_incompatibility_on_ndarrays():
    np = pytest.importorskip("numpy", exc_type=ImportError)
    check_folded_bounds(lambda dirs: (np.array(dirs),))


WERNER_PS = (0.0, 1.0, 0, 1, 1.0 / 3.0, 0.5, 1.0 / math.sqrt(3.0))


def test_werner_rows_are_bit_identical():
    rng = random.Random(25)
    tiny = (5e-324, 2.0**-1022, 1e-300, 1.0 - 2.0**-53, 0.5 - 2.0**-54, 0.5 + 2.0**-53, True, False)
    for p in (*WERNER_PS, *tiny, *(rng.random() for _ in range(2000))):
        assert state_bits(werner(p)) == state_bits(reference_werner(p)), p


def signed_zero_variants(v):
    """v with each zero component as 0.0 and as -0.0, in every combination."""
    variants = [()]
    for x in v:
        variants = [w + (z,) for w in variants for z in ((0.0, -0.0) if x == 0.0 else (x,))]
    return variants


def bloch_panel(rng):
    yield from signed_zero_variants((0.0, 0.0, 0.0))
    for v in ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.6, 0.0, 0.8), (0.0, -0.5, 0.0)):
        yield from signed_zero_variants(v)
    units = [(0.6, 0.8, 0.0), (3 / 13, 4 / 13, 12 / 13), (0.0, math.sqrt(0.5), -math.sqrt(0.5)), *directions(rng, 6)]
    yield from units
    for u in units:  # |r| just above 1, within the 1e-12 tolerance of the norm check
        r = tuple(x * (1.0 + 4e-13) for x in u)
        assert 1.0 < dot(r, r) <= 1.0 + 1e-12
        yield r
    yield (0, 0, 1)
    yield [1, 0, 0]
    for _ in range(6):
        yield ball(rng)


def test_product_state_rows_are_bit_identical():
    panel = list(bloch_panel(random.Random(26)))
    for r_a in panel:
        for r_b in panel:
            assert state_bits(product_state(r_a, r_b)) == state_bits(reference_product_state(r_a, r_b)), (r_a, r_b)


def wild_hermitian(rng):
    """Hermitian 4x4 rows whose every real and imaginary part is 0, -PSD_TOL,
    1 or a normal draw times 10^k, k in [-300, 300]: the elimination
    overflows on some."""

    def part():
        return rng.choice((0.0, -PSD_TOL, 1.0, rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-300, 300)))

    m = [[complex(part(), 0.0) if i == j else 0j for j in range(4)] for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            m[i][j] = complex(part(), part())
            m[j][i] = m[i][j].conjugate()
    return m


# the third pivot is nan from finite entries: a20 / p0 overflows, and inf - inf follows
NAN_PIVOT = [[0, 1e100, 1e300j, 0], [1e100, 1e300, 0, 0], [-1e300j, 0, 0, 0], [0, 0, 0, 0]]


def pivot_edge(rng, i):
    """Two matrices whose pivot i is the last to be > 0 and the first not to be:
    the leading (i + 1) x (i + 1) block g g^dagger has rank i, the rest is
    0.25 I, and entry (i, i) takes the two adjacent shifts between which the
    verdict turns."""
    g = [[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(i)] for _ in range(i + 1)]
    m = [[0.25 * (r == c) + 0j for c in range(4)] for r in range(4)]
    for r, gr in enumerate(g):
        for c, gc in enumerate(g):
            m[r][c] = sum311(x * y.conjugate() for x, y in zip(gr, gc))

    def at(delta):
        return [[z + delta if r == c == i else z for c, z in enumerate(row)] for r, row in enumerate(m)]

    lo, hi = -PSD_TOL, 0.0
    assert reference_psd_check(at(hi))
    while reference_psd_check(at(lo)):
        lo *= 2.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if reference_psd_check(at(mid)) else (mid, hi)
    return at(lo), at(hi)


def psd_panel(rng):
    """4x4 rows on both sides of each verdict. None has a pair whose difference
    overflows abs(): the loop raised OverflowError there, where the check
    now says "not Hermitian" (see test_linalg3.py)."""
    for rank in (1, 2, 3, 4):  # the smallest eigenvalue 1e-13 to either side of -PSD_TOL, at 0 and at +-1e-3
        for delta in (-PSD_TOL * (1.0 + 1e-4), -PSD_TOL * (1.0 - 1e-4), 0.0, 1e-3, -1e-3):
            for _ in range(40):
                yield shift(mixed(rng, rank), delta)
    for p in (*WERNER_PS, *(rng.random() for _ in range(20))):
        yield werner(p).rho
    for _ in range(40):
        yield product_state(ball(rng), ball(rng)).rho
    yield product_state((0, 0, 1), (0, 0, -1)).rho
    diag = [[0.25 if i == j else 0.0 for j in range(4)] for i in range(4)]
    for rho in (werner(0.5).rho, werner(1.0).rho, product_state((0, 0, 1), (1, 0, 0)).rho, diag):
        for _ in range(20):  # each zero part as 0.0 or -0.0
            yield [[complex(*(rng.choice((0.0, -0.0)) if x == 0.0 else x for x in (z.real, z.imag))) for z in row]
                   for row in rho]
    for i in range(4):  # pivot i lands on exactly 0.0: -PSD_TOL on the diagonal, the rest of its row and column zero
        yield [[-PSD_TOL if r == c == i else 0.25 * (r == c) for c in range(4)] for r in range(4)]
        yield [[-PSD_TOL if r == c == i else -0.0 if r != c else 0.25 for c in range(4)] for r in range(4)]
    for i in (1, 2, 3):  # pivot i within rounding of 0.0, on either side
        for _ in range(150):
            yield from pivot_edge(rng, i)
    yield NAN_PIVOT
    for _ in range(3000):
        yield wild_hermitian(rng)
    for bad in (math.nan, math.inf, -math.inf, complex(math.nan, 0.0), complex(0.0, math.inf)):
        for i, j in ((0, 0), (2, 2), (1, 2), (3, 0)):
            m = mixed(rng, 4)
            m[i][j] = bad
            yield [row[:] for row in m]
            m[j][i] = complex(bad).conjugate()  # a Hermitian pair of non-finite entries
            yield m


def test_psd_check_keeps_every_verdict_of_the_loop():
    seen = set()
    for m in psd_panel(random.Random(27)):
        for rows in (m, tuple(map(tuple, m))):
            verdict = outcome(hermitian_psd_check, rows)
            assert verdict == outcome(reference_psd_check, rows), m
            seen.add(str(verdict))
    assert outcome(reference_psd_check, NAN_PIVOT) == bits(False)
    assert seen == {str(bits(True)), str(bits(False)), str((ValueError, "density matrix is not Hermitian"))}


def test_psd_check_keeps_every_verdict_of_the_loop_on_real_rows():
    # the check computes on the entries as given, so real symmetric rows (the panel's upper triangles'
    # real parts) run in float arithmetic, where the loop converted them to complex first
    seen = set()
    for m in psd_panel(random.Random(27)):
        rows = [[complex(m[min(r, c)][max(r, c)]).real for c in range(4)] for r in range(4)]
        verdict = outcome(hermitian_psd_check, rows)
        assert verdict == outcome(reference_psd_check, rows), rows
        seen.add(str(verdict))
    assert seen == {str(bits(True)), str(bits(False)), str((ValueError, "density matrix is not Hermitian"))}
