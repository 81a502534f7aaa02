"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import json
import math
import re

import numpy as np
import pytest

from spinbounds import cli
from spinbounds.criteria import entanglement_witness, steering_test
from spinbounds.incompat import (
    directions_from_angles,
    incompatibility,
    incompatibility_from_angles,
    incompatibility_pair,
    moment_matrix,
)
from spinbounds.linalg3 import sym3_eigen_jacobi
from spinbounds.oracle import sphere_grid_min
from spinbounds.states import product_state, singlet, werner
from support import EXAMPLE4, XYZ, XYZ_SETTINGS, inference_variance, random_set, random_unit, variance_sum

# Published reference values for the theta3 = pi/3 grid over
# theta1, theta2 in {pi/9, 2pi/9, pi/3, 4pi/9, 5pi/9} (rows: theta2).
GRID_LABELS = ["pi/9", "2*pi/9", "pi/3", "4*pi/9", "5*pi/9"]
GRID_ANGLES = [math.pi / 9, 2 * math.pi / 9, math.pi / 3, 4 * math.pi / 9, 5 * math.pi / 9]
REFERENCE_TABLE = [
    [0.45108, 0.58195, 0.75235, 0.89526, 0.94979],
    [0.58195, 0.71897, 0.89872, 1.04746, 1.09190],
    [0.75235, 0.89872, 1.09498, 1.25782, 1.28681],
    [0.89526, 1.04746, 1.25782, 1.43799, 1.44804],
    [0.94979, 1.09190, 1.28681, 1.44804, 1.43799],
]


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:02d}: {status}"
    if detail:
        line += f" - {detail}"
    print(line)


def test_criterion_01_four_direction_example():
    value = incompatibility(EXAMPLE4).value
    ok = abs(value - 0.94955) <= 1e-4
    report(1, ok, f"value {value:.6f} vs 0.94955")
    assert ok


# Grid cells (row = theta2 index, column = theta1 index) whose angle
# triple with theta3 = pi/3 breaks the spherical triangle inequality.
UNREALIZABLE_CELLS = {(0, 0), (0, 4), (4, 0)}
# Cells with an exact bound: at (pi/3, pi/3) the Gram spectrum is
# (2, 1/2, 1/2); at (4pi/9, 2pi/9) it has top eigenvalue 2; at
# (5pi/9, 4pi/9) the vector (1, 1, 0) is the top eigenvector with 3/2.
EXACT_CELLS = {(2, 2): 1.0, (1, 3): 1.0, (3, 1): 1.0, (3, 4): 1.5, (4, 3): 1.5}


def gram_matrix(theta1, theta2, theta3):
    c1, c2, c3 = math.cos(theta1), math.cos(theta2), math.cos(theta3)
    return np.array([[1.0, c3, c2], [c3, 1.0, c1], [c2, c1, 1.0]])


def published_formula(theta1, theta2, theta3):
    """The formula behind REFERENCE_TABLE (an erratum, not the bound).

    It is the trigonometric root with the ratio beta/alpha in place of
    the scale-invariant beta/alpha**3, evaluated for three unit vectors
    (tau1 = 3) whether or not the angle triple is realizable.
    """
    c1, c2, c3 = math.cos(theta1), math.cos(theta2), math.cos(theta3)
    sq = c1 * c1 + c2 * c2 + c3 * c3
    tau2 = 3.0 + 2.0 * sq
    tau3 = 3.0 + 6.0 * sq + 6.0 * c1 * c2 * c3
    alpha = math.sqrt((3.0 * tau2 - 9.0) / 18.0)
    beta = 1.0 + tau3 / 6.0 - tau2 / 2.0
    return 3.0 - (1.0 + 2.0 * alpha * math.cos(math.acos(beta / alpha) / 3.0))


def test_criterion_02_reference_table():
    """The theta3 = pi/3 grid against independent values, and the erratum.

    Every realizable cell must equal 3 - max eigvalsh(Gram) from numpy
    (neither the package's closed form nor its Jacobi solver) to 1e-12,
    including the exact cells; exactly the three unrealizable cells must
    be rejected with numpy's smallest Gram eigenvalue; the (5pi/9, 5pi/9)
    cell must match the sphere-search oracle. The published table is kept
    as a checked erratum: `published_formula` reproduces all 25 values to
    their five printed decimals, so the table records the beta/alpha
    ratio, not the bound.
    """
    failures = []
    lines = []
    for i, t2 in enumerate(GRID_ANGLES):
        for j, t1 in enumerate(GRID_ANGLES):
            ref = REFERENCE_TABLE[i][j]
            label = f"({GRID_LABELS[j]}, {GRID_LABELS[i]})"
            spectrum = np.linalg.eigvalsh(gram_matrix(t1, t2, math.pi / 3))
            erratum = published_formula(t1, t2, math.pi / 3)
            if abs(erratum - ref) > 5e-6:
                failures.append(f"{label}: beta/alpha formula {erratum:.7f} vs published {ref}")
            try:
                got = incompatibility_from_angles(t1, t2, math.pi / 3)
            except ValueError as exc:
                lines.append(f"{label}: not realizable ({exc}); published {ref}")
                match = re.search(r"Gram eigenvalue (\S+) <", str(exc))
                if (i, j) not in UNREALIZABLE_CELLS:
                    failures.append(f"{label}: rejected a realizable cell ({exc})")
                elif match is None or not math.isclose(
                    float(match.group(1)), spectrum[0], rel_tol=5e-6
                ):
                    failures.append(f"{label}: reported eigenvalue differs from {spectrum[0]:.6g}")
                continue
            lines.append(f"{label}: computed {got:.5f}, published {ref} (delta {got - ref:+.5f})")
            if (i, j) in UNREALIZABLE_CELLS:
                failures.append(f"{label}: unrealizable cell returned {got!r}")
            if abs(got - (3.0 - spectrum[-1])) > 1e-12:
                failures.append(f"{label}: computed {got!r} vs numpy {3.0 - spectrum[-1]!r}")
            if (i, j) in EXACT_CELLS and abs(got - EXACT_CELLS[i, j]) > 1e-12:
                failures.append(f"{label}: computed {got!r} vs exact {EXACT_CELLS[i, j]}")
            if i == j == 4:
                oracle = sphere_grid_min(
                    directions_from_angles(t1, t2, math.pi / 3), 20_000
                ).value
                lines.append(f"{label}: oracle {oracle:.5f}")
                if abs(got - oracle) > 1e-5:
                    failures.append(f"{label}: oracle disagreement {got - oracle:.2e}")

    # the two equal-valued diagonal cells: duplication is exact by symmetry
    # (both share the same pairwise cosines up to sign pairs)
    a44 = incompatibility_from_angles(GRID_ANGLES[3], GRID_ANGLES[3], math.pi / 3)
    a55 = incompatibility_from_angles(GRID_ANGLES[4], GRID_ANGLES[4], math.pi / 3)
    lines.append(
        f"duplication check: (4pi/9,4pi/9) = {a44:.12f}, (5pi/9,5pi/9) = {a55:.12f}, "
        f"difference {a55 - a44:.3e} (exact duplication)"
    )
    if abs(a55 - a44) > 1e-12:
        failures.append(f"duplication check: difference {a55 - a44:.3e}")

    ok = not failures
    report(2, ok, f"{len(failures)} grid checks fail")
    for line in lines:
        print("    " + line)
    for line in failures:
        print("    MISMATCH " + line)
    assert ok, failures


def test_criterion_03_orthonormal_triple():
    value = incompatibility(XYZ).value
    ok = abs(value - 2.0) <= 1e-12
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        s = variance_sum(XYZ, random_unit(rng))
        worst = max(worst, abs(s - 2.0))
    ok = ok and worst <= 1e-12
    report(3, ok, f"bound {value}, max pure-state deviation {worst:.2e}")
    assert ok


def test_criterion_04_two_spin_closed_form():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        n1, n2 = random_unit(rng), random_unit(rng)
        got = incompatibility_pair(n1, n2)
        worst = max(worst, abs(got - (1.0 - abs(float(np.dot(n1, n2))))))
    ok = worst <= 1e-10
    report(4, ok, f"max deviation {worst:.2e} over 1000 unit pairs")
    assert ok


def test_criterion_05_three_path_agreement():
    rng = np.random.default_rng(505)
    worst_jacobi = 0.0
    worst_oracle = 0.0
    for _ in range(200):
        dirs = random_set(rng, int(rng.integers(2, 7)))
        res = incompatibility(dirs)
        a, traces = moment_matrix(dirs)
        w, _ = sym3_eigen_jacobi(a)
        worst_jacobi = max(worst_jacobi, abs(res.value - (traces[0] - w[0])))
        oracle = sphere_grid_min(dirs, 20_000)
        worst_oracle = max(worst_oracle, abs(res.value - oracle.value))
    ok = worst_jacobi <= 1e-9 and worst_oracle <= 1e-5
    report(5, ok, f"max |closed-jacobi| {worst_jacobi:.2e}, max |closed-oracle| {worst_oracle:.2e}")
    assert ok


def test_criterion_06_optimizer_realization():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(500):
        dirs = random_set(rng, int(rng.integers(1, 7)))
        res = incompatibility(dirs)
        achieved = variance_sum(dirs, res.optimizer)
        worst = max(worst, abs(achieved - res.value))
    ok = worst <= 1e-9
    report(6, ok, f"max realization gap {worst:.2e} over 500 sets")
    assert ok


def test_criterion_07_witness_fixtures():
    r_singlet = entanglement_witness(singlet(), XYZ, XYZ)
    r_werner = entanglement_witness(werner(0.5), XYZ, XYZ)
    r_product = entanglement_witness(product_state((0, 0, 1), (0, 0, 1)), XYZ, XYZ)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if entanglement_witness(werner(mid), XYZ, XYZ).margin > 0:
            hi = mid
        else:
            lo = mid
    crossing = 0.5 * (lo + hi)
    ok = (
        abs(r_singlet.variance_sum) <= 1e-10
        and r_singlet.violated
        and abs(r_singlet.margin - 4.0) <= 1e-10
        and abs(r_werner.variance_sum - 3.0) <= 1e-10
        and r_werner.violated
        and abs(r_product.margin) <= 1e-10
        and not r_product.violated
        and abs(crossing - 1.0 / 3.0) <= 1e-3
    )
    report(7, ok, f"werner crossing at p = {crossing:.6f} (expect 1/3)")
    assert ok


def test_criterion_08_steering_fixtures():
    r_singlet = steering_test(singlet(), XYZ_SETTINGS)
    worst_axis = 0.0
    z = (0.0, 0.0, 1.0)
    for p in np.linspace(0.0, 1.0, 21):
        got = inference_variance(werner(float(p)), z, z)
        worst_axis = max(worst_axis, abs(got - (1.0 - p * p)))
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if steering_test(werner(mid), XYZ_SETTINGS).margin > 0:
            hi = mid
        else:
            lo = mid
    crossing = 0.5 * (lo + hi)
    ok = (
        abs(r_singlet.total) <= 1e-10
        and abs(r_singlet.bound - 2.0) <= 1e-10
        and r_singlet.violated
        and worst_axis <= 1e-10
        and abs(crossing - 1.0 / math.sqrt(3.0)) <= 1e-3
    )
    report(8, ok, f"crossing at p = {crossing:.6f} (expect 0.57735), "
                  f"max per-axis deviation {worst_axis:.2e}")
    assert ok


def test_criterion_09_soundness_sweeps():
    rng = np.random.default_rng(909)
    witness_ok = True
    for _ in range(1000):
        r_a = random_unit(rng) * rng.uniform() ** (1 / 3)
        r_b = random_unit(rng) * rng.uniform() ** (1 / 3)
        n = int(rng.integers(1, 5))
        rep = entanglement_witness(
            product_state(r_a, r_b),
            [random_unit(rng) for _ in range(n)],
            [random_unit(rng) for _ in range(n)],
        )
        if rep.violated or rep.variance_sum < rep.bound - 1e-9:
            witness_ok = False
            break

    blochs = rng.normal(size=(10_000, 3))
    blochs /= np.linalg.norm(blochs, axis=1, keepdims=True)
    blochs *= rng.uniform(size=(10_000, 1)) ** (1 / 3)
    floor_ok = True
    for _ in range(25):
        dirs = np.array(random_set(rng, int(rng.integers(1, 7))))
        tau1 = float(np.sum(dirs * dirs))
        sums = tau1 - np.square(blochs @ dirs.T).sum(axis=1)
        if np.min(sums) < incompatibility(dirs).value - 1e-9:
            floor_ok = False
            break

    ok = witness_ok and floor_ok
    report(9, ok, "1000 product states, 10000 mixed states x 25 sets")
    assert ok


def unit_rows(rows):
    return [tuple(x / math.sqrt(sum(y * y for y in row)) for x in row) for row in rows]


PHI = (1 + math.sqrt(5)) / 2
# unit tight frames, sum_i n_i n_i^T = (N/3) I
TIGHT_FRAMES = {
    "orthogonal triple": XYZ,
    "orthogonal triple twice": XYZ + XYZ,
    "tetrahedron": unit_rows([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]),
    "icosahedron axes": unit_rows([(0, 1, PHI), (0, -1, PHI), (1, PHI, 0), (-1, PHI, 0), (PHI, 0, 1), (PHI, 0, -1)]),
}


def test_criterion_11_maximal_incompatibility_iff_orthogonal():
    """The paper's claim: N unit directions are maximally incompatible iff orthogonal.

    tr A = N, so the bound N - lambda_max is at most 2N/3, with equality iff
    A = (N/3) I: for N = 3 an orthogonal triple, for N > 3 a tight frame. Two
    directions span a plane, so lambda_max >= 1: their bound 1 - |n1 . n2| is
    at most 1, with equality iff they are orthogonal. Every other set falls
    short of its cap by at least ||A - (N/3) I||_F / sqrt(6) (N >= 3), the
    least that the top eigenvalue can exceed the mean of three that sum to N.
    """
    rng = np.random.default_rng(1111)
    worst = 0.0  # |bound - cap| / N at the caps, under random orthogonal maps
    for _ in range(20):
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        worst = max(worst, abs(incompatibility(np.eye(3)[:2] @ q.T).value - 1.0) / 2)
        for frame in TIGHT_FRAMES.values():
            worst = max(worst, abs(incompatibility(np.asarray(frame) @ q.T).value - 2 * len(frame) / 3) / len(frame))
    gap_ok, smallest = True, math.inf
    for _ in range(2000):
        n = int(rng.integers(2, 9))
        dirs = random_set(rng, n, unit=True)
        if n == 2:
            cap, floor = 1.0, abs(float(np.dot(dirs[0], dirs[1])))
        else:
            cap, floor = 2 * n / 3, float(np.linalg.norm(np.array(moment_matrix(dirs)[0]) - n / 3 * np.eye(3))) / math.sqrt(6)
        gap = cap - incompatibility(dirs).value
        smallest = min(smallest, gap)
        gap_ok = gap_ok and gap > 0.0 and gap >= floor - 1e-12 * n
    ok = worst <= 1e-12 and gap_ok
    report(11, ok, f"caps met to {worst:.1e} N; 2000 random sets (N = 2-8) each below the cap, by at least {smallest:.1e}")
    assert ok


def test_criterion_10_cli_contract(tmp_path, capsys):
    xyz = tmp_path / "xyz.json"
    xyz.write_text(json.dumps({"directions": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    settings = tmp_path / "settings.json"
    settings.write_text(
        json.dumps({"settings": [{"alice": d, "bob": d} for d in
                                 [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]})
    )
    checks = []

    def run_json(argv):
        code = cli.main(argv)
        out = capsys.readouterr().out
        return code, json.loads(out)

    code, payload = run_json(["incompat", "--dirs", str(xyz), "--json"])
    checks.append(code == cli.EXIT_OK and payload["value"] == pytest.approx(2.0))

    code = cli.main(["table", "--csv"])
    capsys.readouterr()
    checks.append(code == cli.EXIT_OK)

    code, payload = run_json(["verify", "--dirs", str(xyz), "--json"])
    checks.append(code == cli.EXIT_OK and payload["pass"] is True)

    code, payload = run_json(
        ["witness", "--state", "singlet", "--alice", str(xyz), "--bob", str(xyz),
         "--json"]
    )
    checks.append(code == cli.EXIT_OK and payload["violated"] is True)

    code, payload = run_json(
        ["steer", "--state", "werner:0.8", "--settings", str(settings), "--json"]
    )
    checks.append(code == cli.EXIT_OK and payload["violated"] is True)

    # error exit codes
    checks.append(cli.main(["incompat", "--dirs", "/missing.json"]) == cli.EXIT_INPUT)
    checks.append(
        cli.main(
            ["witness", "--state", "product:0,0,1:0,0,1", "--alice", str(xyz),
             "--bob", str(xyz), "--assert-violation"]
        )
        == cli.EXIT_ASSERTION
    )
    capsys.readouterr()

    ok = all(checks)
    report(10, ok, f"{sum(checks)}/{len(checks)} CLI checks")
    assert ok
