"""Seeded input generators and the op each workload runs on them.

A generator is a pure function of its seed: the same seed gives the same
inputs, and the program under test sees only those inputs. Input classes
are drawn in fixed, stratified proportions (not independently per item) so
that two seeds give pools of the same composition and the run-to-run
spread of the timings comes from the machine, not from the mix.

Every generator also records the shares of the input properties it
actually realized, next to the inputs.
"""

from __future__ import annotations

import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from spinbounds import cli as sb_cli
from spinbounds import criteria, incompat, states

import reference as ref

# Seeds 0..9 were used while the benchmark was tuned; this one was not, so a
# performance claim can be confirmed on it.
HOLDOUT_SEED = 7919
# Seed of direction_sets' inputs in the documented defect domains, which do
# not change with --seed (see direction_sets).
PANEL_SEED = 2017

DEGENERATE_FAMILIES = (
    "orthogonal_pair",
    "planar_trine",
    "planar_square",
    "spectrum_11x",
    "isotropic_xyz",
)
# Below this scale exponent the library's absolute isotropy threshold makes
# the bound wrong (documented defect); failures there are expected today.
SMALL_SCALE_DEFECT_K = -5.0

DIRECTION_POOL = 800
# Generic sets among the pool // 5 scaled ones; a multiple of 9, so that
# k = -5 is an edge of the strata of [-9, 9].
SCALED_GENERIC = 126
ANGLE_GRID_SIDE = 12  # 12^3 = 1728 triples per pass
TWO_QUBIT_POOL = 180
CLI_DIRECTIONS = 16
CLI_TIMEOUT_S = 60
STATE_KINDS = ("werner", "product", "mixed")


@dataclass(frozen=True)
class Item:
    kind: str  # input class, e.g. "generic", "orthogonal_pair", "werner"
    args: tuple  # what the op hands to the program
    known_defect: bool = False  # lies in a domain with a documented defect


@dataclass
class Workload:
    name: str
    why: str
    passes: list  # pass i runs passes[i % len(passes)], a list of Items
    shares: dict = field(default_factory=dict)


def _rotation(rng) -> np.ndarray:
    """Haar-random proper rotation."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _unit_rows(rng, n: int) -> np.ndarray:
    d = rng.normal(size=(n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _planar(angles) -> np.ndarray:
    return np.array([[math.cos(a), math.sin(a), 0.0] for a in angles])


def _family(name: str, rng) -> np.ndarray:
    if name == "orthogonal_pair":
        d = np.eye(3)[:2]
    elif name == "planar_trine":
        d = _planar((0.0, 2 * math.pi / 3, 4 * math.pi / 3))
    elif name == "planar_square":
        d = _planar((0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4))
    elif name == "spectrum_11x":
        d = np.diag([1.0, 1.0, math.sqrt(rng.uniform(0.05, 0.95))])
    elif name == "isotropic_xyz":
        d = np.eye(3)
    else:
        raise ValueError(f"unknown degenerate family {name!r}")
    return d @ _rotation(rng).T


def _stratified(rng, n: int) -> np.ndarray:
    """n values in [0, 1), one per equal-width stratum, shuffled."""
    return rng.permutation((np.arange(n) + rng.uniform(size=n)) / n)


def _log_uniform_ints(rng, n: int, lo: int, hi: int) -> np.ndarray:
    u = _stratified(rng, n)
    return np.rint(np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))).astype(int)


def _histogram(values, edges) -> dict:
    counts, _ = np.histogram(values, bins=edges)
    total = max(len(values), 1)
    return {f"{lo}-{hi - 1}": round(c / total, 4) for lo, hi, c in zip(edges, edges[1:], counts)}


def _generic_sets(rng, n: int, n_unit: int) -> list:
    """n random sets, N log-uniform in 2..128; n_unit of them have unit
    rows, the others rows of length log-uniform in [1/4, 4]."""
    sets = []
    for size, unit in zip(_log_uniform_ints(rng, n, 2, 128), rng.permutation(np.arange(n) < n_unit)):
        d = _unit_rows(rng, int(size))
        if not unit:
            d *= np.exp(rng.uniform(math.log(0.25), math.log(4.0), size=(int(size), 1)))
        sets.append(d)
    return sets


def direction_sets(seed: int) -> Workload:
    """A quarter of the sets are degenerate families, a fifth are scaled by
    10^k with k stratified over [-9, 9], and half are unit length before
    scaling. The sets in the documented defect domains (every degenerate
    set and every set scaled below 10^SMALL_SCALE_DEFECT_K) are drawn from
    PANEL_SEED, the others from `seed`; the order of all of them from
    `seed`. The failures, which today lie only in those domains, are then
    the same inputs for every seed, so every run counts the same failures."""
    rng = np.random.default_rng([seed, 1])
    panel = np.random.default_rng([PANEL_SEED, 1])
    pool = DIRECTION_POOL
    n_degenerate = pool // 4
    n_small = SCALED_GENERIC * 2 // 9  # the strata of [-9, 9] below k = -5
    n_generic = pool - n_degenerate - n_small

    kinds = [DEGENERATE_FAMILIES[i % len(DEGENERATE_FAMILIES)] for i in range(n_degenerate)]
    sets = [_family(name, panel) for name in kinds]
    scale_k = [math.nan] * n_degenerate
    for i, k in zip(panel.choice(n_degenerate, size=pool // 5 - SCALED_GENERIC, replace=False),
                    -9.0 + 18.0 * _stratified(panel, pool // 5 - SCALED_GENERIC)):
        scale_k[i] = k
    # Half of all sets are unit length; the generic sets make up the share
    # the degenerate ones leave, split between panel and seed by count.
    n_unit = pool // 2 - sum(k != "spectrum_11x" for k in kinds)
    n_unit_small = round(n_unit * n_small / (n_small + n_generic))
    sets += _generic_sets(panel, n_small, n_unit_small)
    scale_k += list(-9.0 + (SMALL_SCALE_DEFECT_K + 9.0) * _stratified(panel, n_small))
    kinds += ["generic"] * (n_small + n_generic)

    sets += _generic_sets(rng, n_generic, n_unit - n_unit_small)
    k_generic = [math.nan] * n_generic
    for i, k in zip(rng.choice(n_generic, size=SCALED_GENERIC - n_small, replace=False),
                    SMALL_SCALE_DEFECT_K + (9.0 - SMALL_SCALE_DEFECT_K) * _stratified(rng, SCALED_GENERIC - n_small)):
        k_generic[i] = k
    scale_k += k_generic
    unit = [bool(np.allclose(np.linalg.norm(d, axis=1), 1.0)) for d in sets]

    items = []
    for i in rng.permutation(pool):
        d, k = sets[i], scale_k[i]
        if not math.isnan(k):
            d = d * 10.0**k
        defect = kinds[i] != "generic" or k < SMALL_SCALE_DEFECT_K
        items.append(Item(kinds[i], (d,), defect))

    scaled = [k for k in scale_k if not math.isnan(k)]
    sizes = [len(it.args[0]) for it in items]
    shares = {
        "pool": pool,
        "n_histogram": _histogram(sizes, [2, 4, 8, 16, 32, 64, 129]),
        "unit_share_before_scaling": round(float(np.mean(unit)), 4),
        "degenerate_share": round(n_degenerate / pool, 4),
        "degenerate_families": {f: kinds.count(f) for f in DEGENERATE_FAMILIES},
        "scaled_share": round(len(scaled) / pool, 4),
        "small_scale_share": round(float(sum(k < SMALL_SCALE_DEFECT_K for k in scaled)) / pool, 4),
        "known_defect_share": round(float(np.mean([it.known_defect for it in items])), 4),
    }
    return Workload("direction_sets", WHY["direction_sets"], [items], shares)


def angle_grid(seed: int) -> Workload:
    """Jittered sweep over [0, pi]^3, theta1 fastest, as a table is filled."""
    rng = np.random.default_rng([seed, 2])
    side = ANGLE_GRID_SIDE
    cells = np.arange(side)
    items = []
    for c3 in cells:
        for c2 in cells:
            for c1 in cells:
                t = (np.array([c1, c2, c3]) + rng.uniform(size=3)) * math.pi / side
                items.append(Item("triple", tuple(float(x) for x in t)))
    rejected = [ref.gram_min_eigenvalue(*it.args) < -ref.GRAM_TOL for it in items]
    shares = {"pool": len(items), "non_realizable_share": round(float(np.mean(rejected)), 4)}
    return Workload("angle_grid", WHY["angle_grid"], [items], shares)


def _state_params(kind: str, rng):
    if kind == "werner":
        return float(rng.uniform())
    if kind == "product":
        return tuple(_unit_rows(rng, 1)[0] * rng.uniform() ** (1 / 3) for _ in range(2))
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def two_qubit(seed: int) -> Workload:
    """Witness pairs Alice's and Bob's directions equally (singlet-like
    anti-correlation then lowers the joint variance); steering settings use
    a second, independent direction set."""
    rng = np.random.default_rng([seed, 3])
    pool = TWO_QUBIT_POOL
    kinds = [STATE_KINDS[i % len(STATE_KINDS)] for i in range(pool)]
    sizes = 2 + (np.arange(pool) % 3)
    settings_sizes = 2 + rng.permutation(np.arange(pool) % 3)
    items = []
    for i in rng.permutation(pool):
        kind = kinds[i]
        params = _state_params(kind, rng)
        alice = _unit_rows(rng, int(sizes[i]))
        settings = [(d, d) for d in _unit_rows(rng, int(settings_sizes[i]))]
        items.append(Item(kind, (kind, params, alice, settings)))
    witness = [ref.witness(ref.state_rho(*it.args[:2]), it.args[2], it.args[2]) for it in items]
    steering = [ref.steering(ref.state_rho(*it.args[:2]), it.args[3]) for it in items]
    shares = {
        "pool": pool,
        "state_kinds": {k: round(kinds.count(k) / pool, 4) for k in STATE_KINDS},
        "directions_histogram": {str(n): round(float(np.mean(sizes == n)), 4) for n in (2, 3, 4)},
        "witness_violated_share": round(float(np.mean([w.violated for w in witness])), 4),
        "steering_violated_share": round(float(np.mean([s.violated for s in steering])), 4),
    }
    return Workload("two_qubit", WHY["two_qubit"], [items], shares)


CLI_COMMANDS = ("incompat_dirs", "incompat_angles", "table", "verify", "witness", "steer")


def _realizable_triple(rng) -> tuple:
    while True:
        t = tuple(float(x) for x in rng.uniform(0.0, math.pi, size=3))
        if ref.gram_min_eigenvalue(*t) > 1e-3:
            return t


def _state_spec(kind: str, params, path: Path) -> str:
    if kind == "werner":
        return f"werner:{params!r}"
    if kind == "product":
        ra, rb = (",".join(repr(float(x)) for x in r) for r in params)
        return f"product:{ra}:{rb}"
    path.write_text(json.dumps({"dim": 4, "re": params.real.tolist(), "im": params.imag.tolist()}))
    return str(path)


def _write_dirs(path: Path, d: np.ndarray) -> str:
    path.write_text(json.dumps({"directions": d.tolist()}))
    return str(path)


def cli(seed: int, workdir: Path) -> Workload:
    """Every pass runs each subcommand once on the same seeded input files,
    so the commands' mix does not depend on how many passes fit in a run.
    The direction file is a generic set of CLI_DIRECTIONS unit directions
    (degenerate and scaled sets are measured by direction_sets, where enough
    ops run to estimate their failure share; a fixed N keeps the memory of
    `verify`, whose lattice search allocates grid points x N, equal across
    seeds). The state and the witness and steering directions are drawn as
    in two_qubit."""
    rng = np.random.default_rng([seed, 4])
    workdir.mkdir(parents=True, exist_ok=True)
    kind = STATE_KINDS[int(rng.integers(len(STATE_KINDS)))]
    state = _state_spec(kind, _state_params(kind, rng), workdir / "state.json")
    dirs = _write_dirs(workdir / "dirs.json", _unit_rows(rng, CLI_DIRECTIONS))
    paired = _write_dirs(workdir / "paired.json", _unit_rows(rng, int(rng.integers(2, 5))))
    settings = workdir / "settings.json"
    settings.write_text(json.dumps(
        {"settings": [{"alice": d.tolist(), "bob": d.tolist()} for d in _unit_rows(rng, int(rng.integers(2, 5)))]}
    ))
    angles = [repr(t) for t in _realizable_triple(rng)]
    theta3 = repr(float(rng.uniform(0.0, math.pi)))
    items = [
        Item("incompat_dirs", ("incompat", "--dirs", dirs, "--json")),
        Item("incompat_angles", ("incompat", "--angles", *angles, "--json")),
        Item("table", ("table", "--theta3", theta3, "--csv")),
        Item("verify", ("verify", "--dirs", dirs, "--json")),
        Item("witness", ("witness", "--state", state, "--alice", paired, "--bob", paired, "--json")),
        Item("steer", ("steer", "--state", state, "--settings", str(settings), "--json")),
    ]
    shares = {"commands": list(CLI_COMMANDS), "directions": CLI_DIRECTIONS, "state_kind": kind}
    return Workload("cli", WHY["cli"], [items], shares)


# --- ops: each runs one operation of its workload on one generated input.
# They look functions up as module attributes at call time, so the tracer's
# wrappers take effect.


def op_direction_set(item):
    return incompat.incompatibility(item.args[0]).value


def op_angle_triple(item):
    return incompat.incompatibility_from_angles(*item.args)


def op_two_qubit(item):
    kind, params, alice, settings = item.args
    if kind == "werner":
        state = states.werner(params)
    elif kind == "product":
        state = states.product_state(*params)
    else:
        state = states.TwoQubitState(params)
    return criteria.entanglement_witness(state, alice, alice), criteria.steering_test(state, settings)


def op_cli_subprocess(item, root: Path, env: dict):
    proc = subprocess.run(
        [sys.executable, "-m", "spinbounds", *item.args],
        cwd=root, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def op_cli_in_process(item):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = sb_cli.main(list(item.args))
    return code, out.getvalue(), err.getvalue()


OPS = {
    "direction_sets": op_direction_set,
    "angle_grid": op_angle_triple,
    "two_qubit": op_two_qubit,
    "cli": op_cli_in_process,
}

WHY = {
    "direction_sets": "incompatibility() on N=2..128 sets, a quarter degenerate and a fifth scaled: every incompat layer and the known closed-form defects",
    "angle_grid": "incompatibility_from_angles() over a jittered [0,pi]^3 sweep: Gram check and closed form, no moment matrix or optimizer",
    "two_qubit": "build a Werner, product or random mixed state, then witness and steering tests: the states and criteria layers",
    "cli": "one python -m spinbounds subprocess per op over all five subcommands: interpreter start, imports, parsing, formatting, oracle",
}
