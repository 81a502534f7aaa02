"""Tests of the benchmark's own parts: the generator, the reference checks
and the tracer. Run with `python -m pytest bench/test_bench.py`."""

import json
import pickle
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import harness  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from reference import Raised  # noqa: E402
from spinbounds import incompat  # noqa: E402
from tracing import LAYERS, ROOT, Tracer  # noqa: E402

XYZ = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]


def _fingerprint(wl) -> list:
    return [pickle.dumps((it.kind, it.args, it.known_defect)) for items in wl.passes for it in items]


@pytest.mark.parametrize("make", [workloads.direction_sets, workloads.angle_grid, workloads.two_qubit])
def test_generator_is_deterministic_per_seed(make):
    first, again, other = make(5), make(5), make(6)
    assert _fingerprint(first) == _fingerprint(again)
    assert first.shares == again.shares
    assert _fingerprint(first) != _fingerprint(other)


def test_cli_generator_is_deterministic_per_seed(tmp_path):
    def snapshot(seed, name):
        wl = workloads.cli(seed, tmp_path / name)
        argv = [[a.replace(str(tmp_path / name), "<dir>") for a in it.args] for items in wl.passes for it in items]
        files = {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}
        return argv, files

    assert snapshot(5, "a") == snapshot(5, "b")
    assert snapshot(5, "a") != snapshot(6, "c")


def test_direction_sets_realize_the_stated_mix():
    shares = workloads.direction_sets(0).shares
    assert shares["degenerate_share"] == 0.25
    assert shares["scaled_share"] == 0.2
    assert shares["unit_share_before_scaling"] == 0.5
    assert set(shares["degenerate_families"]) == set(workloads.DEGENERATE_FAMILIES)


def test_direction_sets_draw_only_the_defect_domains_from_the_panel_seed():
    def split(wl):
        items = wl.passes[0]
        return (sorted(pickle.dumps(it.args) for it in items if it.known_defect),
                sorted(pickle.dumps(it.args) for it in items if not it.known_defect))

    (panel_a, rest_a), (panel_b, rest_b) = split(workloads.direction_sets(5)), split(workloads.direction_sets(6))
    assert panel_a == panel_b
    assert rest_a != rest_b


def test_check_catches_value_off_by_1e_6():
    item = next(
        it for it in workloads.direction_sets(0).passes[0]
        if not it.known_defect and ref.expect_direction_set(it)[1] < 100.0
    )
    expected = ref.expect_direction_set(item)
    value = incompat.incompatibility(item.args[0]).value
    assert ref.check_direction_set(expected, value) is None
    assert ref.check_direction_set(expected, value + 1e-6) == "wrong value"


def test_check_catches_wrong_rejection_and_missed_rejection():
    items = workloads.angle_grid(0).passes[0]
    good = next(it for it in items if ref.expect_angle_triple(it) is not None)
    bad = next(it for it in items if ref.expect_angle_triple(it) is None)
    rejection = Raised("ValueError", "angle triple is not realizable")
    assert ref.check_angle_triple(ref.expect_angle_triple(good), rejection) == "wrong rejection"
    assert ref.check_angle_triple(ref.expect_angle_triple(bad), rejection) is None
    assert ref.check_angle_triple(ref.expect_angle_triple(bad), 1.0) == "missed rejection"


def test_check_catches_wrong_two_qubit_statistics():
    item = workloads.two_qubit(0).passes[0][0]
    expected = ref.expect_two_qubit(item)
    witness, steering = workloads.op_two_qubit(item)
    assert ref.check_two_qubit(expected, (witness, steering)) is None
    flipped = type(witness)(witness.variance_sum, witness.bound, not witness.violated, witness.margin)
    assert ref.check_two_qubit(expected, (flipped, steering)) == "wrong verdict"
    shifted = type(witness)(witness.variance_sum + 1e-6, witness.bound, witness.violated, witness.margin)
    assert ref.check_two_qubit(expected, (shifted, steering)) == "wrong variance sum"


def test_cli_check_counts_traceback_and_exit_code(tmp_path):
    item = workloads.cli(0, tmp_path).passes[0][0]
    expected = ref.expect_cli(item)
    code, stdout, stderr = workloads.op_cli_in_process(item)
    assert ref.check_cli(expected, (code, stdout, stderr)) is None
    assert ref.check_cli(expected, (1, "", "Traceback (most recent call last):\n")) == "traceback"
    assert ref.check_cli(expected, (1, "", "error: bad input\n")) == "exit code 1"


def test_missing_layer_reports_zero_calls_and_restore_undoes_patches(monkeypatch):
    import spinbounds

    original = incompat.incompatibility
    monkeypatch.delattr(incompat, "incompatibility_from_angles")
    monkeypatch.delattr(spinbounds, "incompatibility_from_angles")
    tracer = Tracer()
    tracer.install("spinbounds", LAYERS)
    try:
        assert incompat.incompatibility is not original
        tracer.wrap(lambda: incompat.incompatibility(XYZ), ROOT)()
    finally:
        tracer.restore()
    assert incompat.incompatibility is original
    assert "incompat.incompatibility_from_angles" in tracer.missing
    metrics = tracer.layer_metrics()
    assert metrics["incompat.from_angles.calls_per_op"] == 0
    assert metrics["incompat.incompatibility.calls_per_op"] == 1


def test_self_times_never_exceed_the_op_wall_time(tmp_path):
    ops = [
        (workloads.op_direction_set, workloads.direction_sets(1).passes[0][:20]),
        (workloads.op_angle_triple, workloads.angle_grid(1).passes[0][:20]),
        (workloads.op_two_qubit, workloads.two_qubit(1).passes[0][:6]),
        (workloads.op_cli_in_process, workloads.cli(1, tmp_path).passes[0]),
    ]
    tracer = Tracer()
    tracer.install("spinbounds", LAYERS)
    try:
        for op, items in ops:
            traced = tracer.wrap(op, ROOT)
            for item in items:
                try:
                    traced(item)
                except (ArithmeticError, ValueError):
                    pass  # known defects and angle rejections still close their spans
    finally:
        tracer.restore()
    own = tracer.self_ns()
    assert min(own) >= 0
    roots = [i for i, name in enumerate(tracer.names) if name == ROOT] + [len(own)]
    assert len(roots) - 1 == sum(len(items) for _, items in ops)
    for begin, end in zip(roots, roots[1:]):
        wall = tracer.end[begin] - tracer.start[begin]
        assert sum(own[begin + 1:end]) <= wall


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(harness.SPECS)
    assert [w["why"] for w in spec["workloads"]] == [workloads.WHY[n] for n in harness.SPECS]
