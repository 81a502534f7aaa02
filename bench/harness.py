"""Runs one workload: set-up probes, the timed closed loop, the reference
check, and (in a traced run) the per-layer spans.

Every workload is a closed loop with a single caller: the next op starts
only when the previous one has returned. The loop runs whole passes over
the workload's inputs and stops before a pass that would overrun the
requested seconds, so every run sees the same input mix. `attempted` and
`failed` count distinct inputs, not repetitions, so they do not depend on
the machine's speed either.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Callable

import numpy as np

import spinbounds

import baseline
import calibration
import reference as ref
import workloads
from reference import Raised
from tracing import ROOT, Tracer, layer_metric_names

PROBE = Path(__file__).with_name("probe.py")
SETUP_REPEATS = 9
CLI_TIMEOUT_S = 60
CLI_BASELINE_REPEATS = 5
TRACE_ROUNDS = 4

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("ok_frac", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
CLI_BASELINES = (
    ("cli.interpreter_start_us", ["-c", "pass"]),
    ("cli.import_numpy_us", ["-c", "import numpy"]),
    ("cli.import_spinbounds_us", ["-c", "import spinbounds"]),
)
PER_LAYER = tuple(layer_metric_names()) + tuple((name, "us") for name, _ in CLI_BASELINES) + (
    ("bench.trace_overhead_frac", "frac"),
)


@dataclass(frozen=True)
class Spec:
    generate: Callable
    expect: Callable
    check: Callable


SPECS = {
    "direction_sets": Spec(workloads.direction_sets, ref.expect_direction_set, ref.check_direction_set),
    "angle_grid": Spec(workloads.angle_grid, ref.expect_angle_triple, ref.check_angle_triple),
    "two_qubit": Spec(workloads.two_qubit, ref.expect_two_qubit, ref.check_two_qubit),
    "cli": Spec(workloads.cli, ref.expect_cli, ref.check_cli),
}


# --- the timed loop and the check ------------------------------------------


@dataclass
class Phase:
    """Outcomes of one timed loop. Per op: (pass, position, outcome, wall ns)
    and the scale from its wall time to nominal-host time; per pass: wall
    and nominal-host ns (calibration loops excluded)."""

    records: list = field(default_factory=list)
    factors: list = field(default_factory=list)
    pass_ns: list = field(default_factory=list)
    pass_nominal_ns: list = field(default_factory=list)
    calibration_s: list = field(default_factory=list)
    ok: list = field(default_factory=list)  # per op, filled by check()
    variants: int = 1  # len(passes): inputs repeat every `variants` passes


def closed_loop(passes: list, op: Callable, seconds: float, phase: Phase | None = None,
                calib: calibration.Calibrator = calibration.LOOP) -> Phase:
    """Run whole passes until the next one would overrun `seconds`, adding
    them to `phase` (a new one by default). After every `calib.chunk_ns`
    of ops a calibration point is taken, and each op is scaled by the
    points on either side of its chunk."""
    phase = phase or Phase(variants=len(passes))
    phase.calibration_s.append(calib.point_s(calib.chunk_ns))
    begin = perf_counter()
    first = p = len(phase.pass_ns)
    while True:
        items = passes[p % len(passes)]
        wall = nominal = 0.0
        chunk_start, chunk_first = perf_counter_ns(), len(phase.records)
        for pos, item in enumerate(items):
            t0 = perf_counter_ns()
            try:
                out = op(item)
            except Exception as exc:  # a failed op is counted, never fatal
                out = Raised(type(exc).__name__, str(exc))
            t1 = perf_counter_ns()
            phase.records.append((p, pos, out, t1 - t0))
            if t1 - chunk_start >= calib.chunk_ns or pos == len(items) - 1:
                phase.calibration_s.append(calib.point_s(t1 - chunk_start))
                f = calib.factor(phase.calibration_s[-2], phase.calibration_s[-1])
                phase.factors += [f] * (len(phase.records) - chunk_first)
                wall += t1 - chunk_start
                nominal += (t1 - chunk_start) * f
                chunk_start, chunk_first = perf_counter_ns(), len(phase.records)
        phase.pass_ns.append(wall)
        phase.pass_nominal_ns.append(nominal)
        p += 1
        elapsed = perf_counter() - begin
        if elapsed + elapsed / (p - first) > seconds:
            return phase


def check(phase: Phase, passes: list, spec: Spec, expected: dict, failed: dict) -> None:
    """Check every op against the reference. `expected` gathers the
    reference outcome of each input run; `failed` maps each input that
    failed at least once to (reason, input class, lies in a documented
    defect domain)."""
    for p, pos, out, _ in phase.records:
        key = (p % len(passes), pos)
        item = passes[key[0]][pos]
        if key not in expected:
            expected[key] = spec.expect(item)
        reason = spec.check(expected[key], out)
        phase.ok.append(reason is None)
        if reason is not None:
            failed.setdefault(key, (reason, item.kind, item.known_defect))


def ops_per_s(phase: Phase, nominal: bool = True) -> float:
    """Median over passes of verified-correct ops per second (nominal-host
    seconds, or wall seconds with nominal=False)."""
    per_pass = Counter()
    for (p, *_), ok in zip(phase.records, phase.ok):
        per_pass[p] += ok
    times = phase.pass_nominal_ns if nominal else phase.pass_ns
    return statistics.median(per_pass[p] / (ns / 1e9) for p, ns in enumerate(times))


def latencies_us(phase: Phase, nominal: bool = True) -> dict:
    """Latencies of the verified-correct ops, grouped by input."""
    per_input: dict = {}
    for (p, pos, _, ns), f, ok in zip(phase.records, phase.factors, phase.ok):
        if ok:
            per_input.setdefault((p % phase.variants, pos), []).append(ns * (f if nominal else 1.0) / 1e3)
    return per_input


def latency_percentile(per_input: dict, q: float) -> float:
    """The q-th percentile over inputs of each input's median latency. Every
    input runs once per pass, so its median over passes sheds the host's
    jitter and keeps what makes one input slower than another."""
    return float(np.percentile([statistics.median(v) for v in per_input.values()], q))


# --- set-up, memory and environment ---------------------------------------


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_python(args: list, root: Path, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=root, env=env, capture_output=True, text=True, check=True, timeout=CLI_TIMEOUT_S)


def setup_seconds(workload: str, root: Path, env: dict) -> list[float]:
    """Nominal-host seconds per fresh interpreter. A first, discarded probe
    fills the bytecode and file caches so every run measures the same state.
    Each probe is scaled by the numpy import timed in a child before and
    after it (see calibration.py)."""
    def once() -> float:
        return float(_run_python([str(PROBE), "setup", workload], root, env).stdout.split()[-1])

    once()
    imports = [calibration.child_s(env, root)[1]]
    probes = []
    for _ in range(SETUP_REPEATS):
        probes.append(once())
        imports.append(calibration.child_s(env, root)[1])
    return [t * calibration.NOMINAL_IMPORT_S / (0.5 * (a + b)) for t, a, b in zip(probes, imports, imports[1:])]


def cli_baselines(root: Path, env: dict) -> dict:
    """Subprocess wall times (us, medians, unscaled like the set-up probes):
    interpreter start, then what `import numpy` and `import spinbounds` add
    on top of the step before."""
    medians = []
    for _, args in CLI_BASELINES:
        samples = []
        for _ in range(CLI_BASELINE_REPEATS):
            t0 = perf_counter_ns()
            _run_python(args, root, env)
            samples.append((perf_counter_ns() - t0) / 1e3)
        medians.append(statistics.median(samples))
    return {name: m - (medians[i - 1] if i else 0.0) for i, ((name, _), m) in enumerate(zip(CLI_BASELINES, medians))}


def peak_rss_mb(workload: str, seed: int, cli_dir: Path, root: Path, env: dict) -> float:
    """Peak RSS of a fresh interpreter running one pass of the workload.
    Measured apart from the timed loop, whose record of every outcome grows
    with the number of ops and would otherwise count as the program's
    memory."""
    args = [str(PROBE), "rss", workload, str(seed), str(cli_dir)]
    return float(_run_python(args, root, env).stdout.split()[-1])


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref_name = text[5:]
    loose = root / ".git" / ref_name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref_name):
            return line.split()[0]
    return "unknown"


def metadata(root: Path, src: Path, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((src / "spinbounds").glob("*.py")):
        digest.update(path.read_bytes())
    blas = {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "commit": _commit(root),
        "source_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "spinbounds": spinbounds.__version__,
        "blas_threads": blas,
        "seed": seed,
        "holdout_seed": workloads.HOLDOUT_SEED,
    }


# --- one run ---------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, src: Path) -> int:
    spec = SPECS[workload]
    env = child_env(src)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    meta = metadata(root, src, seed)

    setup = setup_seconds(workload, root, env) if not trace else []

    cli_dir = out_dir / f"cli-inputs-seed{seed}"
    if workload == "cli":
        wl = spec.generate(seed, cli_dir)
    else:
        wl = spec.generate(seed)
    op = workloads.OPS[workload]
    if workload == "cli" and not trace:
        op = lambda item: workloads.op_cli_subprocess(item, root, env)  # noqa: E731
    for item in wl.passes[0][:3]:  # fill caches and lazy set-up before timing
        try:
            op(item)
        except Exception:  # outcomes are checked in the timed loop
            pass

    failed_inputs: dict = {}
    expected: dict = {}
    report = {"workload": workload, "why": wl.why, "meta": meta, "inputs": wl.shares}
    metrics: dict = {}
    units = dict(PER_LAYER if trace else END_TO_END)

    if trace:
        # Untraced and traced stretches alternate, so that both see the same
        # host and their ratio measures the tracing alone.
        untraced, traced = Phase(variants=len(wl.passes)), Phase(variants=len(wl.passes))
        tracer = Tracer()
        traced_op = tracer.wrap(op, ROOT)
        for _ in range(TRACE_ROUNDS):
            closed_loop(wl.passes, op, seconds / (2 * TRACE_ROUNDS), untraced)
            tracer.install("spinbounds")
            try:
                closed_loop(wl.passes, traced_op, seconds / (2 * TRACE_ROUNDS), traced)
            finally:
                tracer.restore()
        phases = [untraced, traced]
        for ph in phases:
            check(ph, wl.passes, spec, expected, failed_inputs)
        scale = statistics.median(traced.factors)
        for name, value in tracer.layer_metrics().items():
            metrics[name] = value * scale if units[name] == "us" else value
        base = cli_baselines(root, env) if workload == "cli" else {}
        metrics.update({name: base.get(name, 0.0) for name, _ in CLI_BASELINES})
        metrics["bench.trace_overhead_frac"] = 1.0 - ops_per_s(traced) / ops_per_s(untraced)
        e4 = out_dir / "e4.json"
        e4.write_text(json.dumps({"directions": [list(d) for d in baseline.E4]}))
        report["roadmap_baseline"] = baseline.measure(workload, env, root, e4)
        report["missing_layers"] = tracer.missing
        with gzip.open(out_dir / f"{tag}-spans.json.gz", "wt") as fh:
            json.dump(tracer.dump(), fh)
    else:
        calib = calibration.child_calibrator(env, root) if workload == "cli" else calibration.LOOP
        phase = closed_loop(wl.passes, op, seconds, calib=calib)
        phases = [phase]
        check(phase, wl.passes, spec, expected, failed_inputs)
        figures = {True: {}, False: {}}
        for nominal, out in figures.items():
            lat = latencies_us(phase, nominal)
            out["ops_per_s"] = ops_per_s(phase, nominal)
            out["latency_p50_us"] = latency_percentile(lat, 50)
            out["latency_p90_us"] = latency_percentile(lat, 90)
            pooled = np.concatenate([np.array(v) for v in lat.values()])
            p99 = float(np.percentile(pooled, 99))
            beyond = int(np.sum(pooled > p99))
            out["latency_p99_us"] = {"value": p99, "beyond": beyond, "samples": len(pooled)} if beyond >= 10 else None
        metrics.update(figures[True])
        report["latency_p99_us"] = metrics.pop("latency_p99_us")
        report["latency_samples"] = len(pooled)
        metrics["setup_s"] = statistics.median(setup)
        report["setup_runs_s"] = setup
        metrics["peak_rss_mb"] = peak_rss_mb(workload, seed, cli_dir, root, env)
        report["wall_clock"] = figures[False]
        report["calibration_nominal_s"] = calib.nominal_s

    # An op is one input of the workload, however often the loop repeated
    # it: the program is deterministic, so every repetition of an input has
    # the same outcome, and the counts do not depend on the host's speed.
    attempted = len(expected)
    failed = len(failed_inputs)
    failures = Counter((reason, kind) for reason, kind, _ in failed_inputs.values())
    unexpected = sum(not known for _, _, known in failed_inputs.values())
    if not trace:
        metrics["ok_frac"] = (attempted - failed) / attempted
    report["attempted"] = attempted
    report["failed"] = failed
    report["failed_frac"] = failed / attempted
    report["failures"] = [{"reason": r, "input": k, "count": c} for (r, k), c in sorted(failures.items())]
    report["unexpected_failures"] = unexpected
    report["executions"] = sum(len(ph.records) for ph in phases)
    report["failed_executions"] = sum(len(ph.ok) - sum(ph.ok) for ph in phases)
    report["passes"] = [len(ph.pass_ns) for ph in phases]
    report["pass_seconds"] = [[ns / 1e9 for ns in ph.pass_ns] for ph in phases]
    report["calibration_s"] = [ph.calibration_s for ph in phases]
    ordered = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    report["metrics"] = ordered
    (out_dir / f"{tag}.json").write_text(json.dumps(report, indent=1))

    _print_summary(report)
    result = {"correct": unexpected == 0, "attempted": attempted, "failed": failed, "metrics": ordered}
    print(json.dumps(result))
    return 0


def _print_summary(report: dict) -> None:
    m = report["meta"]
    print(f"workload {report['workload']}: {report['why']}")
    print(f"  commit {m['commit']} src {m['source_sha256']} nproc {m['nproc']} python {m['python']} "
          f"numpy {m['numpy']} blas_threads {m['blas_threads']} seed {m['seed']} (holdout {m['holdout_seed']})")
    print(f"  inputs {json.dumps(report['inputs'])}")
    print(f"  inputs attempted {report['attempted']}, failed {report['failed']} (failed_frac "
          f"{report['failed_frac']:.6f}, outside known defects {report['unexpected_failures']}); "
          f"executions {report['executions']} in passes {report['passes']}, failed {report['failed_executions']}")
    for f in report["failures"]:
        print(f"    failure: {f['reason']} on {f['input']}: {f['count']}")
    if "latency_samples" in report:
        p99 = report["latency_p99_us"]
        print(f"  latency samples {report['latency_samples']}; latency_p99_us "
              + (f"{p99['value']:.3f} us ({p99['beyond']} beyond)" if p99 else "not reported: fewer than 10 samples beyond it"))
    for name, v in report["metrics"].items():
        print(f"  {name} = {v['value']:.6g} {v['unit']}")
    for row in report.get("roadmap_baseline", []):
        flag = "DIFFERS" if row["differs"] else "ok"
        print(f"  roadmap {row['row']}: {row['roadmap_us']:.4g} us, now {row['measured_us']:.4g} us "
              f"(x{row['ratio']:.2f}) {flag}")
    if report.get("missing_layers"):
        print(f"  layers missing from the package (0 calls): {report['missing_layers']}")
