"""Measurements that need a fresh interpreter.

    python bench/probe.py setup <workload>
        Prints the seconds taken to import spinbounds and make the warm-up
        calls of the workload's entry points (interpreter start excluded).
    python bench/probe.py rss <workload> <seed> <cli input dir>
        Runs one pass of the workload's ops on its generated inputs in this
        process (cli ops through `cli.main`) and prints the peak resident
        set size in MB.

The package source must be on PYTHONPATH.
"""

import sys
import time

t0 = time.perf_counter()

import io  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

import spinbounds as sb  # noqa: E402

XYZ = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
E4 = [(1.0, 0.0, 0.0), (0.5, 0.75**0.5, 0.0), (0.5, 0.5, 0.5**0.5), (3**-0.5,) * 3]


def warm_up(workload: str) -> None:
    if workload == "direction_sets":
        sb.incompatibility(E4)
    elif workload == "angle_grid":
        sb.incompatibility_from_angles(1.0, 1.2, 1.4)
    elif workload == "two_qubit":
        sb.entanglement_witness(sb.werner(0.5), XYZ, XYZ)
        sb.steering_test(sb.product_state((0.1, 0.2, 0.3), (0.0, 0.0, 0.5)), [(d, d) for d in XYZ])
    elif workload == "cli":
        from spinbounds import cli

        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            cli.main(["incompat", "--angles", "1.0", "1.2", "1.4", "--json"])
            cli.main(["table", "--csv"])
    else:
        raise SystemExit(f"unknown workload {workload!r}")


def peak_rss_mb(workload: str, seed: int, cli_dir: str) -> float:
    """High-water RSS of this process after one pass. Read from VmHWM, which
    belongs to this process's own address space; getrusage's ru_maxrss
    would also carry the parent's high-water mark across fork and exec."""
    from pathlib import Path

    import workloads

    if workload == "cli":
        wl = workloads.cli(seed, Path(cli_dir))
    else:
        wl = getattr(workloads, workload)(seed)
    op = workloads.OPS[workload]
    for item in wl.passes[0]:
        try:
            op(item)
        except (ArithmeticError, ValueError):
            pass  # failures are counted by the timed loop, not here
    with open("/proc/self/status") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return kb / 1024.0


if __name__ == "__main__":
    mode, workload = sys.argv[1], sys.argv[2]
    if mode == "setup":
        warm_up(workload)
        print(repr(time.perf_counter() - t0))
    elif mode == "rss":
        print(repr(peak_rss_mb(workload, int(sys.argv[3]), sys.argv[4])))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
