"""The toricgh benchmark: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload combinatorial --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Workloads: combinatorial, geometric, scale (see perfbench/README.md).
The run measures in fresh child processes with the checkout's ``src`` on
PYTHONPATH and BLAS pinned to one thread.  ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` the per-layer ones.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run exits non-zero, with
no such line, when the program cannot be imported or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("combinatorial", "geometric", "scale")
SETUP_PROBES = 5            # set-up samples besides the measuring process itself
BLAS_THREADS = "1"          # one thread in every child, on every commit measured
CHILD_TIMEOUT = 170


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def remove_workdir(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(workdir))     # only once no other run uses it
    except OSError:
        pass


def run_child(argv, deadline):
    """Run worker.py; returns (parsed last stdout line, monotonic start)."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(argv[:2])} exited with {proc.returncode}")
    return json.loads(lines[-1]), start


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return bench["end_to_end"], bench["per_layer"]


def report_trace(result, workload):
    layers = result["layers"]
    wall = layers["wall_s"]
    print(f"traced pass {wall:.3f} s; self time by layer (share of traced wall):")
    for layer, calls in layers["calls"].items():
        s = layers["self_s"][layer]
        print(f"  {layer:<13} calls {calls:>9}  self {s:8.3f} s  {100 * s / wall:5.1f} %")
    m = result["metrics"]
    print(f"  {'(no span)':<13} {'':>15}  share {100 * m['trace.uncovered_share']:5.1f} %")
    print(f"  tracing overhead {100 * m['trace.overhead_ratio']:.1f} % of the untraced pass")
    shares = {k: v / wall for k, v in layers["self_s"].items()}
    geometry = m["geometry.kernel_calls"] + m["geometry.facet_enumeration_calls"]
    if workload == "geometric":
        checks = [("geometry carries the largest self-time share",
                   max(shares, key=shares.get) == "geometry")]
    elif workload == "scale":
        others = max(v for k, v in layers["self_s"].items() if k != "lattice")
        checks = [("geometry makes no call", geometry == 0),
                  ("lattice.build_self_s is the largest share", m["lattice.build_self_s"] >= others)]
    else:
        hot = (shares["toric"] + shares["verma"] + m["lattice.sublattice_s"] / wall)
        checks = [("geometry makes no call", geometry == 0),
                  ("toric + verma + lattice.sublattice_s carry most of the wall", hot > 0.5)]
    for text, ok in checks:
        print(f"  prediction {'holds' if ok else 'MISSED'}: {text}")


def measure(args):
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    deadline = time.monotonic() + CHILD_TIMEOUT
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            # the first probe also compiles bytecode; it is not a sample
            for i in range(SETUP_PROBES + 1):
                probe, start = run_child(
                    common + ["--setup-only", "--workdir", os.path.join(workdir, f"probe{i}")],
                    deadline)
                if i:
                    setups.append(probe["ready"] - start)
        result, start = run_child(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--workdir", os.path.join(workdir, "run")],
            deadline)
        setups.append(result["ready"] - start)
    finally:
        remove_workdir(workdir)

    end_to_end, per_layer = declared_metrics()
    values = dict(result["metrics"])
    values["setup_s"] = statistics.median(setups)
    wanted = per_layer if args.trace else end_to_end
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"worker did not measure {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print(f"machine: {json.dumps(result['machine'])}")
    print(f"passes: {result['passes']}, rows per pass {result['rows_per_pass']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  fail_ratio = {result['failed'] / result['attempted']:.6g} ratio"
          f" ({result['failed']} of {result['attempted']} rows)")
    if not args.trace:
        print("  times above are at nominal host speed; as measured here:"
              f" wall_s {result['raw']['wall_s']:.6g} s,"
              f" row_p50_ms {result['raw']['row_p50_ms']:.6g} ms,"
              f" row_p90_ms {result['raw']['row_p90_ms']:.6g} ms;"
              f" median scale factor per pass {result['host_speed']}")
    if args.trace:
        report_trace(result, args.workload)
    for problem in result["problems"]:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    correct = result["failed"] == 0 and not result["problems"]
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    }))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="show that a corrupted reference value fails a row")
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "toricgh")):
        sys.exit(f"no toricgh sources under {ROOT}/src")
    if args.self_test:
        workdir = os.path.join(ROOT, ".perfbench_work", f"self-test-{os.getpid()}")
        try:
            code = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), "--self-test",
                 "--workdir", workdir],
                env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT).returncode
        finally:
            remove_workdir(workdir)
        sys.exit(code)
    if args.workload is None:
        ap.error("--workload is required")
    try:
        measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        sys.exit(f"benchmark failed: {e}")


if __name__ == "__main__":
    main()
