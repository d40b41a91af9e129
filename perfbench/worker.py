"""One benchmark process: set up a workload, then time passes over its rows.

Started by run.py with the source tree on PYTHONPATH and BLAS pinned to
one thread.  Prints one JSON object on stdout; diagnostics go to stderr.

  --setup-only   import, read the reference and write the inputs, then
                 report the monotonic clock and exit (set-up probes)
  --self-test    corrupt one reference value per workload and show that
                 exactly the rows comparing it fail
  --trace 0      passes untraced until --seconds are used up, with
                 a calibration probe after every row (see calibration.py)
  --trace 1      untraced and traced passes alternate; the traced ones
                 give the per-layer metrics, the pairs the overhead
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PROBE_WINDOW = 6            # a row is scaled by the median of the 6 probes before and 6 after it

# The layers a workload exists to exercise: a traced run in which one of
# them records no call at all is reported as incorrect.
DOMINANT = {
    "combinatorial": ("lattice", "toric", "verma"),
    "geometric": ("geometry", "shelling", "rigidity", "localization"),
    "scale": ("lattice", "toric", "catalog"),
}


def machine():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def failures(rows):
    out = []
    for r in rows:
        if r.failed:
            why = r.error or ("failing verdict" if not r.verdict else
                              f"observed {r.observed} != reference {r.expected}")
            out.append(f"{r.kind} x {r.instance}: {why}")
    return out


# (workload, reference field corrupted, row kinds that must then fail)
CORRUPTIONS = (
    ("combinatorial", "h", {"ds", "kalai-identity"}),
    ("geometric", "stress", {"rigidity"}),
    ("scale", "quotient_g", {"monotonicity"}),
)


def self_test(W, ref, workdir):
    ok = True
    for workload, field, kinds in CORRUPTIONS:
        instances = W.prepare(workload, 1, ref, workdir)
        inst = min(instances, key=lambda i: i.ref["n_faces"])
        inst.ref = copy.deepcopy(inst.ref)
        inst.faces = copy.deepcopy(inst.faces[:1])
        clean = failures(W.run_pass(workload, [inst], 1))
        if field == "quotient_g":
            inst.faces[0][field][0] += 1
        elif field == "h":
            inst.ref[field][1] += 1
        else:
            inst.ref[field] += 1
        rows = W.run_pass(workload, [inst], 1)
        failed = {r.kind for r in rows if r.failed}
        good = not clean and failed == kinds and all(r.error is None for r in rows)
        ok &= good
        print(f"{'PASS' if good else 'FAIL'}  {workload} x {inst.name}: corrupted reference "
              f"{field!r} fails {sorted(failed)} of {len(rows)} rows (expected {sorted(kinds)})")
        for line in failures(rows):
            print(f"      {line}")
    return ok


class Speed:
    """A calibration probe after every row of one pass.

    The host's speed drifts within a pass too, so each row is scaled by
    the probes taken around it rather than by the whole pass's.  Probes
    follow rows, not the clock: a probe allocates, so probing at times
    that differ from run to run would move the collector's and the
    allocator's state, and with them the peak memory, between runs.
    """

    def __init__(self):
        self.samples = [calibration.probe()]

    def after_row(self):
        self.samples.append(calibration.probe())

    def scales(self):
        """Per row, the factor that turns its time into time at nominal speed."""
        return [
            calibration.NOMINAL_S
            / statistics.median(self.samples[max(k + 1 - PROBE_WINDOW, 0):k + 1 + PROBE_WINDOW])
            for k in range(len(self.samples) - 1)
        ]


def timed_pass(W, args, instances, tracer=None, speed=None):
    # every pass starts from the same collector state, so the costly
    # collections fall on much the same rows in every pass
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        if speed is None:
            rows = W.run_pass(args.workload, instances, args.seed)
        else:
            rows = W.run_pass(args.workload, instances, args.seed, after_row=speed.after_row)
        wall = time.perf_counter() - t0
        print(f"pass wall {wall:.3f} s cpu {time.process_time() - c0:.3f} s"
              f"{' traced' if tracer else ''}"
              f"{f' probe {1e3 * statistics.median(speed.samples):.3f} ms' if speed else ''}",
              file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, rows


def timings(pass_rows):
    """End-to-end timings from per-row latencies of several passes.

    Each row's median over the passes: a burst of host slowness during one
    pass moves none of the metrics.
    """
    per_row = [statistics.median(times) for times in zip(*pass_rows)]
    return {
        "wall_s": sum(per_row),
        "row_p50_ms": 1e3 * statistics.median(per_row),
        "row_p90_ms": 1e3 * statistics.quantiles(per_row, n=10, method="inclusive")[8],
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    import toricgh
    import workloads as W

    if not os.path.abspath(toricgh.__file__).startswith(SRC + os.sep):
        sys.exit(f"toricgh imported from {toricgh.__file__}, not from {SRC}")
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    if args.self_test:
        sys.exit(0 if self_test(W, ref, args.workdir) else 1)
    instances = W.prepare(args.workload, args.seed, ref, args.workdir)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    deadline = time.perf_counter() + args.seconds
    walls = {False: [], True: []}
    pass_rows, raw_rows, scales, layer_runs, problems = [], [], [], [], []
    attempted = failed = 0
    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        speed = Speed() if tracer is None else None
        wall, rows = timed_pass(W, args, instances, tracer if traced else None, speed)
        walls[traced].append(wall)
        attempted += len(rows)
        bad = failures(rows)
        failed += len(bad)
        for line in bad[:5]:
            print(f"FAILED ROW {line}", file=sys.stderr)
        if traced:
            m = tracer.layer_metrics()
            m["trace.uncovered_share"] = (wall - tracer.covered_s()) / wall
            m["trace.absent_bindings"] = len(tracer.absent)
            layer_runs.append((m, tracer.layer_calls(), tracer.layer_self()))
        elif speed is not None:
            factors = speed.scales()
            scales.append(statistics.median(factors))
            raw_rows.append([r.seconds for r in rows])
            pass_rows.append([r.seconds * f for r, f in zip(rows, factors)])
        complete = tracer is None or walls[True]
        if complete and time.perf_counter() + max(walls[False] + walls[True]) > deadline:
            break

    result = {
        "attempted": attempted, "failed": failed, "ready": ready,
        "passes": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "rows_per_pass": len(rows), "machine": machine(),
    }
    if tracer is None:
        result["metrics"] = timings(pass_rows) | {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["raw"] = timings(raw_rows)
        result["host_speed"] = [round(x, 4) for x in scales]
    else:
        metrics = {
            k: statistics.median(run[0][k] for run in layer_runs) for k in layer_runs[0][0]
        }
        metrics["trace.overhead_ratio"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1
        )
        calls = layer_runs[0][1]
        for layer in DOMINANT[args.workload]:
            if not calls[layer]:
                problems.append(f"layer {layer} recorded no call on {args.workload}")
        for name in tracer.absent:
            print(f"trace: binding {name} is absent or unwrapped", file=sys.stderr)
        result["metrics"] = metrics
        result["layers"] = {
            "calls": calls,
            "self_s": {k: statistics.median(run[2][k] for run in layer_runs) for k in calls},
            "wall_s": statistics.median(walls[True]),
        }
    result["problems"] = problems
    print(json.dumps(result))


if __name__ == "__main__":
    main()
