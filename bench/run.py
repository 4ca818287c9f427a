"""heismin benchmark: seeded workloads through the public API, checked
against oracles, with end-to-end metrics from untraced runs and per-layer
metrics from a traced run.

    python3 bench/run.py --workload quadrature --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; heismin is imported from its src/
directory, so there is nothing to build.  Every run starts fresh child
interpreters (bench/worker.py) with HEISMIN_THREADS removed and the
BLAS/OpenMP pools pinned to one thread.  --trace 0 reports the end-to-end
metrics of BENCHMARK.json (setup_s, wall_ref, peak_rss_mb); --trace 1
reports the per-layer metrics.  Times in "ref" units are seconds divided
by the time of a fixed reference loop run right before and after each
op, which cancels the host's CPU-speed swings.  A
human-readable report comes first on stdout, and the last line is one
JSON object with the keys correct, attempted, failed and metrics.  Raw
samples, the environment record and the spans of a traced run are written
under .bench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("quadrature", "grid", "ode")
SETUP_REPEATS = 7
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BUDGET_S = 170.0  # the whole run, children included


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("HEISMIN_THREADS", "PYTHONPATH")}
    env.update({k: "1" for k in PINNED})
    return env


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


class Runner:
    def __init__(self, args):
        self.args = args
        self.env = child_env()
        self.deadline = time.monotonic() + BUDGET_S

    def worker(self, mode, out=None):
        a = self.args
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
               "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", str(a.trace), "--mode", mode]
        if out:
            cmd += ["--out", out]
        # the child's stdout goes to our stderr: our last stdout line is the
        # result.  A watchdog enforces the deadline, because wait(timeout)
        # polls in steps of up to 50 ms and would blur the set-up times.
        proc = subprocess.Popen(cmd, env=self.env, stdout=sys.stderr)
        watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        if code != 0:
            late = " (past the deadline)" if time.monotonic() >= self.deadline else ""
            raise RuntimeError(f"worker --mode {mode} exited with {code}{late}")

    def setup_times(self):
        """Fresh-interpreter set-up time (import heismin, build the inputs),
        after one warm-up that fills the bytecode cache."""
        self.worker("setup")
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.worker("setup")
            times.append(time.perf_counter() - t0)
        return times


def report_line(name, unit, values):
    q1, med, q3 = quartiles(values)
    return (f"  {name:<40} {med:>14.6g} {unit:<6} q1 {q1:.6g}  q3 {q3:.6g}  "
            f"n {len(values)}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "heismin", "__init__.py")):
        print(f"error: no heismin sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    raw_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}-raw.json")
    runner = Runner(args)
    try:
        setup = [] if args.trace else runner.setup_times()
        runner.worker("run", raw_path)
        with open(raw_path) as fh:
            raw = json.load(fh)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed, attempted = len(raw["failures"]), raw["attempted"]
    print(f"heismin benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(raw['passes'])}")
    print("environment " + json.dumps(raw["environment"], sort_keys=True))
    for msg in raw["failures"]:
        print(f"  FAILED {msg}")
    if args.trace:
        metrics = raw["layers"]
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    else:
        print("end-to-end (median, quartiles, samples):")
        rows = [("setup_s", "s", setup), ("wall_ref", "ref", raw["passes_ref"]),
                ("peak_rss_mb", "MB", [raw["peak_rss_mb"]]), ("wall_s", "s", raw["passes"])]
        for m, v in raw["ops"].items():
            rows += [(m, "s", v), (m[:-2] + "_ref", "ref", raw["ops_ref"][m])]
        for name, unit, values in rows:
            print(report_line(name, unit, values))
        print(f"  {'fail_ratio':<40} {failed / attempted:>14.6g} ratio  "
              f"({failed} of {attempted} ops)")
        print("per op (median s):")
        for label, values in raw["by_label"].items():
            print(f"  {label:<40} {statistics.median(values):>14.6g} s")
        metrics = {name: {"value": statistics.median(values), "unit": unit}
                   for name, unit, values in rows[:3]}
        raw["setup_s"] = setup
        with open(raw_path, "w") as fh:
            json.dump(raw, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
