"""One workload run in a fresh interpreter; started by run.py.

--mode setup imports heismin and builds the inputs, then exits (run.py
times it).  --mode run makes one warm-up pass over the workload's ops,
measures untraced passes for --seconds (at least one) and, with --trace 1,
makes one more pass with every heismin layer wrapped in spans.  Raw
samples and the environment record go to --out as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

RECORDED_ENV = ("HEISMIN_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--mode", choices=["setup", "run"], default="run")
    p.add_argument("--out")
    return p.parse_args(argv)


def import_program(root):
    src = os.path.abspath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import heismin

    where = os.path.dirname(os.path.abspath(heismin.__file__))
    if where != os.path.join(src, "heismin"):
        raise SystemExit(f"heismin imported from {where}, not from {src}")


def git_revision(root):
    """HEAD of the checkout, read from .git without running git; None
    outside a git checkout."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def environment(args):
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "revision": git_revision(args.root),
            "env": {k: os.environ.get(k) for k in RECORDED_ENV}}


def reference_loop():
    """A fixed pure-Python loop (about 10 ms).  Timed right before and
    after every op, it tracks the host's CPU speed, which on a shared
    machine swings by 1.5x within seconds."""
    s = 0.0
    for i in range(150_000):
        s += i * 0.5
    return s


def reference_time():
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def one_pass(ops, record, tracer=None):
    """Run every op once and check each result (checks are not timed).
    Each op's time is recorded in seconds and in reference-loop units:
    seconds divided by the mean of the loop's time before and after."""
    for op in ops:
        if tracer is not None:
            tracer.begin_op(op.label)
        error = None
        before = reference_time()
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failing op is counted, the run goes on
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        after = reference_time()
        if error is None:
            try:
                op.check(out)
            except Exception as exc:  # includes malformed output
                error = f"{type(exc).__name__}: {exc}"
        record(op, dt, 2.0 * dt / (before + after), error)


def measure(args, ctx, ops, out_dir):
    import workloads

    metrics = workloads.OP_METRICS[args.workload]
    samples = {m: [] for m in metrics}
    samples_ref = {m: [] for m in metrics}
    by_label = {op.label: [] for op in ops}
    failures = []
    attempted = 0
    keep = False
    this_pass = []

    def record(op, dt, ref, error):
        nonlocal attempted
        attempted += 1
        if error is not None:
            failures.append(f"{op.label}: {error}")
        this_pass.append((op, dt, ref))

    def close_pass():
        """Turn the ops of one pass into samples; returns (s, ref) totals."""
        if keep:
            for op, dt, _ in this_pass:
                by_label[op.label].append(dt)
            for m in metrics:
                samples[m].append(sum(dt for op, dt, _ in this_pass if op.metric == m))
                samples_ref[m].append(sum(r for op, _, r in this_pass if op.metric == m))
        totals = (sum(dt for _, dt, _ in this_pass), sum(r for _, _, r in this_pass))
        this_pass.clear()
        return totals

    # one warm-up pass: its results are checked, its times are not kept
    one_pass(ops, record)
    close_pass()
    keep = True
    passes, passes_ref = [], []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < args.seconds:
        one_pass(ops, record)
        wall, wall_ref = close_pass()
        passes.append(wall)
        passes_ref.append(wall_ref)
    result = {"passes": passes, "passes_ref": passes_ref,
              "ops": samples, "ops_ref": samples_ref, "by_label": by_label,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        ctx.tracer = tracer
        keep = False
        one_pass(ops, record, tracer)
        traced_wall, _ = close_pass()
        result["traced_wall_s"] = traced_wall
        result["layers"] = spans.layer_metrics(tracer, traced_wall - statistics.median(passes))
        result["spans"] = tracer.summary()
        tracer.save(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-spans.npz"))
    result["attempted"] = attempted
    result["failures"] = failures
    return result


def main(argv=None):
    args = parse_args(argv)
    import_program(args.root)
    import workloads

    out_dir = os.path.join(args.root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="ops-", dir=out_dir)
    try:
        ctx = workloads.Context(scratch)
        ops = workloads.build(args.workload, args.seed, ctx)
        if args.mode == "setup":
            return 0
        result = measure(args, ctx, ops, out_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["environment"] = environment(args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
