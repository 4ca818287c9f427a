"""Self-test of the benchmark's oracles.

Runs every operation of every workload once (seed 0), checks that its
oracle accepts the program's real result, then feeds the oracle
perturbed copies of that result and checks that each one is rejected.
Exits 0 when every oracle accepts the real result and rejects every
perturbation.

    python3 bench/selfcheck.py
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402


def csv_cell(name, row, col, delta):
    """Add delta to one cell of a CSV output file."""
    def perturb(out, files):
        lines = files[name].split("\n")
        cells = lines[row + 1].split(",")
        cells[col] = repr(float(cells[col]) + delta)
        lines[row + 1] = ",".join(cells)
        return out, {**files, name: "\n".join(lines)}
    return perturb


def csv_drop_last(name):
    def perturb(out, files):
        return out, {**files, name: "\n".join(files[name].rstrip("\n").split("\n")[:-1]) + "\n"}
    return perturb


def obj_line(name, index, edit):
    """Apply edit to the index-th line (a list of fields) of an OBJ file."""
    def perturb(out, files):
        lines = files[name].split("\n")
        fields = lines[index].split(" ")
        edit(fields)
        lines[index] = " ".join(fields)
        return out, {**files, name: "\n".join(lines)}
    return perturb


def nudge_field(i, delta):
    def edit(fields):
        fields[i] = repr(float(fields[i]) + delta)
    return edit


def swap_face(fields):
    fields[1], fields[2] = fields[2], fields[1]


def _walk(obj, path):
    for key in path[:-1]:
        obj = obj[key]
    return obj, path[-1]


def _add(obj, path, delta):
    parent, key = _walk(obj, path)
    parent[key] = parent[key] + delta


def _put(obj, path, new):
    parent, key = _walk(obj, path)
    parent[key] = new


def payload(edit):
    """Edit the JSON a CLI op printed."""
    def perturb(out, files):
        rc, text = out
        data = json.loads(text)
        edit(data)
        return (rc, json.dumps(data)), files
    return perturb


def payload_add(delta, *path):
    return payload(lambda d: _add(d, path, delta))


def payload_put(new, *path):
    return payload(lambda d: _put(d, path, new))


def exit_code(code):
    def perturb(out, files):
        return (code, out[1]), files
    return perturb


def value(edit):
    """Edit a library op's returned value."""
    def perturb(out, files):
        out = copy.deepcopy(out)
        edit(out)
        return out, files
    return perturb


def value_add(delta, *path):
    return value(lambda o: _add(o, path, delta))


def value_put(new, *path):
    return value(lambda o: _put(o, path, new))


FEATURE = ("singular", "features", 0)


def _halve_polyline(d):
    f = d["singular"]["features"][0]
    f["polyline"] = f["polyline"][: len(f["polyline"]) // 2]


PERTURBATIONS = {
    "zeta round trip": [
        ("rebuilt zeta2 off by 1e-5", value_add(1e-5, "z2b", 5)),
        ("rebuilt zeta1 bent by 1e-5", value_add(1e-5, "z1b", 7)),
        ("zeta1 of the curve off by 1e-6", value_add(1e-6, "z1", 3)),
    ],
    "integrability H=2": [
        ("residual above 1e-6", value_put(2e-6, "residual")),
        ("b off by 1e-6", value_add(1e-6, "ab", 4, 1)),
        ("a off by 1e-6", value_add(1e-6, "ab", 7, 0)),
    ],
    "construct --obj": [
        ("zeta1 off by 1e-7", payload_add(1e-7, "zeta1", 3, 1)),
        ("special type I claimed", payload_put(True, "special_type_I")),
        ("ruling vertex bent by 1e-6", obj_line("construct.obj", 5 * 48 + 9, nudge_field(3, 1e-6))),
        ("exit code 2", exit_code(2)),
    ],
    "metric 201x101": [
        ("a off by 1e-9", csv_cell("metric.csv", 1234, 3, 1e-9)),
        ("b off by 1e-9", csv_cell("metric.csv", 20000, 4, 1e-9)),
        ("alpha off by 1e-9", csv_cell("metric.csv", 7, 2, 1e-9)),
        ("last row missing", csv_drop_last("metric.csv")),
    ],
    "verify-graph plane": [
        ("singular point moved by 1e-6", payload_add(1e-6, *FEATURE, "point", 0)),
        ("pmge residual 1e-7", payload_put(1e-7, "max_pmge_residual")),
        ("reported as a curve", payload_put("Curve", *FEATURE, "kind")),
    ],
    "verify-graph saddle": [
        ("reported as an isolated point", payload_put("IsolatedPoint", *FEATURE, "kind")),
        ("polyline point off the curve by 1e-6", payload_add(1e-6, *FEATURE, "polyline", 2, 0)),
        ("polyline cut in half", payload(_halve_polyline)),
        ("second feature", payload(lambda d: d["singular"]["features"].append({"kind": "Curve"}))),
    ],
    "examples conicoid --obj": [
        ("vertex off by 1e-9", obj_line("conicoid.obj", 4321, nudge_field(2, 1e-9))),
        ("face corners swapped", obj_line("conicoid.obj", 200 * 200 + 17, swap_face)),
    ],
    "normalize 2000": [
        ("zeta1 off by 1e-8", payload_add(1e-8, "zeta1", 999, 1)),
        ("Psi off by 1e-8", payload_add(1e-8, "zeta2", 5, 0)),
        ("wrong type", payload_put("TypeII", "type")),
    ],
    "solve-lienard 300k steps": [
        ("alpha off by 1e-5", csv_cell("trajectory.csv", 150000, 1, 1e-5)),
        ("alpha' off by 1e-5 at the end", csv_cell("trajectory.csv", 300000, 2, 1e-5)),
        ("last row missing", csv_drop_last("trajectory.csv")),
    ],
    "fit sweep x40": [
        ("wrong family", value_put("General", 1, "family")),
        ("c1 off by 1e-6", value_add(1e-6, 6, "params", 0)),
        ("RK4 endpoint off by 1e-5", value_add(1e-5, 9, "end_alpha")),
    ],
    "phase-field 301x301": [
        ("dv off by 1e-9", csv_cell("field.csv", 4567, 3, 1e-9)),
        ("v column shifted", csv_cell("field.csv", 100, 1, 1e-9)),
    ],
}


def snapshot(directory):
    files = {}
    for name in os.listdir(directory):
        with open(os.path.join(directory, name)) as fh:
            files[name] = fh.read()
    return files


def restore(directory, files):
    for name, text in files.items():
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(text)


def main():
    problems = []
    checked = 0
    for workload in workloads.WORKLOADS:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        scratch = tempfile.mkdtemp(prefix="selfcheck-", dir=out_dir)
        try:
            ctx = workloads.Context(scratch)
            for op in workloads.build(workload, 0, ctx):
                out = op.run()
                files = snapshot(scratch)
                try:
                    op.check(out)
                except oracles.OracleError as exc:
                    problems.append(f"{op.label}: real result rejected ({exc})")
                cases = PERTURBATIONS.get(op.label, [])
                if not cases:
                    problems.append(f"{op.label}: no perturbations")
                for what, perturb in cases:
                    bad_out, bad_files = perturb(out, files)
                    restore(scratch, bad_files)
                    try:
                        op.check(bad_out)
                    except oracles.OracleError as exc:
                        print(f"  rejected  {op.label}: {what}  ({exc})")
                        checked += 1
                    else:
                        problems.append(f"{op.label}: accepted '{what}'")
                for name in os.listdir(scratch):
                    os.remove(os.path.join(scratch, name))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    for p in problems:
        print(f"  PROBLEM   {p}")
    print(f"{checked} perturbations rejected, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
