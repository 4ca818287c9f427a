"""The byte-identical CLI corpus: every subcommand on small grids, every
family, and the edge and error cases, each run in process in its own
temporary working directory with relative output paths.  For each case
tests/cli_corpus.json stores the exit code, stdout, stderr (Python
warnings included, one line each) and the size and SHA-256 of each
written file, together with the platform, Python and numpy versions that
produced them; a version mismatch fails like any other difference.

To rewrite the expectations after a deliberate change of output, run

    PYTHONPATH=src python tests/test_cli_corpus.py

which prints each changed case, its first difference and the largest
absolute and relative change of its stdout numbers; list those cases in
CHANGES.md.
"""
import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import re
import tempfile
import warnings

import numpy as np
import pytest

from heismin import cli

EXPECTED = pathlib.Path(__file__).with_name("cli_corpus.json")

GENERAL = ["--alpha", "general", "--c1", "0.3+0.1*y", "--c2", "1.5"]
MODELS = {
    "vertical": ["--alpha", "vertical"],
    "special1": ["--alpha", "special1", "--c1", "0.4+y"],
    "special2": ["--alpha", "special2", "--c1=-0.3+0.2*y"],
    "general": GENERAL,
    "general-c2-negative": ["--alpha", "general", "--c1", "0.2", "--c2=-0.5-0.1*y"],
}
SMALL = ["--nx", "4", "--ny", "3"]

CASES = {
    # solve-lienard: trajectories, one fit on each branch, the step and
    # float limits
    "ivp": ["solve-lienard", "--alpha0", "0.3", "--v0", "0.1", "--x1", "1", "--step", "0.1"],
    "ivp-hconst-out": ["solve-lienard", "--alpha0", "0.3", "--v0", "0.1", "--hconst", "2",
                       "--x1", "0.5", "--step", "0.05", "--out", "t.csv"],
    "ivp-reversed": ["solve-lienard", "--alpha0", "0.3", "--v0", "0.1", "--x0", "1",
                     "--x1", "0", "--step", "0.25"],
    "ivp-zero-width": ["solve-lienard", "--alpha0=-0.0", "--v0", "0", "--x1", "0"],
    "ivp-blowup": ["solve-lienard", "--alpha0", "1e200", "--v0", "0"],
    "ivp-step-limit": ["solve-lienard", "--alpha0", "0.1", "--v0", "0", "--x1", "1e300"],
    "ivp-step-zero": ["solve-lienard", "--alpha0", "0.2", "--v0", "0", "--step", "0"],
    "fit-zero": ["solve-lienard", "--alpha0=-0.0", "--v0", "0", "--fit"],
    "fit-special1": ["solve-lienard", "--alpha0", "0.5", "--v0", "-0.25", "--x0", "0.3", "--fit"],
    "fit-special2": ["solve-lienard", "--alpha0", "0.5", "--v0", "-0.5", "--fit"],
    "fit-general": ["solve-lienard", "--alpha0", "0.3", "--v0", "0.1", "--fit"],
    "fit-general-c2-negative": ["solve-lienard", "--alpha0", "0.5", "--v0", "-0.4", "--fit"],
    "fit-zero-crossing": ["solve-lienard", "--alpha0", "0", "--v0", "0.7", "--x0", "0.2",
                          "--fit"],
    "fit-overflow": ["solve-lienard", "--alpha0", "1e200", "--v0", "0", "--fit"],
    "fit-nan": ["solve-lienard", "--alpha0", "nan", "--v0", "0", "--fit"],
    # phase-field
    "phase-field": ["phase-field", "--nx", "3", "--nv", "4"],
    "phase-field-reversed": ["phase-field", "--alpha-min", "1", "--alpha-max=-0.0",
                             "--nx", "3", "--nv", "2", "--out", "f.csv"],
    "phase-field-overflow": ["phase-field", "--alpha-min", "1e300", "--alpha-max", "1e-300"],
    "phase-field-width": ["phase-field", "--alpha-min=-1e308", "--alpha-max=1e308"],
    "phase-field-inf-value": ["phase-field", "--alpha-max=1e100", "--v-max=1e300",
                              "--nx", "3", "--nv", "3"],
    # classify
    **{f"classify-{n}": ["classify", *m] for n, m in MODELS.items() if n != "general-c2-negative"},
    "classify-type-ii": ["classify", *MODELS["general-c2-negative"], "--x-window", "2", "3"],
    "classify-type-iii": ["classify", *MODELS["general-c2-negative"], "--x-window", "0", "-0.5"],
    "classify-mixed": ["classify", *MODELS["general-c2-negative"], "--x-window", "-3", "3"],
    "classify-no-window": ["classify", *MODELS["general-c2-negative"]],
    "classify-exponent-window": ["classify", *GENERAL, "--x-window", "-1e-3", "1"],
    "classify-c1-domain": ["classify", "--alpha", "general", "--c1", "1/(y-0.5)", "--c2", "1"],
    "classify-c2-vanishes": ["classify", "--alpha", "general", "--c1", "0", "--c2", "0"],
    "classify-missing-c2": ["classify", "--alpha", "general", "--c1", "0"],
    # metric
    **{f"metric-{n}": ["metric", *m, *SMALL] for n, m in MODELS.items()},
    "metric-special1-gauge": ["metric", *MODELS["special1"], "--k", "0.5*y", "--h", "0.2",
                              *SMALL, "--out", "m.csv"],
    "metric-special1-x-past-1e154": ["metric", "--alpha", "special1", "--c1", "0.4",
                                     "--x-min", "1e154", "--x-max", "2e154",
                                     "--nx", "5", "--ny", "1"],
    "metric-reversed": ["metric", *GENERAL, "--x-min", "2", "--x-max=-0.0", "--y-min", "1",
                        "--y-max", "0", *SMALL],
    "metric-singular": ["metric", "--alpha", "special1", "--c1", "-1", *SMALL],
    "metric-exp-k-overflow": ["metric", "--alpha", "special1", "--c1", "0.4", "--k",
                              "1000*y", *SMALL],
    "metric-not-finite": ["metric", "--alpha", "general", "--c1", "0", "--c2", "1e-300",
                          "--h", "1e306", "--x-min", "1e-5", "--x-max", "1e-5",
                          "--nx", "1", "--ny", "1"],
    "metric-c2-not-finite": ["metric", "--alpha", "general", "--c1", "0", "--c2", "1e400",
                             "--nx", "3", "--ny", "2"],
    "metric-width": ["metric", "--alpha", "special1", "--c1", "0.4", "--x-min=-1e308",
                     "--x-max=1e308", "--nx", "3", "--ny", "2"],
    "metric-syntax-error": ["metric", "--alpha", "special1", "--c1", "1+", *SMALL],
    "metric-domain": ["metric", "--alpha", "special1", "--c1", "log(y-5)", *SMALL],
    # normalize
    **{f"normalize-{n}": ["normalize", *m, "--k", "0.3*y", "--h", "0.2", "--samples", "4"]
       for n, m in MODELS.items() if n != "general-c2-negative"},
    "normalize-type-iii": ["normalize", *MODELS["general-c2-negative"], "--x-window", "0", "0.4",
                           "--samples", "3"],
    "normalize-reversed": ["normalize", *MODELS["special2"], "--y-min", "1", "--y-max=-0.0",
                           "--k", "y", "--samples", "3"],
    "normalize-710y": ["normalize", "--alpha", "general", "--c1", "y", "--c2", "1",
                       "--k", "710*y"],
    "normalize-node-limit": ["normalize", "--alpha", "special1", "--c1", "0.4",
                             "--y-max=1e5", "--samples", "2"],
    # integrability
    **{f"integrability-{n}": ["integrability", *m, "--k", "0.5*y", "--h", "0.1",
                              "--nx", "5", "--ny", "3"]
       for n, m in MODELS.items() if n != "general-c2-negative"},
    "integrability-alpha0": ["integrability", "--alpha0", "0.3", "--v0", "0.1", "--hconst", "2",
                             "--nx", "4", "--ny", "2", "--x-max", "1"],
    "integrability-800y": ["integrability", "--alpha", "special1", "--c1", "0.4", "--k=800*y"],
    "integrability-b-zero": ["integrability", "--alpha", "special1", "--c1", "0.3",
                             "--x-min", "0", "--x-max", "1e200", "--nx", "3", "--ny", "2"],
    "integrability-hconst-overflow": ["integrability", "--alpha", "special1", "--c1", "0.4",
                                      "--hconst=1e200", "--nx", "3", "--ny", "2"],
    "integrability-no-model": ["integrability"],
    "integrability-profile-step-limit": ["integrability", "--alpha0", "0.3", "--x-max", "1e200"],
    # construct
    "construct-zeta": ["construct", "--zeta1", "0.5+0.1*theta", "--zeta2", "1", "--nr", "3",
                       "--ntheta", "4", "--obj", "s.obj"],
    "construct-curve": ["construct", "--curve-x", "cos(theta)", "--curve-y", "sin(theta)",
                        "--curve-z", "0.2*theta", "--nr", "2", "--ntheta", "3"],
    "construct-reversed": ["construct", "--zeta1", "1", "--zeta2", "theta", "--theta-min", "1",
                           "--theta-max=-0.0", "--nr", "2", "--ntheta", "3"],
    "construct-sqrt-json": ["construct", "--zeta1", "1", "--zeta2", "sqrt(2-theta)"],
    "construct-sqrt-obj": ["construct", "--zeta1", "1", "--zeta2", "sqrt(2-theta)",
                           "--obj", "s.obj"],
    "construct-node-limit": ["construct", "--zeta1", "1", "--zeta2", "1", "--theta-min=1e5",
                             "--nr", "1", "--ntheta", "3"],
    "construct-usage": ["construct", "--zeta1", "1"],
    # examples
    **{f"examples-{n}": ["examples", n, "--nu", "3", "--nv", "4", "--obj", f"{n}.obj"]
       for n in ("plane", "saddle", "helicoid", "conicoid")},
    # verify-graph
    "verify-graph": ["verify-graph", "--u", "x*y", "--nx", "3", "--ny", "3"],
    "verify-graph-reversed": ["verify-graph", "--u", "x*y", "--x-min=3", "--x-max=-3",
                              "--nx", "3", "--ny", "3"],
    "verify-graph-isolated": ["verify-graph", "--u", "x^3-y^3+x*y", "--nx", "3", "--ny", "3"],
    "verify-graph-1e308xy": ["verify-graph", "--u", "1e308*x*y", "--x-min=-1e-300",
                             "--x-max=1e-300", "--y-min=-1e-300", "--y-max=1e-300",
                             "--nx", "1", "--ny", "1"],
    "verify-graph-1e200xy": ["verify-graph", "--u", "1e200*x*y", "--x-min=0", "--x-max=1",
                             "--y-min=0", "--y-max=1", "--nx", "1", "--ny", "1"],
    "verify-graph-nan": ["verify-graph", "--u", "1e300*x*y", "--nx", "2", "--ny", "2"],
    "verify-graph-domain": ["verify-graph", "--u", "sqrt(x)"],
    "verify-graph-syntax-error": ["verify-graph", "--u", "x*(y"],
    # go-through
    "go-through": ["go-through", "--u", "x*y", "--px", "0", "--py", "0.5"],
    "go-through-direction": ["go-through", "--u", "x*y", "--px", "0", "--py", "0.5",
                             "--direction", "-1e-3", "1"],
    "go-through-perpendicular-e1": ["go-through", "--u=-x*y+x^2", "--px", "0.5", "--py", "0.5"],
    "go-through-tangent": ["go-through", "--u", "x*y", "--px", "0", "--py", "0.5",
                           "--direction", "0", "1"],
    "go-through-isolated-point": ["go-through", "--u", "0", "--px", "0", "--py", "0"],
    "unknown-flag": ["classify", "--alpha", "vertical", "--bogus"],
}


def environment():
    return {"platform": f"{platform.system()}-{platform.machine()}",
            "python": platform.python_version(), "numpy": np.__version__}


def run_case(argv):
    """The expectation of one case, run in the current working directory."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(list(argv))
    stderr = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    files = {p.name: [p.stat().st_size, hashlib.sha256(p.read_bytes()).hexdigest()]
             for p in sorted(pathlib.Path().iterdir())}
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue().splitlines(True),
            "stderr": stderr.splitlines(True), "files": files}


def run_corpus(root):
    """Every case's expectation, each run in its own directory under root."""
    here = os.getcwd()
    results = {}
    try:
        for name, argv in CASES.items():
            os.mkdir(os.path.join(root, name))
            os.chdir(os.path.join(root, name))
            results[name] = run_case(argv)
    finally:
        os.chdir(here)
    return results


def first_difference(name, want, got):
    """A line naming the case and its first difference, or None."""
    for key in ("argv", "exit", "stdout", "stderr"):
        w, g = want[key], got[key]
        if key in ("stdout", "stderr") and w != g:
            i = next((i for i, (a, b) in enumerate(zip(w, g)) if a != b), min(len(w), len(g)))
            a, b = (s[i] if i < len(s) else "<end>" for s in (w, g))
            return f"{name}: {key} line {i + 1}: expected {a!r}, got {b!r}"
        if w != g:
            return f"{name}: {key}: expected {w!r}, got {g!r}"
    if want["files"] != got["files"]:
        return f"{name}: files: expected {want['files']}, got {got['files']}"
    return None


def test_the_cli_corpus_is_byte_identical(tmp_path):
    expected = json.loads(EXPECTED.read_text())
    assert expected["environment"] == environment(), \
        "the corpus was recorded on another platform, Python or numpy"
    got = run_corpus(str(tmp_path))
    assert list(got) == list(expected["cases"])
    diffs = [d for name, want in expected["cases"].items()
             if (d := first_difference(name, want, got[name])) is not None]
    if diffs:
        pytest.fail("\n".join(diffs), pytrace=False)   # untruncated, one line a case


NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan")


def change_size(want, got):
    """The largest absolute and relative changes between the numbers of
    the stdout lines, or why there are none to give."""
    if want["files"] != got["files"]:
        return "a written file changed"
    pairs = list(zip(want["stdout"], got["stdout"]))
    if len(want["stdout"]) != len(got["stdout"]) or any(
            NUMBER.sub("#", a) != NUMBER.sub("#", b) for a, b in pairs):
        return "stdout changed its shape"
    d = [(abs(x - y), abs(x - y) / max(abs(x), abs(y))) for a, b in pairs
         for x, y in zip(map(float, NUMBER.findall(a)), map(float, NUMBER.findall(b))) if x != y]
    if not d:
        return "no stdout number changed"
    return f"largest change {max(d)[0]:.3g} absolute, {max(r for _, r in d):.3g} relative"


def update():
    old = json.loads(EXPECTED.read_text())["cases"] if EXPECTED.exists() else {}
    with tempfile.TemporaryDirectory() as root:
        got = run_corpus(root)
    for name, case in got.items():
        if name not in old:
            print(f"{name}: new")
        elif (d := first_difference(name, old[name], case)) is not None:
            print(f"{d}\n    {change_size(old[name], case)}")
    EXPECTED.write_text(json.dumps({"environment": environment(), "cases": got}, indent=1)
                        + "\n")


if __name__ == "__main__":
    update()
