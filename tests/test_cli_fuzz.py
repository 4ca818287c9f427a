"""A fuzz of every subcommand: random flags drawn from pools of extreme,
non-finite and malformed numbers, counts and expressions.  Whatever the
input, the CLI ends with exit code 0, 1, 2 or 3, writes at most one line
to stderr and no traceback, and any JSON it prints parses strictly.

A metamorphic property over valid inputs: swapping the ends of any
window changes no result, only the order of sampled rows."""
import json
from itertools import product

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from heismin import cli

FINITE = ["0", "-0", "1", "-1", "1e-300", "-1e-300", "1e300", "-1e300",
          "1.7e308", "-1.7e308", "5e-324"]
# twice the finite values, so that most draws get past argparse
NUMBERS = 2 * FINITE + ["nan", "inf", "-inf", "one"]
COUNTS = ["-1", "0", "1", "2", "3"]


def expressions(v):
    """Valid, domain-edge, overflowing and malformed expressions in v."""
    return [v, f"0.4 + 0.1*{v}", "0", "-1", f"sqrt({v})", f"log({v})", f"1/({v}-0.5)",
            f"exp(1000*{v})", "10^400", f"{v}^-400", "1e999", "(", f"{v} +", "sin(", "z"]


Y, THETA = expressions("y"), expressions("theta")
XY = ["x*y", "x*y + y^2/2", "0", "x^2 + y", "1/x", "log(x*y)", "sqrt(x)",
      "exp(x*y*1000)", "x^400", "(", "x +", "u"]
PAIRS = [(a, b) for a in ("-1", "0", "1e300", "nan") for b in ("1", "-1e-300", "inf")]
MODEL = {"--alpha": ["vertical", "special1", "special2", "general", "cubic"],
         "--c1": Y, "--c2": Y, "--y-min": NUMBERS, "--y-max": NUMBERS}
WINDOW = {"--x-min": NUMBERS, "--x-max": NUMBERS, "--nx": COUNTS, "--ny": COUNTS}
GAUGE = {"--k": Y, "--h": Y}
FLAGS = {
    "solve-lienard": {"--alpha0": NUMBERS, "--v0": NUMBERS, "--x0": NUMBERS,
                      "--x1": NUMBERS, "--step": NUMBERS, "--hconst": NUMBERS,
                      "--fit": [None]},
    "phase-field": {"--alpha-min": NUMBERS, "--alpha-max": NUMBERS, "--v-min": NUMBERS,
                    "--v-max": NUMBERS, "--nx": COUNTS, "--nv": COUNTS},
    "classify": {**MODEL, "--x-window": PAIRS},
    "metric": {**MODEL, **GAUGE, **WINDOW},
    "normalize": {**MODEL, **GAUGE, "--x-window": PAIRS, "--samples": COUNTS},
    "integrability": {**MODEL, **GAUGE, **WINDOW, "--hconst": NUMBERS,
                      "--alpha0": NUMBERS, "--v0": NUMBERS},
    "construct": {"--curve-x": THETA, "--curve-y": THETA, "--curve-z": THETA,
                  "--zeta1": THETA, "--zeta2": THETA, "--theta-min": NUMBERS,
                  "--theta-max": NUMBERS, "--r-min": NUMBERS, "--r-max": NUMBERS,
                  "--nr": COUNTS, "--ntheta": COUNTS},
    "examples": {"name": ["plane", "saddle", "helicoid", "conicoid", "torus"],
                 "--nu": COUNTS, "--nv": COUNTS},
    "verify-graph": {"--u": XY, "--y-min": NUMBERS, "--y-max": NUMBERS, **WINDOW},
    "go-through": {"--u": XY, "--px": NUMBERS, "--py": NUMBERS, "--direction": PAIRS},
}
CSV_COMMANDS = {"solve-lienard", "phase-field", "metric"}


@st.composite
def cli_argv(draw):
    """A subcommand with each of its flags drawn from its pool or, one
    time in four, left out."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    for flag, pool in FLAGS[command].items():
        if draw(st.integers(0, 3)) == 0:
            continue
        value = draw(st.sampled_from(pool))
        if not flag.startswith("--"):
            argv.append(value)                  # positional
        elif value is None:
            argv.append(flag)                   # switch
        elif isinstance(value, tuple):
            argv += [flag, *value]
        else:
            argv.append(f"{flag}={value}")
    return argv


def _reject(constant):
    raise ValueError(f"{constant} in JSON output")


@given(argv=cli_argv())
@example(argv=["construct", "--zeta1", "1", "--zeta2", "1", "--theta-min=1e9",
               "--nr", "1", "--ntheta", "3"])
@example(argv=["construct", "--zeta1", "1", "--zeta2", "1", "--theta-min=1e5",
               "--nr", "1", "--ntheta", "3"])
@example(argv=["normalize", "--alpha", "special1", "--c1", "0.4", "--y-max=1e5",
               "--samples", "2"])
@example(argv=["normalize", "--alpha", "vertical", "--y-max=1.7e308", "--samples", "5"])
@example(argv=["integrability", "--alpha", "special1", "--c1", "0.4", "--hconst=1e200"])
@example(argv=["verify-graph", "--u", "1/x", "--nx", "2", "--ny", "2"])
@example(argv=["classify", "--alpha", "general", "--c1", "0", "--c2", "1/(y-0.5)"])
@example(argv=["go-through", "--u", "log(x*y)", "--px=-1e300", "--py=1e-300"])
@example(argv=["classify", "--alpha=general", "--c1=-1", "--c2=y^-400", "--y-min=-1.7e308",
               "--y-max=1.7e308", "--x-window", "0", "-1e-300"])
@example(argv=["construct", "--zeta1=1", "--zeta2=1", "--theta-min=-1.7e308",
               "--theta-max=1.7e308"])
@example(argv=["integrability", "--x-min=1e300", "--x-max=1e300", "--nx=1", "--ny=1",
               "--alpha0=-1e-300", "--v0=-1e-300"])
@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
def test_cli_fuzz_keeps_the_error_contract(argv, capfd):
    capfd.readouterr()
    code = cli.main(argv)
    out, err = capfd.readouterr()
    assert code in (0, 1, 2, 3), (argv, code)
    assert err.count("\n") <= 1 and "Traceback" not in err, (argv, err)
    if code != 0:
        assert out == "", argv
    elif argv[0] not in CSV_COMMANDS:
        json.loads(out, parse_constant=_reject)


# the metamorphic property: per case, a command, the pools of its other
# flags, the pools of the ends of its windows and the number of examples;
# the window "x-window" is the two-value --x-window, any other NAME is
# --NAME-min and --NAME-max
SIZES = ["1", "2", "3", "5"]
Y_ENDS = ["-0", "0", "0.25", "1", "-0.5"]
X_ENDS = ["-2", "-1", "-0", "1", "2.5"]
THETA_R = {"theta": ["-0", "0", "0.5", "1.5"], "r": ["0.5", "2", "-1", "0"]}
FAMILY = {"--alpha": ["vertical", "special1", "special2", "general"],
          "--c1": ["0.4", "0.3+0.1*y", "-1.5"], "--c2": ["1", "-1", "1.1+0.2*cos(y)"]}
SWAP_GAUGE = {"--k": ["0", "0.2*y"], "--h": ["0", "0.4+0.1*y"]}
GRID = {"--nx": SIZES, "--ny": SIZES}
SWAP_CASES = {
    "classify": ("classify", FAMILY, {"y": Y_ENDS, "x-window": X_ENDS}, 6),
    "metric": ("metric", {**FAMILY, **SWAP_GAUGE, **GRID}, {"x": X_ENDS, "y": Y_ENDS}, 6),
    "normalize": ("normalize", {**FAMILY, **SWAP_GAUGE, "--samples": SIZES},
                  {"y": Y_ENDS, "x-window": X_ENDS}, 6),
    "integrability-alpha": ("integrability", {**FAMILY, **SWAP_GAUGE, **GRID},
                            {"x": X_ENDS, "y": Y_ENDS}, 6),
    "integrability-alpha0": ("integrability", {
        "--alpha0": ["0.3", "-0.2"], "--v0": ["0.1", "0"], "--hconst": ["0", "2"],
        **SWAP_GAUGE, **GRID}, {"x": ["-0", "0.5", "1"], "y": Y_ENDS}, 4),
    "verify-graph": ("verify-graph", {
        "--u": ["x*y", "x+y", "0.3*x-0.2*y+1", "x*y+0.1*y^2+0.2*y"], **GRID},
        {"x": ["-3", "3", "-0", "0", "1.5"], "y": ["-3", "3", "-0", "0", "-1"]}, 3),
    "construct-zetas": ("construct", {
        "--zeta1": ["1", "1+0.3*sin(theta)"], "--zeta2": ["0", "0.5+0.1*cos(theta)", "-1"],
        "--nr": SIZES, "--ntheta": SIZES}, THETA_R, 5),
    "construct-curve": ("construct", {
        "--curve-x": ["cos(theta)", "theta"], "--curve-y": ["sin(theta)"],
        "--curve-z": ["theta", "0"], "--nr": SIZES, "--ntheta": SIZES}, THETA_R, 5),
}


def _window_flags(ends, swap):
    flags = []
    for name, (a, b) in ends.items():
        a, b = (b, a) if name in swap else (a, b)
        flags += (["--x-window", a, b] if name == "x-window"
                  else [f"--{name}-min={a}", f"--{name}-max={b}"])
    return flags


@st.composite
def swapped_windows(draw, command, flags, windows):
    """A valid command twice: as drawn, and with the ends of at least one
    of its windows swapped."""
    argv = [command] + [f"{flag}={draw(st.sampled_from(pool))}"
                        for flag, pool in flags.items()]
    # pairs of distinct ends first, so the simplest example has wide windows
    ends = {name: draw(st.sampled_from(sorted(product(pool, pool),
                                              key=lambda p: p[0] == p[1])))
            for name, pool in windows.items()}
    swap = draw(st.sets(st.sampled_from(sorted(windows)), min_size=1))
    return argv + _window_flags(ends, ()), argv + _window_flags(ends, swap)


def _obj_mesh(text):
    """The OBJ's vertices and quads, each as a multiset of vertex lines."""
    lines = text.splitlines()
    vertices = [v for v in lines if v.startswith("v ")]
    quads = [sorted(vertices[int(i) - 1] for i in f.split()[1:])
             for f in lines if f.startswith("f ")]
    return sorted(vertices), sorted(quads)


def _invariants(argv, capsys, obj):
    """What a swap of window ends must leave as it is: the exit code and,
    on success, the output with every sampled list as a multiset, each
    float by its repr (so bit for bit), and integrability's means apart."""
    capsys.readouterr()
    code = cli.main(argv + (["--obj", str(obj)] if argv[0] == "construct" else []))
    out = capsys.readouterr().out
    if code != 0:
        return code, None, None
    if argv[0] == "metric":
        return code, sorted(out.splitlines()), None
    payload = json.loads(out)
    for key in ("zeta1", "zeta2"):
        if payload.get(key) is not None:
            payload[key] = sorted(json.dumps(pair) for pair in payload[key])
    if argv[0] == "verify-graph":
        payload["singular"].pop("window")   # the window as given
    if argv[0] == "construct":
        payload["obj"] = _obj_mesh(obj.read_text())
    means = payload.pop("mean", None)
    return code, json.dumps(payload, sort_keys=True), means


@pytest.mark.parametrize("case", SWAP_CASES)
def test_swapping_a_windows_ends_changes_no_result(case, capsys, tmp_path):
    command, flags, windows, examples = SWAP_CASES[case]

    @given(pair=swapped_windows(command, flags, windows))
    @settings(derandomize=True, max_examples=examples, deadline=None)
    def check(pair):
        (code, result, means), (code_s, result_s, means_s) = (
            _invariants(argv, capsys, tmp_path / "mesh.obj") for argv in pair)
        assert (code, result) == (code_s, result_s), pair
        for key in means or {}:
            a, b = means[key], means_s[key]
            # the order of the sum moves the last bits
            assert abs(a - b) <= 1e-15 * max(abs(a), abs(b)), (pair, key, a, b)

    check()
