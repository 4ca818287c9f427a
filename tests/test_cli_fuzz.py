"""A fuzz of every subcommand: random flags drawn from pools of extreme,
non-finite and malformed numbers, counts and expressions.  Whatever the
input, the CLI ends with exit code 0, 1, 2 or 3, writes at most one line
to stderr and no traceback, and any JSON it prints parses strictly."""
import json

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
