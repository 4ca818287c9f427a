import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import heismin
from heismin import cli, construct, lienard, numerics
from heismin.errors import NonFiniteResult
from heismin.numerics import YFunction


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_classify_type_i(capsys):
    code, out = run_cli(["classify", "--alpha", "general",
                         "--c1", "0", "--c2", "1"], capsys)
    assert code == 0
    assert json.loads(out)["type"] == "TypeI"


def test_classify_mixed_type_is_numeric_failure(capsys):
    code, _ = run_cli(["classify", "--alpha", "general",
                       "--c1", "0", "--c2", "y - 0.5"], capsys)
    assert code == 2


@pytest.mark.parametrize("command", ["classify", "normalize"])
@pytest.mark.parametrize("window", [["2", "-2"], ["-2", "2"]], ids=["reversed", "ordered"])
def test_x_window_spanning_the_type_iii_gap_fails_in_either_order(command, window, capsys):
    code = cli.main([command, "--alpha", "general", "--c1", "0", "--c2", "-1",
                     "--x-window", *window])
    cap = capsys.readouterr()
    assert code == 2 and cap.out == ""
    assert cap.err == ("error: x-window [-2.0, 2.0] meets the singular curves "
                       "x = -1.0 and x = 1.0 at y = 1e-09\n")


def test_reversed_y_window_samples_inside_it(capsys):
    argv = ["classify", "--alpha", "general", "--c1", "0", "--c2", "1+sqrt(y)"]
    code, out = run_cli(argv + ["--y-min", "1", "--y-max", "0"], capsys)
    assert (code, out) == run_cli(argv + ["--y-min", "0", "--y-max", "1"], capsys)
    assert code == 0 and json.loads(out)["type"] == "TypeI"


def test_reversed_theta_window_samples_inside_it(capsys):
    code, out = run_cli(["construct", "--zeta1", "1+sqrt(theta)", "--zeta2", "1",
                         "--theta-min", "1", "--theta-max", "0", "--ntheta", "2",
                         "--nr", "1"], capsys)
    assert code == 0
    assert [t for t, _ in json.loads(out)["zeta1"]] == [1.0 - 1e-9, 1e-9]


@pytest.mark.parametrize("argv, y_samples", [
    (["classify", "--alpha", "general", "--c1", "0", "--c2", "1"], 33),
    (["classify", "--alpha", "special1", "--c1", "1"], None),
    (["normalize", "--alpha", "general", "--c1", "0", "--c2", "1", "--samples", "2"], 33),
    (["normalize", "--alpha", "vertical", "--samples", "2"], None),
], ids=["classify-general", "classify-special1", "normalize-general", "normalize-vertical"])
def test_type_reports_the_y_samples_that_decided_it(argv, y_samples, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 0 and json.loads(out)["y_samples"] == y_samples


def test_parse_error_exit_code(capsys):
    code, _ = run_cli(["classify", "--alpha", "general",
                       "--c1", "2*^3", "--c2", "1"], capsys)
    assert code == 3


def test_usage_error_exit_code(capsys):
    code, _ = run_cli(["classify", "--alpha", "general"], capsys)  # no --c1
    assert code == 1
    code, _ = run_cli(["no-such-command"], capsys)
    assert code == 1
    code, _ = run_cli(["integrability"], capsys)  # neither --alpha nor --alpha0
    assert code == 1


def test_solve_lienard_fit(capsys):
    code, out = run_cli(["solve-lienard", "--alpha0", "0.5",
                         "--v0", "-0.25", "--fit"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "SpecialI"
    assert payload["c1"] == pytest.approx(2.0)


def test_solve_lienard_trajectory(capsys):
    code, out = run_cli(["solve-lienard", "--alpha0", "0.2", "--v0", "0.0",
                         "--x1", "0.5", "--step", "0.1"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,alpha,v"
    assert len(lines) == 7


def test_phase_field_csv(capsys):
    code, out = run_cli(["phase-field", "--nx", "3", "--nv", "3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,v,dx,dv"
    assert len(lines) == 10


def reference_csv(header, rows):
    """Reference: the earlier writer, one f-string per value."""
    lines = [",".join(header)]
    lines += [",".join(f"{float(v):.17g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def reference_obj(chart, nu, nv):
    """Reference: the earlier OBJ writer, one line at a time."""
    (u_lo, u_hi), (v_lo, v_hi) = chart.domain
    lines = []
    for u in np.linspace(u_lo, u_hi, nu):
        for v in np.linspace(v_lo, v_hi, nv):
            p = chart.point(float(u), float(v))
            lines.append(f"v {p.x:.17g} {p.y:.17g} {p.z:.17g}")
    for i in range(nu - 1):
        for j in range(nv - 1):
            a = i * nv + j + 1
            b = (i + 1) * nv + j + 1
            lines.append(f"f {a} {b} {b + 1} {a + 1}")
    return "\n".join(lines) + "\n"


SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308,
           -1e308, 1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e16, 1e22,
           0.1, 1.0 / 3.0, math.pi, -2.718281828459045, 123456789.01234567,
           math.inf, -math.inf, math.nan, 0]


def test_csv_matches_per_value_writer():
    rng = np.random.default_rng(5)
    # more rows than one block, so block edges are crossed
    n = 2 * cli._BLOCK_ROWS + 7
    cols = [(SPECIAL * (n // len(SPECIAL) + 1))[k:k + n] for k in range(3)]
    cols.append((rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)).tolist())
    header = ["x", "alpha", "v", "w"]
    assert cli._csv(header, cols) == reference_csv(header, zip(*cols))
    one = [[v] for v in SPECIAL[:1]]
    assert cli._csv(["x"], one) == reference_csv(["x"], zip(*one))


@pytest.mark.parametrize("name", ["conicoid", "helicoid", "plane"])
def test_obj_matches_per_line_writer(name):
    chart = {"conicoid": construct.conicoid_chart,
             "helicoid": lambda: construct.helicoid_chart(
                 YFunction(lambda t: t, lambda t: 1.0)),
             "plane": lambda: construct.bernstein_plane(0.0, 0.0, 0.0)}[name]()
    for nu, nv in ((1, 1), (5, 3), (40, 31)):
        assert cli.mesh_obj(chart, nu, nv) == reference_obj(chart, nu, nv)


def test_trajectory_and_field_csv_match_per_value_writer(capsys):
    argv = ["solve-lienard", "--alpha0", "0.3", "--v0", "-0.1", "--x0=-0.0",
            "--x1=-1", "--step", "1e-3", "--hconst", "1.5"]
    _, out = run_cli(argv, capsys)
    traj = lienard.integrate_ivp(0.3, -0.1, -0.0, -1.0, 1e-3, H_const=1.5)
    assert out == reference_csv(["x", "alpha", "v"],
                                [(x, s.alpha, s.v) for x, s in traj])
    assert out.splitlines()[1].startswith("-0,")
    _, out = run_cli(["phase-field", "--nx", "7", "--nv", "5",
                      "--alpha-min=-1e100", "--alpha-max=1e100"], capsys)
    field = lienard.phase_field((-1e100, 1e100), (-2.0, 2.0), 7, 5)
    assert out == reference_csv(["x", "v", "dx", "dv"],
                                [(s.alpha, s.v, da, dv) for s, (da, dv) in field])


def test_metric_deterministic(capsys):
    argv = ["metric", "--alpha", "general", "--c1", "0.1", "--c2", "1.5",
            "--k", "0.1*y", "--h", "0.3", "--nx", "5", "--ny", "3"]
    _, out1 = run_cli(argv, capsys)
    _, out2 = run_cli(argv, capsys)
    assert out1 == out2
    assert out1.splitlines()[0] == "x,y,alpha,a,b"


GENERAL_THROUGH_ALPHA_ZERO = ["--alpha", "general", "--c1=-1", "--c2", "1"]


def test_metric_regular_where_alpha_vanishes(capsys):
    # alpha = 0 at x = 1 on the default window, where b = e^k = 1
    code, out = run_cli(["metric", *GENERAL_THROUGH_ALPHA_ZERO], capsys)
    assert code == 0
    rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
    at_one = [r for r in rows if r[0] == 1.0]
    assert len(at_one) == 11
    assert all(r[2] == 0.0 and r[4] == 1.0 for r in at_one)


def test_integrability_passes_through_alpha_zero(capsys):
    code, out = run_cli(["integrability", *GENERAL_THROUGH_ALPHA_ZERO], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_normalize_json(capsys):
    code, out = run_cli(["normalize", "--alpha", "general", "--c1", "sin(y)",
                         "--c2", "1", "--k", "0", "--h", "0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "TypeI"
    y, z1 = payload["zeta1"][4]
    assert z1 == pytest.approx(math.sin(y), abs=1e-9)


def test_integrability_json(capsys):
    code, out = run_cli(["integrability", "--alpha", "special1",
                         "--c1", "0.4", "--k", "0.1*y", "--h", "0.2",
                         "--nx", "10", "--ny", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["max"]["r1"] <= 1e-6
    assert payload["tolerance"] == 1e-6
    assert payload["passed"] is True


def test_integrability_verdict_fails_over_tolerance(capsys):
    # alpha = 1/x sampled at x = 0.001: the finite-difference alpha_xx
    # there is far outside 1e-6
    code, out = run_cli(["integrability", "--alpha", "special1", "--c1", "0",
                         "--x-min", "0.001", "--x-max", "0.5",
                         "--nx", "5", "--ny", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["max"]["r3"] > 1e-6
    assert payload["passed"] is False


def test_integrability_alpha0_needs_no_model(capsys):
    code, out = run_cli(["integrability", "--alpha0", "0.3", "--v0", "0.1",
                         "--hconst", "2"], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("argv, flag", [
    (["solve-lienard", "--alpha0", "0.2", "--v0", "0", "--step", "0"], "--step"),
    (["phase-field", "--nx", "1"], "--nx"),
    (["verify-graph", "--u", "x*y", "--nx", "0"], "--nx"),
    (["construct", "--zeta1", "0", "--zeta2", "1", "--ntheta", "0"], "--ntheta"),
    (["integrability", "--alpha", "vertical", "--ny", "0"], "--ny"),
    (["metric", "--alpha", "vertical", "--nx", "-2"], "--nx"),
    (["metric", "--alpha", "vertical", "--nx", "0"], "--nx"),
    (["metric", "--alpha", "vertical", "--ny", "0"], "--ny"),
    (["normalize", "--alpha", "vertical", "--samples", "-1"], "--samples"),
    (["examples", "conicoid", "--nu", "-3"], "--nu"),
    (["examples", "conicoid", "--nu", "0"], "--nu"),
    (["examples", "conicoid", "--nv", "0"], "--nv"),
    (["solve-lienard", "--alpha0", "nan", "--v0", "0", "--fit"], "--alpha0"),
    (["solve-lienard", "--alpha0", "1", "--v0", "inf", "--fit"], "--v0"),
    (["solve-lienard", "--alpha0", "1", "--v0", "0", "--x1", "nan"], "--x1"),
    (["solve-lienard", "--alpha0", "1", "--v0", "0", "--x1", "inf"], "--x1"),
    (["phase-field", "--alpha-min", "nan"], "--alpha-min"),
    (["metric", "--alpha", "special1", "--c1", "1", "--y-min", "nan"], "--y-min"),
    (["go-through", "--u", "x*y", "--px", "0", "--py", "0.5",
      "--direction", "nan", "1"], "--direction"),
], ids=["solve-lienard", "phase-field", "verify-graph", "construct",
        "integrability", "metric-nx-negative", "metric-nx-zero", "metric-ny",
        "normalize", "examples-nu-negative", "examples-nu-zero", "examples-nv",
        "fit-nan-alpha0", "fit-inf-v0", "nan-x1", "inf-x1", "phase-field-nan",
        "metric-nan-y-min", "go-through-nan-direction"])
def test_bad_step_or_grid_size_is_usage_error(argv, flag, capsys):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and flag in err


EVAL = "error: cannot evaluate at "
BLOWUP = "error: trajectory blow-up near x = "
STEPS = "error: the window needs "


@pytest.mark.parametrize("argv, prefix", [
    (["metric", "--alpha", "special1", "--c1", "log(y-5)"], EVAL),
    (["metric", "--alpha", "special1", "--c1", "10^1000"], EVAL),
    (["metric", "--alpha", "special1", "--c1", "(0-1)^0.5"], EVAL),
    (["verify-graph", "--u", "sqrt(x)"], EVAL),
    (["verify-graph", "--u", "(x-5)^0.5"], EVAL),
    (["construct", "--zeta1", "1/theta", "--zeta2", "1"], EVAL),
    (["metric", "--alpha", "special1", "--c1", "0.4", "--k", "1000*y"], EVAL),
    (["integrability", "--alpha", "special1", "--c1", "0.4", "--k=800*y"], EVAL),
    (["solve-lienard", "--alpha0", "1e200", "--v0", "0"], BLOWUP),
    (["solve-lienard", "--alpha0", "1e200", "--v0", "0", "--fit"], EVAL),
    (["integrability", "--alpha0", "0.3", "--hconst", "1e200"], BLOWUP),
    (["phase-field", "--alpha-min", "1e300", "--alpha-max", "1e-300"], EVAL),
    (["solve-lienard", "--alpha0", "0.1", "--v0", "0", "--x1", "1e300"], STEPS),
    (["integrability", "--alpha0", "0.3", "--x-max", "1e200"], STEPS),
    (["integrability", "--alpha", "special1", "--c1", "0.4", "--hconst=1e200"], EVAL),
    # classify reads c1 at every y-sample of a general model
    (["classify", "--alpha", "general", "--c1", "1/(y-0.5)", "--c2", "1"], EVAL + "y = 0.5"),
], ids=["domain", "overflow", "negative-base-power", "graph-domain",
        "graph-negative-base-power", "zero-division", "metric-exp-k-overflow",
        "integrability-exp-k-overflow", "ivp-overflow", "fit-overflow",
        "profile-overflow", "phase-field-overflow", "ivp-step-limit",
        "profile-step-limit", "closed-form-hconst-overflow", "classify-c1"])
def test_evaluation_error_is_numeric_failure(argv, prefix, capsys):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(prefix)


@pytest.mark.parametrize("argv, code, needle", [
    # a window whose width overflows is a usage error
    (["phase-field", "--alpha-min=-1e308", "--alpha-max=1e308"], 1, "finite width"),
    (["phase-field", "--v-min=-1e308", "--v-max=1e308"], 1, "finite width"),
    # a finite window whose field value is not
    (["phase-field", "--alpha-max=1e100", "--v-max=1e300", "--nx", "3", "--nv", "3"],
     2, "(alpha, v) = (5e+99, 5e+299): the field value is not finite"),
    # a report figure that is not finite is not printed as NaN
    (["verify-graph", "--u", "x*y", "--x-min=-1e300", "--x-max=1e300"],
     2, "max_pmge_residual = nan is not finite"),
    # b underflows to 0 far out on the grid
    (["integrability", "--alpha", "special1", "--c1", "0.3",
      "--x-min", "0", "--x-max", "1e200"], 2, "metric coefficient b = 0 at"),
    # every grid command shares the window check
    (["metric", "--alpha", "special1", "--c1", "0.4", "--x-min=-1e308", "--x-max=1e308",
      "--nx", "3", "--ny", "2"], 1, "metric: the x and y windows must have a finite width"),
    (["integrability", "--alpha", "special1", "--c1", "0.4", "--y-min=-1e308",
      "--y-max=1e308"], 1, "integrability: the x and y windows must have a finite width"),
    (["normalize", "--alpha", "special1", "--c1", "0.4", "--y-min=-1e308", "--y-max=1e308",
      "--samples", "3"], 1, "normalize: the y window must have a finite width"),
    (["verify-graph", "--u", "x*y", "--x-min=-1e308", "--x-max=1e308"],
     1, "verify-graph: the x and y windows must have a finite width"),
    (["classify", "--alpha", "general", "--c1", "0", "--c2", "1", "--y-min=-1.7e308",
      "--y-max=1.7e308"], 1, "classify: the y window must have a finite width"),
    (["construct", "--zeta1", "1", "--zeta2", "1", "--theta-min=-1.7e308",
      "--theta-max=1.7e308"], 1, "construct: the theta and r windows must have a finite width"),
], ids=["phase-field-alpha-width", "phase-field-v-width", "phase-field-inf-value",
        "strict-json", "integrability-b-zero", "metric-width", "integrability-width",
        "normalize-width", "verify-graph-width", "classify-width", "construct-width"])
def test_non_finite_window_or_figure_is_one_line_error(argv, code, needle, capsys):
    assert cli.main(argv) == code
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.count("\n") == 1 and "Traceback" not in cap.err
    assert needle in cap.err


@pytest.mark.parametrize("argv, needle", [
    (["construct", "--zeta1", "1", "--zeta2", "1", "--theta-min=1e9", "--nr", "1",
      "--ntheta", "3"], "error: theta = 1000000000.0 is 5.12e+11 lattice nodes "
                        "from theta = 6.283185307179586, "),
    (["construct", "--zeta1", "1", "--zeta2", "1", "--theta-min=1e5", "--nr", "1",
      "--ntheta", "3"], "error: theta = 99999.999999999 is "),
    (["normalize", "--alpha", "special1", "--c1", "0.4", "--y-max=1e5", "--samples", "2"],
     "error: y = 100000.0 is 5.12e+07 lattice nodes from y = 0.0, "),
    (["normalize", "--alpha", "vertical", "--y-max=1.7e308", "--samples", "5"],
     "error: y = 4.25e+307 is inf lattice nodes from y = 0.0, "),
], ids=["construct-1e9", "construct-1e5", "normalize-1e5", "normalize-float-max"])
def test_quadrature_past_the_lattice_limit_is_one_line_numeric_failure(argv, needle, capsys):
    # the message calls the variable by its name: theta for construct, y for normalize
    assert cli.main(argv) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err.count("\n") == 1
    assert cap.err.startswith(needle)
    assert cap.err.endswith(f"more than the limit of {numerics.MAX_LATTICE_NODES}\n")


@pytest.mark.parametrize("argv", [
    ["verify-graph", "--u", "1/x", "--nx", "2", "--ny", "2"],
    ["classify", "--alpha", "general", "--c1", "0", "--c2", "1/(y-0.5)"],
    ["go-through", "--u", "log(x*y)", "--px=-1e300", "--py=1e-300"],
    ["normalize", "--alpha", "vertical", "--y-max=1.7e308", "--samples", "5"],
], ids=["newton-iterates", "classify-samples", "go-through-jacobian", "normalize-samples"])
def test_scalar_paths_write_one_stderr_line(argv, capfd):
    # capfd, not capsys: LAPACK writes its complaints to the file
    # descriptor, past sys.stdout
    assert cli.main(argv) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv, exponent_form", [
    (["classify", "--alpha", "general", "--c1", "0", "--c2", "1", "--x-window"],
     ["-1e-3", "1"]),
    (["go-through", "--u", "x*y", "--px", "0", "--py", "0.5", "--direction"],
     ["-1e-3", "1"]),
    (["go-through", "--u", "x*y", "--px", "0", "--py", "0.5", "--direction"],
     ["-1E+3", "-.5e2"]),
], ids=["classify-window", "go-through-direction", "upper-case-and-no-integer-part"])
def test_negative_number_in_exponent_form_is_a_value(argv, exponent_form, capsys):
    decimal = [repr(float(v)) for v in exponent_form]   # -0.001, -1000.0, -50.0
    code, out = run_cli(argv + exponent_form, capsys)
    assert code == 0
    assert (code, out) == run_cli(argv + decimal, capsys)


def test_emit_json_names_the_non_finite_figure():
    with pytest.raises(NonFiniteResult, match=r"^singular\.window\[1\]\[0\] = -inf"):
        cli._emit_json({"passed": True, "singular": {"window": [[0.0, 1.0], [-math.inf, 1.0]]}})


@pytest.mark.parametrize("command", [
    ["classify", "--x-window", "1", "2"],
    ["metric"],
], ids=["classify", "metric"])
def test_general_model_with_vanishing_c2_is_numeric_failure(command, capsys):
    code = cli.main(command + ["--alpha", "general", "--c1", "0", "--c2", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "c2" in err


def test_construct_from_zeta(tmp_path, capsys):
    obj = tmp_path / "s.obj"
    code, out = run_cli(["construct", "--zeta1", "0", "--zeta2", "1",
                         "--obj", str(obj), "--nr", "4", "--ntheta", "8"],
                        capsys)
    assert code == 0
    payload = json.loads(out)
    assert all(abs(v - 1.0) <= 1e-9 for _, v in payload["zeta2"])
    assert payload["special_type_I"] is False
    assert payload["special_type_I_tolerance"] == 1e-10
    text = obj.read_text()
    assert text.startswith("v ")
    assert text.count("\nf ") == 3 * 7  # (nr-1) x (ntheta-1) quads


def test_construct_from_curve(capsys):
    code, out = run_cli(["construct", "--curve-x", "0", "--curve-y", "0",
                         "--curve-z", "theta", "--ntheta", "6"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert all(abs(v) <= 1e-9 for _, v in payload["zeta1"])


def test_construct_usage_error(capsys):
    code, _ = run_cli(["construct", "--curve-x", "0"], capsys)
    assert code == 1


def test_examples_all(tmp_path, capsys):
    for name in ("plane", "saddle", "helicoid", "conicoid"):
        obj = tmp_path / f"{name}.obj"
        code, out = run_cli(["examples", name, "--obj", str(obj),
                             "--nu", "5", "--nv", "5"], capsys)
        assert code == 0
        assert json.loads(out)["name"] == name
        assert obj.exists()


def test_obj_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    for path in (a, b):
        run_cli(["examples", "conicoid", "--obj", str(path),
                 "--nu", "6", "--nv", "6"], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_verify_graph_saddle(capsys):
    code, out = run_cli(["verify-graph", "--u", "x*y",
                         "--nx", "7", "--ny", "7"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["max_pmge_residual"] == 0.0
    assert payload["pmge_tolerance"] == 1e-8
    assert payload["passed"] is True
    kinds = [f["kind"] for f in payload["singular"]["features"]]
    assert kinds == ["Curve"]


@pytest.mark.parametrize("u, kind", [("x+y", "IsolatedPoint"), ("x*y", "Curve")])
def test_reversed_window_reports_the_same_singular_set(u, kind, capsys):
    argv = ["verify-graph", "--u", u, "--nx", "3", "--ny", "3"]
    (code, out), (code_s, out_s) = (
        run_cli(argv + [f"--x-min={a}", f"--x-max={b}"], capsys) for a, b in ((-3, 3), (3, -3)))
    assert code == code_s == 0
    singular, singular_s = (json.loads(text)["singular"] for text in (out, out_s))
    assert [f["kind"] for f in singular["features"]] == [kind]
    assert singular["features"] == singular_s["features"]
    assert singular["passed"] is singular_s["passed"] is True


def test_zero_width_window_traces_the_seed_alone(capsys):
    code, out = run_cli(["verify-graph", "--u", "x*y", "--x-min=0", "--x-max=0",
                         "--y-min=0", "--y-max=0", "--nx", "1", "--ny", "1"], capsys)
    assert code == 0
    features = json.loads(out)["singular"]["features"]
    assert [(f["kind"], f["polyline"]) for f in features] == [("Curve", [[0.0, 0.0]])]


def test_verify_graph_with_abs(capsys):
    # the sign of abs' derivative at numpy grid and Newton points
    code, out = run_cli(["verify-graph", "--u", "abs(x-y)", "--nx", "5", "--ny", "5"], capsys)
    assert code == 0
    assert json.loads(out)["max_pmge_residual"] == 0.0


DEEP_SUM = "+0.001*y" * 1199


@pytest.mark.parametrize("argv", [
    ["verify-graph", "--u", "x*y" + DEEP_SUM, "--nx", "3", "--ny", "3"],
    ["metric", "--alpha", "special1", "--c1", "y" + DEEP_SUM, "--nx", "3", "--ny", "2"],
    ["verify-graph", "--u", "(" * 400 + "x*y" + ")" * 400],
], ids=["graph-deep-sum", "c1-deep-sum", "graph-deep-parentheses"])
def test_too_deep_expression_is_one_line_parse_error(argv, capsys):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and err.startswith("error: syntax error at offset ")


def test_go_through_cli(capsys):
    code, out = run_cli(["go-through", "--u", "x*y",
                         "--px", "0", "--py", "0.5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["flip_detected"] is True


@pytest.mark.parametrize("argv", [
    ["--u", "0", "--px", "0", "--py", "0"],
    ["--u", "x*y+y^2/2", "--px", "0", "--py", "0", "--direction", "0", "0"],
    # finite flags whose length overflows; a nan flag is a usage error
    ["--u", "x*y+y^2/2", "--px", "0", "--py", "0", "--direction", "1.7e308", "1.7e308"],
], ids=["isolated-point", "zero-direction", "non-finite-direction"])
def test_go_through_precondition_is_numeric_failure(argv, capsys):
    code, _ = run_cli(["go-through"] + argv, capsys)
    assert code == 2


def test_console_script_entry_point():
    # the child imports the same heismin as this test, installed or not
    src = os.path.dirname(os.path.dirname(heismin.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "heismin.cli",
                           "classify", "--alpha", "vertical"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["type"] == "Vertical"


def test_benchmark_tracer_finds_every_name_it_patches():
    # bench/spans.py wraps program functions by name; a renamed one would
    # only show up as an AttributeError in a traced benchmark run.  A child
    # process, because install() patches the modules for good.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(heismin.__file__))
    path = os.pathsep.join([src, os.path.join(root, "bench")])
    proc = subprocess.run([sys.executable, "-c",
                           "import spans; spans.install(spans.Tracer())"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
