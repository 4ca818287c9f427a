import json
import math
import os
import subprocess
import sys

import pytest

import heismin
from heismin import cli


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


def test_metric_deterministic_and_threaded(tmp_path, monkeypatch, capsys):
    argv = ["metric", "--alpha", "general", "--c1", "0.1", "--c2", "1.5",
            "--k", "0.1*y", "--h", "0.3", "--nx", "5", "--ny", "3"]
    _, out1 = run_cli(argv, capsys)
    _, out2 = run_cli(argv, capsys)
    assert out1 == out2
    monkeypatch.setenv("HEISMIN_THREADS", "4")
    _, out3 = run_cli(argv, capsys)
    assert out3 == out1
    assert out1.splitlines()[0] == "x,y,alpha,a,b"


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
], ids=["solve-lienard", "phase-field", "verify-graph", "construct",
        "integrability", "metric-nx-negative", "metric-nx-zero", "metric-ny",
        "normalize", "examples-nu-negative", "examples-nu-zero", "examples-nv"])
def test_bad_step_or_grid_size_is_usage_error(argv, flag, capsys):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and flag in err


@pytest.mark.parametrize("argv", [
    ["metric", "--alpha", "special1", "--c1", "log(y-5)"],
    ["metric", "--alpha", "special1", "--c1", "10^1000"],
    ["metric", "--alpha", "special1", "--c1", "(0-1)^0.5"],
    ["verify-graph", "--u", "sqrt(x)"],
    ["verify-graph", "--u", "(x-5)^0.5"],
    ["construct", "--zeta1", "1/theta", "--zeta2", "1"],
    ["metric", "--alpha", "special1", "--c1", "0.4", "--k", "1000*y"],
    ["integrability", "--alpha", "special1", "--c1", "0.4", "--k=800*y"],
], ids=["domain", "overflow", "negative-base-power", "graph-domain",
        "graph-negative-base-power", "zero-division", "metric-exp-k-overflow",
        "integrability-exp-k-overflow"])
def test_evaluation_error_is_numeric_failure(argv, capsys):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: cannot evaluate at ")


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
    assert not payload["special_type_I"]
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


def test_go_through_cli(capsys):
    code, out = run_cli(["go-through", "--u", "x*y",
                         "--px", "0", "--py", "0.5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["flip_detected"] is True


@pytest.mark.parametrize("argv", [
    ["--u", "0", "--px", "0", "--py", "0"],
    ["--u", "x*y+y^2/2", "--px", "0", "--py", "0", "--direction", "0", "0"],
    ["--u", "x*y+y^2/2", "--px", "0", "--py", "0", "--direction", "nan", "1"],
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
