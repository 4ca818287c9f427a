import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import heismin
from heismin import cli, construct, g17, lienard, models, numerics
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
    """Reference: the earlier OBJ writer, one chart.point call and one line
    a vertex."""
    us, vs = (numerics.Window(*d).linspace(n) for d, n in zip(chart.domain, (nu, nv)))
    lines = []
    for u in us:
        for v in vs:
            p = chart.point(u, v)
            lines.append(f"v {p.x:.17g} {p.y:.17g} {p.z:.17g}")
    for i in range(nu - 1):
        for j in range(nv - 1):
            a = i * nv + j + 1
            b = (i + 1) * nv + j + 1
            lines.append(f"f {a} {b} {b + 1} {a + 1}")
    return "\n".join(lines) + "\n"


# %g's switch points between fixed and exponent form and their float
# neighbours; a value whose integer part ends in a zero; one whose 18th
# significant digit is an exact tie, which rounds half-even to ...0.2
SWITCHES = [1e-5, 1e-4, 1e16, 1e17]
SPECIAL = [0.0, -0.0, 2.0**-1074, -2.5e-310, 2.2250738585072014e-308, 1e308,
           -1e308, 1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e22,
           0.1, 1.0 / 3.0, math.pi, -2.718281828459045, 123456789.01234567,
           math.inf, -math.inf, math.nan, 0,
           *SWITCHES, *(math.nextafter(x, to) for x in SWITCHES for to in (0.0, math.inf)),
           3.989057095361532e16, 1000000000000000.25]


def test_csv_matches_per_value_writer(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(5)
    header = ["x", "alpha", "v", "w"]
    path = tmp_path / "t.csv"
    writes = []
    write_text = cli._write_text

    def counted(out, text):
        writes.append(text)
        write_text(out, text)

    monkeypatch.setattr(cli, "_write_text", counted)
    # one row short of a block, a block, one row over, and several blocks
    block = cli._BLOCK_VALUES // len(header)
    for n in (block - 1, block, block + 1, 2 * block + 7):
        cols = [(SPECIAL * (n // len(SPECIAL) + 2))[k:k + n] for k in range(3)]
        cols.append((rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)).tolist())
        writes.clear()
        cli._csv(str(path), header, cols)
        assert path.read_text() == reference_csv(header, zip(*cols))
        assert [t.count("\n") for t in writes] == [1, *(min(block, n - a)
                                                      for a in range(0, n, block))]
    one = [[v] for v in SPECIAL]
    cli._csv(None, ["x"], [SPECIAL])
    assert capsys.readouterr().out == reference_csv(["x"], one)


def _ruled_chart(r_range):
    curve = construct.curve_from_zeta(YFunction.from_expr("0.5+0.2*sin(theta)", "theta"),
                                      YFunction.from_expr("0.8", "theta"), (0.0, 6.0))
    return construct.ruled_surface(curve, r_range=r_range)


OBJ_CHARTS = {
    "conicoid": construct.conicoid_chart,
    "helicoid": lambda: construct.helicoid_chart(YFunction(lambda t: math.sin(t), math.cos)),
    "plane": lambda: construct.bernstein_plane(0.3, -0.2, 1.0),
    "saddle": lambda: construct.bernstein_saddle(0.6, 0.8, YFunction.from_expr("sin(y)")),
    "ruled": lambda: _ruled_chart((0.5, 2.0)),
    # a reversed window: its rows run from 2.0 down to 0.5
    "ruled-reversed": lambda: _ruled_chart((2.0, 0.5)),
    "conicoid-reversed": lambda: construct.conicoid_chart(((2.0, -2.0), (1.0, -3.0))),
}


@pytest.mark.parametrize("name", list(OBJ_CHARTS))
def test_obj_matches_per_line_writer(name, tmp_path, capsys):
    # the vertices come from one chart.point call over the mesh; the reference
    # calls it once a vertex with floats
    chart = OBJ_CHARTS[name]()
    path = tmp_path / "s.obj"
    for nu, nv in ((1, 1), (5, 3), (40, 31)):
        cli.mesh_obj(str(path), chart, nu, nv)
        assert path.read_text() == reference_obj(chart, nu, nv)
    cli.mesh_obj(None, chart, 5, 3)
    assert capsys.readouterr().out == reference_obj(chart, 5, 3)


def test_obj_vertices_that_overflow_are_inf_without_a_warning(capsys):
    # the mesh is numpy arithmetic, where Python's float arithmetic was:
    # an overflow is inf and nan there too, and warns nothing (pytest makes
    # a RuntimeWarning an error)
    curve = construct.GeneratingCurve.from_exprs("1.5e308*cos(theta)",
                                                 "1.5e308*sin(theta)", "0")
    chart = construct.ruled_surface(curve, r_range=(0.5, 2.0))
    cli.mesh_obj(None, chart, 3, 5)
    out = capsys.readouterr().out
    with np.errstate(all="ignore"):
        assert out == reference_obj(chart, 3, 5)
    assert "inf" in out


def test_writing_a_trajectory_holds_less_than_its_file(tmp_path):
    # rows go out a block at a time: the heap never holds the whole text
    path = tmp_path / "t.csv"
    argv = ["solve-lienard", "--alpha0", "0.3", "--v0", "-0.1", "--x1", "50",
            "--out", str(path)]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_text().count("\n") == 50_002
    assert peak < path.stat().st_size


@pytest.mark.parametrize("argv, out", [
    (["metric", "--alpha", "special1", "--c1", "y-0.5", "--x-min", "0", "--x-max", "1",
      "--nx", "3", "--ny", "3", "--out"], "m.csv"),
    (["construct", "--curve-x", "log(theta)", "--curve-y", "0", "--curve-z", "0",
      "--theta-min", "1", "--theta-max=-1", "--obj"], "f.obj"),
    (["metric", "--alpha", "general", "--c1", "0", "--c2", "1e-300", "--h", "1e306",
      "--x-min", "1e-5", "--x-max", "1e-5", "--nx", "1", "--ny", "1", "--out"], "inf.csv"),
], ids=["metric-singular", "construct-domain", "metric-not-finite"])
def test_failing_command_writes_no_file(argv, out, tmp_path, capsys):
    path = tmp_path / out
    assert cli.main([*argv, str(path)]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err.count("\n") == 1 and cap.err.startswith("error: ")
    assert not path.exists()


def test_zero_width_trajectory_is_one_row(capsys):
    code, out = run_cli(["solve-lienard", "--alpha0", "0.3", "--v0", "0",
                         "--x0", "0", "--x1", "0"], capsys)
    assert code == 0
    assert out == "x,alpha,v\n0,0.29999999999999999,0\n"


@pytest.mark.parametrize("argv", [
    ["examples", "helicoid", "--nu", "300", "--nv", "300", "--obj", "/dev/stdout"],
    ["solve-lienard", "--alpha0", "0.3", "--v0", "-0.1", "--x1", "100"],
], ids=["obj-to-dev-stdout", "csv-to-stdout"])
def test_reader_that_closes_early_ends_the_run_quietly(argv):
    # as `heismin ... | head -1`: several MB of rows, more than a pipe holds
    src = os.path.dirname(os.path.dirname(heismin.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "heismin", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": path})
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""


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


def reference_phase_field(argv):
    """Reference: phase-field's rows cell by cell, alpha rows of v, each dv
    from a scalar _rhs call."""
    args = cli.build_parser().parse_args(["phase-field", *argv])
    (a_lo, a_hi), (v_lo, v_hi) = cli._windows(args, "alpha", "v")
    alphas = [a_lo + (a_hi - a_lo) * i / (args.nx - 1) for i in range(args.nx)]
    vs = [v_lo + (v_hi - v_lo) * j / (args.nv - 1) for j in range(args.nv)]
    return reference_csv(["x", "v", "dx", "dv"],
                         [(a, v, v, lienard._rhs(a, v, 0.0)[1]) for a in alphas for v in vs])


PHASE_FIELD_GRIDS = {
    # non-square both ways, so that swapping alpha and v shows
    "7x5": ["--nx", "7", "--nv", "5"],
    "5x7": ["--nx", "5", "--nv", "7"],
    "2x2": ["--nx", "2", "--nv", "2"],
    "reversed": ["--alpha-min", "2", "--alpha-max=-1", "--v-min", "3", "--v-max=-2",
                 "--nx", "6", "--nv", "4"],
    "negative-zero": ["--alpha-min=-0.0", "--alpha-max", "1", "--v-min", "1",
                      "--v-max=-0.0", "--nx", "3", "--nv", "4"],
    "1e100": ["--alpha-min=-1e100", "--alpha-max=1e100", "--nx", "7", "--nv", "5"],
}


@pytest.mark.parametrize("name", list(PHASE_FIELD_GRIDS))
def test_phase_field_matches_the_cell_by_cell_reference(name, capsys):
    argv = PHASE_FIELD_GRIDS[name]
    code, out = run_cli(["phase-field", *argv], capsys)
    assert code == 0
    assert out == reference_phase_field(argv)


@pytest.mark.parametrize("argv, outer, inner", [
    (["phase-field", "--nx", "4", "--nv", "3"], 4, 3),
    (["metric", "--alpha", "general", "--c1", "y", "--c2", "1+y", "--nx", "3", "--ny", "5"], 5, 3),
], ids=["phase-field", "metric"])
def test_grid_csv_writes_each_outer_row_on_its_own(argv, outer, inner, monkeypatch, capsys):
    # the header, then one write per alpha (phase-field) or y (metric) row of
    # the grid: the text streams out and is never held whole
    texts = []
    monkeypatch.setattr(cli, "_write_text", lambda out, text: texts.append(text))
    assert cli.main(argv) == 0
    assert capsys.readouterr() == ("", "")
    assert [t.count("\n") for t in texts] == [1] + [inner] * outer
    monkeypatch.undo()
    assert run_cli(argv, capsys) == (0, "".join(texts))


def test_metric_deterministic(capsys):
    argv = ["metric", "--alpha", "general", "--c1", "0.1", "--c2", "1.5",
            "--k", "0.1*y", "--h", "0.3", "--nx", "5", "--ny", "3"]
    _, out1 = run_cli(argv, capsys)
    _, out2 = run_cli(argv, capsys)
    assert out1 == out2
    assert out1.splitlines()[0] == "x,y,alpha,a,b"


def reference_metric(argv):
    """Reference: metric's rows point by point through the scalar code,
    alpha, a and b at each (x, y) in turn."""
    args = cli.build_parser().parse_args(["metric", *argv])
    wx, wy = cli._windows(args, "x", "y")
    m = cli._build_model(args)
    rep = models.metric_rep(m, YFunction.from_expr(args.k), YFunction.from_expr(args.h))
    alpha = numerics.Field2D.from_model(m)
    return reference_csv(["x", "y", "alpha", "a", "b"],
                         [(x, y, alpha(x, y), rep.a(x, y), rep.b(x, y))
                          for y in wy.linspace(args.ny) for x in wx.linspace(args.nx)])


METRIC_MODELS = {
    "vertical": ["--alpha", "vertical", "--k", "y", "--h", "0.3-y"],
    "vertical-negative-x": ["--alpha", "vertical", "--x-min=-2", "--x-max=-0.5"],
    "special1": ["--alpha", "special1", "--c1", "0.3+y", "--k", "0.3*y", "--h", "0.2-y"],
    "special2": ["--alpha", "special2", "--c1", "0.3-y*y", "--h", "1"],
    "general-type-i": ["--alpha", "general", "--c1", "y", "--c2", "1+y", "--k", "y",
                       "--h", "0.5*y"],
    "general-type-ii": ["--alpha", "general", "--c1", "0", "--c2=-1-y",
                        "--x-min", "1.5", "--x-max", "3"],
    "general-type-iii": ["--alpha", "general", "--c1", "0.1*y", "--c2=-1-y",
                         "--x-min=-0.9", "--x-max", "0.9", "--h", "2"],
    "general-reversed-x": ["--alpha", "general", "--c1", "y", "--c2", "1+y",
                           "--x-min", "2.5", "--x-max", "0.5"],
    "general-one-point": ["--alpha", "general", "--c1", "y", "--c2", "1+y",
                          "--nx", "1", "--ny", "1"],
    # non-square both ways, so that swapping x and y shows
    "general-7x5": ["--alpha", "general", "--c1", "y", "--c2", "1+y", "--nx", "7", "--ny", "5"],
    "general-5x7": ["--alpha", "general", "--c1", "y", "--c2", "1+y", "--nx", "5", "--ny", "7"],
    "general-one-row": ["--alpha", "general", "--c1", "y", "--c2", "1+y", "--nx", "9",
                        "--ny", "1"],
    "general-reversed-xy": ["--alpha", "general", "--c1", "y", "--c2", "1+y", "--x-min", "2.5",
                            "--x-max", "0.5", "--y-min", "1", "--y-max", "0", "--nx", "4"],
    "general-negative-zero": ["--alpha", "general", "--c1", "y", "--c2", "1+y",
                              "--x-min=-0.0", "--x-max", "1", "--y-min", "1",
                              "--y-max=-0.0", "--nx", "3", "--ny", "4"],
    "general-1e100": ["--alpha", "general", "--c1", "0", "--c2", "1", "--x-min=-1e100",
                      "--x-max=1e100", "--nx", "5", "--ny", "3"],
}


@pytest.mark.parametrize("name", list(METRIC_MODELS))
def test_metric_matches_the_point_by_point_reference(name, tmp_path, capsys):
    argv = METRIC_MODELS[name]
    path = tmp_path / "m.csv"
    assert cli.main(["metric", *argv, "--out", str(path)]) == 0
    assert capsys.readouterr() == ("", "")
    out = path.read_text()
    assert out == reference_metric(argv)
    if name == "vertical-negative-x":
        # alpha is +0.0 at every x: 0.0 * x would print -0 at negative x
        assert {line.split(",")[2] for line in out.splitlines()[1:]} == {"0"}


@pytest.mark.parametrize("command, argv, reference", [
    ("phase-field", ["--nx", "2", "--nv", "6200"], reference_phase_field),
    ("metric", ["--alpha", "vertical", "--nx", "2100", "--ny", "2"], reference_metric),
], ids=["phase-field", "metric"])
def test_wide_grid_rows_are_formatted_a_block_at_a_time(command, argv, reference,
                                                        monkeypatch, capsys):
    # an outer row of more than _BLOCK_VALUES values, and more than that many
    # coordinates (phase-field), take several formatter calls of at most
    # _BLOCK_VALUES values each, and still write the same text
    sizes, rows = [], g17.Writer.rows

    def counted(writer, columns, seps):
        sizes.append(sum(len(c) for c in columns))
        return rows(writer, columns, seps)

    monkeypatch.setattr(g17.Writer, "rows", counted)
    code, out = run_cli([command, *argv], capsys)
    assert code == 0
    assert max(sizes) <= cli._BLOCK_VALUES < sum(sizes)
    assert out == reference(argv)


@pytest.mark.parametrize("argv, err", [
    (["--alpha", "special1", "--c1", "0", "--x-min", "-1", "--x-max", "1"],
     "special I solution singular at x = 0.0"),
    (["--alpha", "general", "--c1", "0", "--c2", "y-0.5"],
     "c2 vanishes at y = 0.5: general family requires c2 != 0"),
    (["--alpha", "general", "--c1", "0", "--c2", "1", "--h", "sqrt(0.45-y)"],
     "cannot evaluate at y = 0.5: math domain error"),
    (["--alpha", "general", "--c1", "0", "--c2", "0.1", "--h", "1e308",
      "--x-min=-1", "--x-max", "1", "--ny", "3"],
     "cannot evaluate at (x, y) = (-0.3999999999999999, 0.0): "
     "the metric coefficient is not finite"),
    # the first row's singular point x = 1.5 comes after its first point, where
    # e^{k(y)} or h(y) cannot be evaluated
    (["--alpha", "special1", "--c1=-1.5", "--k", "log(y-0.5)"],
     "cannot evaluate at y = 0.0: math domain error"),
    (["--alpha", "special1", "--c1=-1.5", "--h", "log(y-0.5)"],
     "cannot evaluate at y = 0.0: math domain error"),
    (["--alpha", "special1", "--c1=-1.5+y", "--h", "sqrt(0.35-y)"],
     "special I solution singular at x = 1.5"),
], ids=["special1-singular-line", "c2-vanishes", "h-domain", "not-finite",
        "k-before-singular-point", "h-before-singular-point", "singular-point-before-h"])
def test_metric_error_is_the_first_the_scalar_code_meets(argv, err, capsys):
    assert cli.main(["metric", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


def _counting_chart(maker, calls):
    def make(*args, **kwargs):
        chart = maker(*args, **kwargs)
        point = chart.point
        chart.point = lambda u, v: calls.update(["point"]) or point(u, v)
        return chart
    return make


def test_metric_reads_a_row_and_obj_a_mesh_a_call(monkeypatch, tmp_path, capsys):
    # no time gate: a per-point path makes tens of thousands of calls
    calls = Counter()
    for name in ("alpha", "y_speed", "metric_factor"):
        method = getattr(lienard.General, name)
        monkeypatch.setattr(lienard.General, name, lambda self, x, method=method, name=name: (
            calls.update([name]) or method(self, x)))
    assert cli.main(["metric", "--alpha", "general", "--c1", "0.3+0.1*sin(y)",
                     "--c2", "1+0.2*cos(y)", "--k", "0.2*y", "--h", "0.4+0.1*y",
                     "--nx", "201", "--ny", "101", "--out", str(tmp_path / "m.csv")]) == 0
    # per row: alpha once, then a and b, each metric_factor reading the
    # family's guard, but neither y_speed nor the alpha row
    assert calls == {"alpha": 101, "metric_factor": 2 * 101}
    calls.clear()
    for maker in ("conicoid_chart", "ruled_surface"):
        monkeypatch.setattr(construct, maker, _counting_chart(getattr(construct, maker), calls))
    assert cli.main(["examples", "conicoid", "--nu", "200", "--nv", "200",
                     "--obj", str(tmp_path / "c.obj")]) == 0
    assert cli.main(["construct", "--zeta1", "1", "--zeta2", "1",
                     "--obj", str(tmp_path / "r.obj")]) == 0
    assert calls == {"point": 2}
    capsys.readouterr()


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


@pytest.mark.parametrize("k", ["710*y", "800*y"])
def test_normalize_inverts_psi_inside_the_y_domain(k, capsys):
    # e^{-k} overflows below y = -0.9, outside the domain [0, 1]
    code, out = run_cli(["normalize", "--alpha", "special1", "--c1", "0.3", "--k", k],
                        capsys)
    assert code == 0
    # h = 0, so Gamma = 0 and zeta1 is c1 at every y
    assert [z for _, z in json.loads(out)["zeta1"]] == [0.3] * 9


def test_normalize_that_cannot_resolve_y_is_numeric_failure(capfd):
    # Psi = int e^{-710 y} is flat to the last bit beyond y of about 0.05, so
    # samples share a y~; with c1 = y their zetas differ, and the rows would
    # all print the zetas of one y (with a constant c1, as above, they agree)
    code = cli.main(["normalize", "--alpha", "general", "--c1", "y", "--c2", "1",
                     "--k", "710*y"])
    out, err = capfd.readouterr()
    assert (code, out) == (2, "")
    assert err == ("error: Psi does not resolve y = 0.25 from y = 0.125: "
                   "both map to y~ = 0.0014101606182144897\n")


def test_normalize_prints_each_sample_at_its_own_y(capsys):
    # Psi' = e^{-30} at y = 1 makes one ulp of y~ about 3e-5 of y, so a
    # zeta read back through Psi^-1 lands that far off; the sample's own y
    # gives zeta1 = c1 - 2 Gamma = 1.3 + (1 - e^{-30})/30 up to quadrature
    code, out = run_cli(["normalize", "--alpha", "special2", "--c1", "0.3+y", "--k", "30*y",
                         "--h", "0.5", "--samples", "40"], capsys)
    assert code == 0
    assert json.loads(out)["zeta1"][-1][1] == pytest.approx(
        1.3 + (1.0 - math.exp(-30.0)) / 30.0, abs=1e-9)


def test_normalize_command_never_inverts_psi(monkeypatch, capsys):
    calls = []
    invert = models.invert_monotone
    monkeypatch.setattr(models, "invert_monotone",
                        lambda *a: calls.append(a) or invert(*a))
    code, _ = run_cli(["normalize", "--alpha", "general", "--c1", "y", "--c2", "1+y",
                       "--k", "y", "--h", "0.5*y", "--samples", "50"], capsys)
    assert (code, calls) == (0, [])


def test_normalize_reads_k_once_a_point(monkeypatch, capsys):
    # the grid workload's normalize shape: Gamma's and Psi's integrands share one
    # e^{-k} at each of the 5,021 points of their lattices (513 nodes, 512
    # midpoints and 2 a residual panel for each of the 1,998 samples off a node)
    points = Counter()
    parse = YFunction.from_expr

    def counted(src, var="y"):
        f = parse(src, var)
        at, over = f.f, f.arrays[0]
        f.f = lambda y: points.update({src: 1}) or at(y)
        f.arrays = [lambda y: points.update({src: np.size(y)}) or over(y), *f.arrays[1:]]
        return f

    monkeypatch.setattr(YFunction, "from_expr", staticmethod(counted))
    code, _ = run_cli(["normalize", "--alpha", "general", "--c1", "0.3+0.1*sin(y)",
                       "--c2", "0.7+0.2*y", "--k", "0.5*y", "--h", "0.3",
                       "--samples", "2000"], capsys)
    assert code == 0
    assert (points["0.5*y"], points["0.3"]) == (5021, 5021)


@pytest.mark.parametrize("h, y", [("log(y-0.3)", "0.0"), ("log(0.5-y)", "0.5")])
def test_normalize_names_the_first_failing_sample(h, y, capfd):
    # c1 fails from y = 0.875 on, Gamma's h earlier: a sample loop meets h first,
    # and so must the reads over all samples at once
    code = cli.main(["normalize", "--alpha", "special2", "--c1", "log(0.8-y)",
                     "--h", h, "--k", "y"])
    assert (code, capfd.readouterr().err) == (
        2, f"error: cannot evaluate at y = {y}: math domain error\n")


@pytest.mark.parametrize("argv", [
    ["metric", "--alpha", "general", "--c1", "y", "--c2", "1+y", "--nx", "21", "--ny", "11"],
    ["integrability", "--alpha", "general", "--c1", "y", "--c2", "1+y", "--k", "y",
     "--h", "0.5*y"],
], ids=["metric", "integrability"])
def test_grid_commands_slice_the_model_once_a_line(argv, monkeypatch, capsys):
    # alpha, a and b each build one line per y, so one slice each
    calls = Counter()
    slice_at = models.AlphaModel.slice_at

    def counted(self, y):
        calls[y] += 1
        return slice_at(self, y)

    monkeypatch.setattr(models.AlphaModel, "slice_at", counted)
    assert run_cli(argv, capsys)[0] == 0
    assert len(calls) >= 10 and max(calls.values()) <= 3


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
    # a = h(y) * metric_factor(x) = 1e306 * 1e5 is inf
    (["metric", "--alpha", "general", "--c1", "0", "--c2", "1e-300", "--h", "1e306",
      "--x-min", "1e-5", "--x-max", "1e-5", "--nx", "1", "--ny", "1"],
     EVAL + "(x, y) = (1e-05, 0.0): the metric coefficient is not finite\n"),
], ids=["domain", "overflow", "negative-base-power", "graph-domain",
        "graph-negative-base-power", "zero-division", "metric-exp-k-overflow",
        "integrability-exp-k-overflow", "ivp-overflow", "fit-overflow",
        "profile-overflow", "phase-field-overflow", "ivp-step-limit",
        "profile-step-limit", "closed-form-hconst-overflow", "classify-c1",
        "metric-not-finite"])
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


@pytest.mark.parametrize("lo, hi", [("0", "1e300"), ("1e300", "0")], ids=["forward", "reversed"])
def test_a_nan_residual_anywhere_fails_the_report(lo, hi, capsys):
    # u = x*y at x = 1e300: q = 2e300, q^2 u_xx = inf * 0 = nan at one grid
    # column; the maximum sees it whichever end of the window comes first
    assert cli.main(["verify-graph", "--u", "x*y", f"--x-min={lo}", f"--x-max={hi}",
                     "--nx", "3", "--ny", "3"]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err == "error: max_pmge_residual = nan is not finite\n"


def test_a_jacobian_past_1e154_is_classified_without_overflow(capsys):
    # det J = -(1e200)^2 is past the largest float unless J is scaled first
    assert cli.main(["verify-graph", "--u", "1e200*x*y", "--x-min=0", "--x-max=1",
                     "--y-min=0", "--y-max=1", "--nx", "1", "--ny", "1"]) == 0
    cap = capsys.readouterr()
    assert cap.err == ""
    features = json.loads(cap.out)["singular"]["features"]
    assert [(f["kind"], f["point"]) for f in features] == [("IsolatedPoint", [0.0, 0.0])]
    assert cli.main(["verify-graph", "--u", "1e300*x*y"]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err == "error: max_pmge_residual = nan is not finite\n"


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


JSON_FLOATS = st.sampled_from([-0.0, 5e-324, 1e308, 1e16, 1e-5]) | st.floats(allow_nan=False,
                                                                          allow_infinity=False)
JSON_SCALARS = (JSON_FLOATS | st.integers() | st.booleans() | st.none()
                | st.text(st.characters(codec="utf-8", exclude_categories=["Cs"]), max_size=4))
JSON_PAYLOADS = st.recursive(
    JSON_SCALARS | st.lists(JSON_FLOATS, max_size=4)
    | st.lists(st.lists(JSON_FLOATS, max_size=3), max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=12)


@given(JSON_PAYLOADS, st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 5))
@settings(derandomize=True, max_examples=150, deadline=None)
def test_emit_json_writes_the_indented_encoders_bytes(payload, bad, where):
    # lists of floats, and lists of such lists, are written from templates,
    # the rest by json.dumps: the bytes are indent=2's; a figure that is not
    # finite raises NonFiniteResult naming its key, as json.dumps did
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_json(payload)
    assert out.getvalue() == json.dumps(payload, indent=2, allow_nan=False) + "\n"
    rows = [[1.0, 2.0], [3.0, bad]] if where % 2 else [1.0, bad]
    payload = {"ok": payload, "figures": [{"list": rows}][:where % 3] or rows}
    with pytest.raises(NonFiniteResult, match="^figures(\\[0\\]\\.list)?(\\[1\\])?\\[1\\] = "):
        cli._emit_json(payload)


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


ZETAS = ["--zeta1", "0.3+0.2*sin(theta)", "--zeta2", "0.5+0.1*cos(theta)"]
CURVE = ["--curve-x", "cos(theta)", "--curve-y", "sin(2*theta)", "--curve-z", "0.1*theta"]


@pytest.mark.parametrize("source, window, ntheta", [
    (ZETAS, [], "48"),
    (CURVE, [], "48"),
    (ZETAS, ["--theta-min", "3", "--theta-max", "0.5"], "17"),   # reversed window
    (CURVE, ["--theta-min", "3", "--theta-max", "0.5"], "17"),
    (ZETAS, [], "1"),
    (CURVE, [], "1"),
], ids=["zetas", "curve", "zetas-reversed", "curve-reversed", "zetas-one", "curve-one"])
def test_construct_zetas_are_the_float_calls(source, window, ntheta, capsys):
    # one array call per zeta gives each theta the bits of its own float call
    code, out = run_cli(["construct", *source, *window, "--ntheta", ntheta], capsys)
    assert code == 0
    payload = json.loads(out)
    args = cli.build_parser().parse_args(["construct", *source, *window])
    interval = numerics.Window(args.theta_min, args.theta_max)
    if args.zeta1 is not None:
        curve = construct.curve_from_zeta(YFunction.from_expr(args.zeta1, "theta"),
                                          YFunction.from_expr(args.zeta2, "theta"),
                                          interval)
    else:
        curve = construct.GeneratingCurve.from_exprs(args.curve_x, args.curve_y,
                                                     args.curve_z, interval=interval)
    ts = interval.inner(int(ntheta), 1e-9)
    for key, z in zip(("zeta1", "zeta2"), construct.zeta_from_curve(curve)):
        assert payload[key] == [[t, z(t)] for t in ts]
    assert payload["special_type_I"] is (max(abs(z) for _, z in payload["zeta2"]) <= 1e-10)


@pytest.mark.parametrize("obj, theta", [
    (False, "2.0052719069083786"),   # the first sample past 2
    (True, "2.0009765625"),          # the mesh grows the z' lattice first: its midpoint past 2
], ids=["json", "obj"])
def test_construct_zeta_error_names_the_first_theta(obj, theta, tmp_path, capsys):
    argv = ["construct", "--zeta1", "1", "--zeta2", "sqrt(2-theta)"]
    code = cli.main(argv + (["--obj", str(tmp_path / "s.obj")] if obj else []))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: cannot evaluate at theta = {theta}: math domain error\n"


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


def test_degenerate_zero_is_one_isolated_point(capsys):
    # F = (3x^2, 2x - 3y^2) vanishes only at the origin, where J has rank
    # one; the trace cannot leave it, so it is a point and not a curve
    code, out = run_cli(["verify-graph", "--u", "x^3-y^3+x*y", "--nx", "3", "--ny", "3"],
                        capsys)
    assert code == 0
    features = json.loads(out)["singular"]["features"]
    assert [f["kind"] for f in features] == ["IsolatedPoint"]
    assert math.hypot(*features[0]["point"]) <= 1e-4


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
    assert payload["flip_detected"] is True and payload["passed"] is True


def test_go_through_horizontal_curve(capsys):
    # u = -xy + y^2 is singular on y = 0 with F = (-2y, 2y): J d = 2 d_y (-1, 1)
    code, out = run_cli(["go-through", "--u=-x*y+y^2", "--px", "0.5", "--py", "0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    for key in ("cos_limit_plus", "cos_limit_minus", "expected_plus", "expected_minus"):
        assert abs(abs(payload[key]) - math.sqrt(0.5)) <= 1e-9


def test_go_through_tangent_direction_is_one_line(capsys):
    code = cli.main(["go-through", "--u", "x*y", "--px", "0", "--py", "0.5",
                     "--direction", "0", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("error: direction (0.0, 1.0) is tangent to the singular curve "
                   "at (0.0, 0.5)\n")


def test_readme_cli_examples_run_and_pass(tmp_path, capsys):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as f:
        lines = [shlex.split(line, comments=True)[1:] for line in f
                 if line.startswith("heismin ")]
    assert len(lines) >= 12
    for argv in lines:
        argv = [str(tmp_path / a) if flag in ("--out", "--obj") else a
                for flag, a in zip([None] + argv, argv)]
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        verdicts = []
        if out:
            json.loads(out, object_hook=lambda d: verdicts.extend(
                [d["passed"]] if "passed" in d else []) or d)
        assert all(v is True for v in verdicts), argv


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


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["classify", "--bogus"], 1)])
def test_package_runs_as_a_module(argv, code):
    src = os.path.dirname(os.path.dirname(heismin.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "heismin", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == code
    if code == 0:
        assert proc.stdout.startswith("usage: heismin") and proc.stderr == ""
    else:
        assert proc.stdout == "" and proc.stderr.count("\n") == 1


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


TRACED_OPS = """
import json, sys, tempfile
import spans, workloads
tracer = spans.Tracer()
spans.install(tracer)
with tempfile.TemporaryDirectory() as out:
    ctx = workloads.Context(out)
    ctx.tracer = tracer
    ops = {op.label: op for w in workloads.WORKLOADS for op in workloads.build(w, 41, ctx)}
    for label in sys.argv[1:]:
        tracer.begin_op(label)
        ops[label].check(ops[label].run())
print(json.dumps({name: s["count"] for name, s in tracer.summary().items()}))
"""


TRACED_ROUND_TRIP = """
import json, tempfile
import spans, workloads
tracer = spans.Tracer()
spans.install(tracer)
with tempfile.TemporaryDirectory() as out:
    ctx = workloads.Context(out)
    ctx.tracer = tracer
    op = next(op for op in workloads.build("quadrature", 41, ctx)
              if op.label == "zeta round trip")
    op.check(op.run())
print(json.dumps([tracer.counts["integrand_evals"], len(tracer.distinct)]))
"""


def test_traced_round_trip_calls_each_curve_callable_once_per_t():
    # seed 41's zeta round trip, whose nine scalar curve callables the
    # tracer counts per call and per distinct (callable, t): every call is
    # a new one, and their number is the figure the benchmark reports
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(heismin.__file__))
    path = os.pathsep.join([src, os.path.join(root, "bench")])
    proc = subprocess.run([sys.executable, "-c", TRACED_ROUND_TRIP],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    evals, distinct = json.loads(proc.stdout)
    assert evals == distinct == 57696


def test_benchmark_ops_pass_their_oracles_under_the_tracer():
    # the tracer replaces rep.a and rep.b after a rep is built, a chart's
    # point after the chart is built and parsed trees by proxies, and wraps
    # functions by name, so a change to the program's shapes can break a
    # traced run that an untraced one survives: every op of the quadrature
    # and grid workloads, and one of the ode workload's
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(heismin.__file__))
    path = os.pathsep.join([src, os.path.join(root, "bench")])
    proc = subprocess.run([sys.executable, "-c", TRACED_OPS,
                           "zeta round trip", "integrability H=2", "construct --obj",
                           "metric 201x101", "verify-graph plane", "verify-graph saddle",
                           "examples conicoid --obj", "normalize 2000", "fit sweep x40"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    for name in ("construct.zeta", "integrability.quadrature_metric",
                 "integrability.residual", "construct.chart_point", "models.metric",
                 "verify.pmge", "verify.singular_set", "lienard.fit", "models.normalize"):
        assert counts.get(name, 0) > 0, name
