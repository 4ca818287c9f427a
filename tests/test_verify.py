import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heismin import cli, construct, expr, lienard, models, numerics, verify
from heismin.errors import EvaluationError, PreconditionFailed, SingularPoint
from heismin.models import YFunction


def graph(src, window=((-3.0, 3.0), (-3.0, 3.0))):
    return verify.GraphSurface.from_expr(src, window)


def test_F_jacobian_reads_each_second_partial_once():
    calls = []

    def partials(xs, ys):
        calls.append((list(xs), list(ys)))
        return tuple(np.array([v]) for v in (0.0, 0.0, 2.0, 0.5, 3.0))

    g = verify.GraphSurface(lambda x, y: 0.0, partials)
    assert g.F_jacobian(0.1, 0.2).tolist() == [[2.0, -0.5], [1.5, 3.0]]
    assert calls == [([0.1], [0.2])]   # one evaluation gives all three


def test_pmge_residual_examples():
    assert verify.pmge_residual(graph("x*y"), 0.7, -1.2) == 0.0
    assert verify.pmge_residual(graph("x + 2*y + 3"), 1.0, 1.0) == 0.0
    assert verify.pmge_residual(graph("x^2"), 1.0, 0.0) == pytest.approx(2.0)


def test_characteristic_direction_examples():
    # on a graph chart e1 is the graph convention (u_y + x, -(u_x - y))/D
    plane = construct.bernstein_plane(0.0, 0.0, 0.0)
    assert verify.chart_frame(plane, 1.0, 0.0)[0].tolist() == [1.0, 0.0]  # radial
    saddle = construct.bernstein_saddle(1.0, 0.0, YFunction.constant(0.0))  # u = xy
    assert verify.chart_frame(saddle, 1.0, 1.0)[0].tolist() == [1.0, 0.0]  # e1*
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, y = rng.uniform(0.5, 2.5, 2)
        e1, e2, _, _, _ = verify.chart_frame(saddle, x, y)
        u_x, u_y = saddle.graph_u.at(x, y)[:2]
        p, q = u_x - y, u_y + x
        assert abs(math.hypot(*e1) - 1.0) <= 1e-12
        assert e1 == pytest.approx(np.array([q, -p]) / math.hypot(p, q), abs=1e-12)
        assert e2.tolist() == [-e1[1], e1[0]]  # e2 = J e1
    with pytest.raises(SingularPoint):
        verify.chart_frame(plane, 0.0, 0.0)


def test_numeric_alpha_examples():
    plane = construct.ruled_surface(construct.GeneratingCurve(
        fns=[lambda t: 0.0] * 3, d1=[lambda t: 0.0] * 3,
        d2=[lambda t: 0.0] * 3))
    for r in (0.5, 1.3, 2.6):
        assert verify.numeric_alpha_on_chart(plane, r, 0.4) \
            == pytest.approx(1.0 / r, abs=1e-10)
    gxy = graph("x*y").chart()
    assert verify.numeric_alpha_on_chart(gxy, 1.2, 0.7) \
        == pytest.approx(1.0 / 2.4, abs=1e-10)
    hel = construct.helicoid_chart(YFunction(lambda t: t, lambda t: 1.0))
    assert verify.numeric_alpha_on_chart(hel, 1.0, 0.0) \
        == pytest.approx(0.5, abs=1e-10)


def test_numeric_alpha_singular_point():
    g0 = graph("0").chart()
    with pytest.raises(SingularPoint):
        verify.numeric_alpha_on_chart(g0, 0.0, 0.0)


def test_numeric_H_minimal_and_control():
    g0 = graph("0").chart()
    assert abs(verify.numeric_H_on_chart(g0, 1.3, 0.4)) <= 1e-8
    control = graph("x^2").chart()
    assert abs(verify.numeric_H_on_chart(control, 1.0, 0.0)) > 1e-3


def test_singular_set_plane():
    rep = verify.singular_set(graph("1*x + 2*y + 3"))
    assert len(rep.features) == 1
    f = rep.features[0]
    assert f.kind == "IsolatedPoint"
    assert f.point[0] == pytest.approx(-2.0, abs=1e-8)
    assert f.point[1] == pytest.approx(1.0, abs=1e-8)


def test_singular_set_saddle_curve():
    rep = verify.singular_set(graph("x*y"))
    kinds = [f.kind for f in rep.features]
    assert kinds == ["Curve"]
    poly = np.asarray(rep.features[0].polyline)
    assert np.max(np.abs(poly[:, 0])) <= 1e-8  # the curve x = 0
    assert poly[:, 1].max() > 2.5 and poly[:, 1].min() < -2.5


def test_singular_set_parabola_isolated():
    rep = verify.singular_set(graph("x^2"))
    assert [f.kind for f in rep.features] == ["IsolatedPoint"]
    assert np.allclose(rep.features[0].point, (0.0, 0.0), atol=1e-8)


def test_singular_report_serializes():
    rep = verify.singular_set(graph("x*y"))
    d = rep.to_json_dict()
    assert d["features"][0]["kind"] == "Curve"
    assert "tolerance" in d


def test_singular_report_judges_every_residual_by_its_tolerance():
    rep = verify.SingularReport([verify.SingularFeature("IsolatedPoint", (0.0, 0.0)),
                                 verify.SingularFeature("Curve", (1.0, 0.0), [(1.0, 0.0)])])
    assert rep.to_json_dict()["passed"] is True
    rep.features[1].residual = 2.0 * rep.tolerance
    assert rep.to_json_dict()["passed"] is False
    assert verify.SingularReport([]).to_json_dict()["passed"] is True


def test_go_through_flip_on_saddle():
    res = verify.go_through_check(graph("x*y"), (0.0, 0.5))
    assert res.flip_detected
    assert sorted([res.cos_limit_plus, res.cos_limit_minus]) \
        == pytest.approx([-1.0, 1.0], abs=1e-3)
    assert abs(res.expected_plus) == pytest.approx(1.0, abs=1e-12)
    assert (res.cos_limit_plus, res.cos_limit_minus) == (res.expected_plus, res.expected_minus)
    assert res.passed


def test_go_through_saddle_with_g():
    # u = xy + y^2 as a rotated-family graph: singular curve 2x + 2y = 0
    g = graph("x*y + y^2")
    res = verify.go_through_check(g, (-0.5, 0.5))
    assert res.flip_detected
    assert res.cos_limit_plus == pytest.approx(-res.cos_limit_minus, abs=1e-3)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(theta=st.floats(-math.pi, math.pi),
       coef=st.tuples(*[st.floats(-2.0, 2.0)] * 3), Y=st.floats(-1.0, 1.0),
       turn=st.none() | st.floats(0.2, math.pi - 0.2))
@example(theta=math.pi / 2, coef=(0.5, -1.0, 0.3), Y=0.4, turn=None)
@example(theta=-math.pi / 2, coef=(-1.5, 0.2, 1.0), Y=-0.7, turn=1.0)
def test_go_through_flips_on_rotated_saddles(theta, coef, Y, turn):
    # u = XY + g(Y) in the coordinates X = Ax + By, Y = -Bx + Ay is singular on
    # X = -g'(Y)/2; the limits of cos(e1, X_x) are +-A, and e1 flips for every
    # theta, also where A = cos(theta) vanishes and the cosines cannot show it.
    # turn is the angle from the curve's tangent to the approach direction,
    # None for go-through's own
    A, B = math.cos(theta), math.sin(theta)
    a, b, c = coef
    X = -(a * Y + 0.5 * b)
    dX = -a   # dX/dY along the curve
    tangent = math.atan2(B * dX + A, A * dX - B)
    d = None if turn is None else (math.cos(tangent + turn), math.sin(tangent + turn))
    g = construct.bernstein_saddle(A, B, YFunction(
        lambda y: (a * y + b) * y + c, lambda y: 2.0 * a * y + b, lambda y: 2.0 * a)).graph_u
    res = verify.go_through_check(g, (A * X - B * Y, B * X + A * Y), d)
    assert res.flip_detected and res.passed
    assert abs(res.cos_limit_plus - res.expected_plus) <= 1e-6
    assert abs(res.cos_limit_minus - res.expected_minus) <= 1e-6
    assert res.expected_minus == -res.expected_plus
    assert abs(res.expected_plus) == pytest.approx(abs(A), abs=1e-12)


@pytest.mark.parametrize("src, point, direction", [
    ("x*y + sin(y)", (-0.5, 0.0), (1.0, 0.3)),
    # u = XY + e^Y rotated by (A, B) = (0.8, 0.6), singular at X = -1/2, Y = 0
    ("-0.48*x^2 + 0.28*x*y + 0.48*y^2 + exp(0.8*y - 0.6*x)", (-0.4, -0.3), None),
])
def test_go_through_array_read_keeps_the_bits_of_a_loop_over_the_points(
        src, point, direction):
    g = graph(src)
    res = verify.go_through_check(g, point, direction)
    t = verify._kernel(g.F_jacobian(*point))   # the curve's tangent
    d = np.array(direction or (-t[1], t[0]), dtype=float)
    d /= math.hypot(*d)

    def limit(sign):
        vals = []
        for k in range(1, 21):
            x = point[0] + sign * 0.1 * 2.0**-k * d[0]
            y = point[1] + sign * 0.1 * 2.0**-k * d[1]
            u_x, u_y = g.at(x, y)[:2]
            p, q = u_x - y, u_y + x
            vals.append(q / (math.hypot(p, q) * math.sqrt(1.0 + p * p)))
        return numerics.richardson_limit(vals)

    assert (res.cos_limit_plus, res.cos_limit_minus) == (limit(1.0), limit(-1.0))
    assert res.passed


def test_go_through_sees_a_flip_perpendicular_to_X_x():
    # u = -xy + x^2: q = u_y + x vanishes, so cos(e1, X_x) is 0 on both sides of
    # the curve x = y, while e1 = (0, -sign p) flips; e1's own limits show it
    res = verify.go_through_check(graph("-x*y + x^2"), (0.5, 0.5))
    assert (res.cos_limit_plus, res.cos_limit_minus, res.expected_plus) == (0.0, 0.0, 0.0)
    assert res.flip_detected and res.passed


def test_go_through_preconditions():
    with pytest.raises(PreconditionFailed):
        verify.go_through_check(graph("0"), (0.0, 0.0))  # isolated point
    with pytest.raises(PreconditionFailed):
        verify.go_through_check(graph("x*y"), (1.0, 1.0))  # regular point
    with pytest.raises(PreconditionFailed, match="tangent"):
        verify.go_through_check(graph("x*y"), (0.0, 0.5), (0.0, -2.0))  # along x = 0


def test_legendrian_line_check_and_control():
    c = construct.GeneratingCurve.from_exprs(
        "0.2*sin(theta)", "0.3*cos(theta)", "0.1*theta")
    ch = construct.ruled_surface(c)
    samples = [(r, t) for r in (0.5, 1.5) for t in (0.3, 2.0, 5.0)]
    mt, mb = verify.legendrian_line_check(ch, samples)
    assert mt <= 1e-12 and mb <= 1e-12

    import copy
    bad = copy.copy(ch)
    good_point, good_du = ch.point, ch.du
    bad.point = lambda r, t: type(good_point(r, t))(
        good_point(r, t).x, good_point(r, t).y,
        good_point(r, t).z + 0.01 * r * r)
    bad.du = lambda r, t: good_du(r, t) + np.array([0.0, 0.0, 0.02 * r])
    mt_bad, mb_bad = verify.legendrian_line_check(bad, samples)
    assert mt_bad > 1e-3       # rulings no longer Legendrian
    assert mb_bad > 1e-4       # and no longer straight


def test_codazzi_along_characteristic_coordinate():
    # on the conicoid the first parameter is an arc-length characteristic
    # coordinate, so numeric alpha along it satisfies the ODE
    con = construct.conicoid_chart()
    for s in (0.3, 1.1):
        f = lambda t: verify.numeric_alpha_on_chart(con, t, s)
        for t in (-0.8, 0.2, 1.0):
            assert abs(lienard.lienard_residual(f, t)) <= 1e-4


def test_helicoid_type_adjacency():
    # theta' = -1: general family with c2 = -1 along the s coordinate
    hel = construct.helicoid_chart(YFunction(lambda t: -t, lambda t: -1.0),
                                   domain=((-3.0, 3.0), (-1.0, 1.0)))
    t = 0.2

    def alpha(s):
        return verify.numeric_alpha_on_chart(hel, s, t)

    for s0, window, expected in [
        (0.5, (0.2, 0.7), models.SurfaceType.TYPE_III),
        (1.8, (1.3, 2.5), models.SurfaceType.TYPE_II),
        (-1.8, (-2.5, -1.3), models.SurfaceType.TYPE_II),
    ]:
        h = 1e-5
        v0 = (alpha(s0 + h) - alpha(s0 - h)) / (2 * h)
        sol = lienard.fit_solution(alpha(s0), v0, s0)
        assert isinstance(sol, lienard.General)
        assert sol.c2 == pytest.approx(-1.0, abs=1e-4)
        m = models.AlphaModel(lienard.General, YFunction.constant(sol.c1),
                              YFunction.constant(sol.c2))
        assert models.classify(m, x_window=window) is expected


def test_zero_width_window_makes_one_newton_seed(monkeypatch, capsys):
    seeds = []
    newton = verify._newton_zero

    def record(g, x0, y0):
        seeds.extend(zip(np.asarray(x0).tolist(), np.asarray(y0).tolist()))
        return newton(g, x0, y0)

    monkeypatch.setattr(verify, "_newton_zero", record)
    assert cli.main(["verify-graph", "--u", "1/x", "--x-min=1", "--x-max=1",
                     "--y-min=1", "--y-max=1", "--nx", "1", "--ny", "1"]) == 0
    assert seeds == [(1.0, 1.0)]
    assert json.loads(capsys.readouterr().out)["singular"]["newton_failures"] == 1


def test_newton_iterate_outside_the_domain_is_a_failed_seed():
    # F = (-1/x^2 - y, x): the closed-form step solves x + dx = 0 exactly,
    # so every seed's first iterate is x = 0.0, where 1/x has no value
    x, y, res = verify._newton_zero(graph("1/x"), [1.0, 2.0], [1.0, -0.5])
    assert np.isnan(res).all() and np.isnan(x).all() and np.isnan(y).all()
    with pytest.raises(EvaluationError, match=r"\(x, y\) = \(0\.0, 1\.0\)"):
        verify._newton_zero(graph("1/x"), [0.0, 1.0], [1.0, 1.0])   # a seed itself


@pytest.mark.parametrize("u, seeds, zero", [
    ("0.3*x - 0.2*y + 1", [(-3.0, 3.0), (0.0, 0.0), (2.5, -1.0)], (0.2, 0.3)),
    ("x^2", [(1.0, 1.0), (-2.0, 0.5)], (0.0, 0.0)),
])
def test_batched_newton_matches_one_seed_at_a_time(u, seeds, zero):
    g = graph(u)
    xs, ys = (np.array(c) for c in zip(*seeds))
    x, y, res = verify._newton_zero(g, xs, ys)
    assert np.all(res <= verify.NEWTON_TOL)
    assert np.allclose(x, zero[0], atol=1e-9) and np.allclose(y, zero[1], atol=1e-9)
    for i, seed in enumerate(seeds):
        one = verify._newton_zero(g, [seed[0]], [seed[1]])
        assert [float(v[0]) for v in one] == [x[i], y[i], res[i]]


def test_rank_one_step_is_the_least_squares_step():
    # u = x*y: J = [[0, 0], [2, 0]] has rank one; the step is lstsq's
    # minimum-norm answer, which lands on the singular line x = 0
    x, y, res = verify._newton_zero(graph("x*y"), [0.7, -1.3], [0.4, 2.0])
    assert x.tolist() == [0.0, 0.0] and y.tolist() == [0.4, 2.0]
    assert res.tolist() == [0.0, 0.0]


def test_huge_jacobian_steps_without_overflow():
    # |J|_F^2 = 2e400 overflows; the scaled step does not
    x, y, res = verify._newton_zero(graph("1e200*x*y"), [0.5, -2.0], [1.5, 0.25])
    assert x.tolist() == [0.0, 0.0] and y.tolist() == [0.0, 0.0]


def test_partials_over_no_points_are_five_empty_arrays():
    for u in ("x*y", "exp(x)/y", "3"):
        assert [p.shape for p in graph(u).partials([], [])] == [(0,)] * 5


def test_jacobian_past_2_to_the_1023_steps_to_the_zero():
    # max |J| = 1e308 >= 2^1023: scaled by the power of two above it, J was
    # 0 and every step 0/0; the power at or below it keeps the step finite
    window = ((-1e-300, 1e-300), (-1e-300, 1e-300))
    for u in ("1e300*x*y", "1e308*x*y"):
        report = verify.singular_set(verify.GraphSurface.from_expr(u, window))
        assert report.newton_failures == 0
        assert [f.kind for f in report.features] == ["IsolatedPoint"]


COORDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-300, 1e300]),
                   st.floats(-10.0, 10.0))
FINITE_TREES = st.recursive(
    st.one_of(st.floats(-5.0, 5.0).map(expr.Num), st.sampled_from(["x", "y"]).map(expr.Var),
              st.sampled_from([0.0, 1.0, 2.0, 0.5, 3.0]).map(expr.Num)),
    lambda kids: st.one_of(
        kids.map(expr.Neg),
        st.builds(expr.BinOp, st.sampled_from("+-*/^"), kids, kids),
        st.builds(expr.Call, st.sampled_from(sorted(expr.FUNCS)), kids)),
    max_leaves=8)


def _bits(values):
    return [struct.pack("<d", v) if not math.isnan(v) else "nan" for v in values]


@given(FINITE_TREES, st.lists(st.tuples(COORDS, COORDS), min_size=2, max_size=6))
@example(expr.parse_expr_multi("1/(x-y) + log(x)"), [(2.0, 0.5), (1.0, 1.0), (-1.0, 0.0)])
@example(expr.parse_expr_multi("x*y + 0.2*y^2 + 0.1*y"), [(0.5, -0.0), (-3.0, 3.0)])
@settings(max_examples=150, deadline=None, derandomize=True)
def test_partials_over_arrays_are_the_scalar_code_bit_for_bit(tree, points):
    # more than one point runs the array code; at() runs the scalar code
    g = graph(tree.pretty())
    xs, ys = (np.array(c) for c in zip(*points))
    try:
        want = [_bits(c) for c in zip(*(g.at(x, y) for x, y in points))]
    except EvaluationError as exc:
        # the scalar code raises at the first point in order; so does partials
        with pytest.raises(EvaluationError) as got:
            g.partials(xs, ys)
        assert str(got.value) == str(exc)
        return
    assert [_bits(c.tolist()) for c in g.partials(xs, ys)] == want


def test_partials_raise_the_scalar_message_at_the_first_bad_point():
    g = graph("1/(x-y) + log(x)")
    with pytest.raises(EvaluationError) as want:
        g.at(1.0, 1.0)
    with pytest.raises(EvaluationError) as got:
        g.partials([2.0, 1.0, 1.0], [0.5, 1.0, 2.0])
    assert str(got.value) == str(want.value) \
        == "cannot evaluate at (x, y) = (1.0, 1.0): float division by zero"
    # log(x) itself is outside its domain at (-1, 0), but none of its
    # partials is: they hold 1/x, so partials, as the scalar code, has values
    at = g.partials([-1.0, 2.0], [0.0, 0.5])
    assert [c.tolist() for c in at] == [list(c) for c in zip(g.at(-1.0, 0.0), g.at(2.0, 0.5))]
    with pytest.raises(EvaluationError, match=r"\(-1\.0, 0\.0\): math domain error$"):
        g.u(-1.0, 0.0)


def test_jacobian_rank_test_is_the_unscaled_formula_without_its_overflow():
    # near-rank-one J, det J / max |J|^2 about JACOBIAN_RANK_TOL, scaled by
    # 1e-150 .. 1e150: nothing overflows, so scaling by a power of two first
    # must not change one answer
    rng = np.random.default_rng(5)
    n = 4000
    a, b, c = rng.uniform(0.5, 2.0, (3, n))
    d = b * c / a * (1.0 + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, -4.0, n))
    k = 10.0 ** rng.integers(-150, 151, n).astype(float)
    answers = set()
    for J in np.stack([[a, b], [c, d]]).transpose(2, 0, 1) * k[:, None, None]:
        scale = float(np.max(np.abs(J)))
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        want = abs(det) <= verify.JACOBIAN_RANK_TOL * max(1.0, scale * scale)
        assert verify._jacobian_is_singular(J) == want
        answers.add((want, scale > 1.0))
    assert answers >= {(True, True), (False, True), (True, False)}
    # past 1e154 the unscaled squares overflow (a RuntimeWarning, an error here)
    assert not verify._jacobian_is_singular(np.array([[0.0, 1e300], [1e300, 0.0]]))
    assert verify._jacobian_is_singular(np.full((2, 2), 1.7e308))


def test_pmge_residual_takes_arrays_and_scalars():
    g = graph("x^2")
    xs, ys = np.array([1.0, 0.5, -2.0]), np.array([0.0, 1.0, 3.0])
    assert verify.pmge_residual(g, xs, ys).tolist() == \
        [verify.pmge_residual(g, x, y) for x, y in zip(xs, ys)]
    assert isinstance(verify.pmge_residual(g, 1.0, 0.0), float)
