import json
import math

import numpy as np
import pytest

from heismin import cli, construct, lienard, models, verify
from heismin.errors import PreconditionFailed, SingularPoint
from heismin.models import YFunction


def graph(src, window=((-3.0, 3.0), (-3.0, 3.0))):
    return verify.GraphSurface.from_expr(src, window)


def test_pmge_residual_examples():
    assert verify.pmge_residual(graph("x*y"), 0.7, -1.2) == 0.0
    assert verify.pmge_residual(graph("x + 2*y + 3"), 1.0, 1.0) == 0.0
    assert verify.pmge_residual(graph("x^2"), 1.0, 0.0) == pytest.approx(2.0)


def test_characteristic_direction_examples():
    g0 = graph("0")
    e1 = verify.characteristic_direction(g0, 1.0, 0.0)
    assert (e1.c1, e1.c2) == (1.0, 0.0)  # radial
    gxy = graph("x*y")
    e1 = verify.characteristic_direction(gxy, 1.0, 1.0)
    assert (e1.c1, e1.c2) == (1.0, 0.0)  # the e1* direction
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, y = rng.uniform(0.5, 2.5, 2)
        e = verify.characteristic_direction(gxy, x, y)
        assert abs(e.norm - 1.0) <= 1e-12
    with pytest.raises(SingularPoint):
        verify.characteristic_direction(g0, 0.0, 0.0)


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


def test_go_through_saddle_with_g():
    # u = xy + y^2 as a rotated-family graph: singular curve 2x + 2y = 0
    g = graph("x*y + y^2")
    res = verify.go_through_check(g, (-0.5, 0.5))
    assert res.flip_detected
    assert res.cos_limit_plus == pytest.approx(-res.cos_limit_minus, abs=1e-3)


def test_go_through_preconditions():
    with pytest.raises(PreconditionFailed):
        verify.go_through_check(graph("0"), (0.0, 0.0))  # isolated point
    with pytest.raises(PreconditionFailed):
        verify.go_through_check(graph("x*y"), (1.0, 1.0))  # regular point


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
    monkeypatch.setattr(verify, "_newton_zero",
                        lambda g, x0, y0: seeds.append((x0, y0)) or newton(g, x0, y0))
    assert cli.main(["verify-graph", "--u", "1/x", "--x-min=1", "--x-max=1",
                     "--y-min=1", "--y-max=1", "--nx", "1", "--ny", "1"]) == 0
    assert seeds == [(1.0, 1.0)]
    assert json.loads(capsys.readouterr().out)["singular"]["newton_failures"] == 1
