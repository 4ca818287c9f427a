import math

import numpy as np
import pytest

from heismin import construct, heis, models, verify
from heismin.errors import BadRotation, DegenerateChart, SingularPoint
from heismin.models import YFunction


def origin_curve():
    zero = lambda t: 0.0
    return construct.GeneratingCurve(fns=[zero, zero, zero],
                                     d1=[zero, zero, zero],
                                     d2=[zero, zero, zero])


def vertical_line_curve():
    zero = lambda t: 0.0
    return construct.GeneratingCurve(
        fns=[zero, zero, lambda t: t],
        d1=[zero, zero, lambda t: 1.0],
        d2=[zero, zero, zero])


def test_ruled_surface_of_origin_is_plane():
    ch = construct.ruled_surface(origin_curve())
    p = ch.point(1.5, 0.7)
    assert p.x == pytest.approx(1.5 * math.cos(0.7))
    assert p.y == pytest.approx(1.5 * math.sin(0.7))
    assert p.z == 0.0


def test_ruled_surface_of_vertical_line():
    ch = construct.ruled_surface(vertical_line_curve())
    p = ch.point(2.0, 0.3)
    assert p.z == pytest.approx(0.3)
    assert p.x == pytest.approx(2.0 * math.cos(0.3))


def test_rulings_are_legendrian():
    rng = np.random.default_rng(3)
    c = construct.GeneratingCurve.from_exprs(
        "0.3*cos(theta)", "0.2*sin(2*theta)", "0.5*theta")
    ch = construct.ruled_surface(c)
    for _ in range(10):
        r, t = rng.uniform(0.3, 2.0), rng.uniform(0, 2 * math.pi)
        p = ch.point(r, t)
        assert abs(heis.contact_value(p, ch.du(r, t))) <= 1e-12


def test_curve_invariants_vertical_line():
    alpha, a, b = construct.curve_invariants(vertical_line_curve(), 1.0, 0.7)
    assert alpha == pytest.approx(0.5)
    assert a == pytest.approx(0.0, abs=1e-15)
    assert b == pytest.approx(1.0 / math.sqrt(5.0))


def test_curve_invariants_origin_gives_one_over_r():
    alpha, a, b = construct.curve_invariants(origin_curve(), 2.0, 1.1)
    assert alpha == pytest.approx(0.5)  # 1/r


def test_curve_invariants_degeneracies():
    with pytest.raises(DegenerateChart):
        construct.curve_invariants(origin_curve(), 0.0, 0.3)
    # E = 0 with r + D != 0: alpha blows up (needs Theta(C') - D^2 < 0)
    zero = lambda t: 0.0
    down = construct.GeneratingCurve(
        fns=[zero, zero, lambda t: -t],
        d1=[zero, zero, lambda t: -1.0],
        d2=[zero, zero, zero])
    with pytest.raises(SingularPoint):
        construct.curve_invariants(down, 1.0, 0.0)


def test_zeta_from_curve_examples():
    z1, z2 = construct.zeta_from_curve(vertical_line_curve())
    for t in (0.2, 1.5, 4.0):
        assert z1(t) == pytest.approx(0.0, abs=1e-12)
        assert z2(t) == pytest.approx(1.0, abs=1e-12)
    z1p, z2p = construct.zeta_from_curve(origin_curve())
    for t in (0.2, 1.5):
        assert z1p(t) == pytest.approx(0.0, abs=1e-12)
        assert z2p(t) == pytest.approx(0.0, abs=1e-12)


def test_zeta_derivatives_match_fd():
    c = construct.GeneratingCurve.from_exprs(
        "0.4*sin(theta)", "0.3*cos(theta)", "0.2*theta")
    z1, z2 = construct.zeta_from_curve(c)
    h = 1e-6
    for t in (0.8, 2.5, 5.0):
        fd1 = (z1(t + h) - z1(t - h)) / (2 * h)
        assert z1.d(t) == pytest.approx(fd1, abs=1e-8)
        fd2 = (z2(t + h) - z2(t - h)) / (2 * h)
        assert z2.d(t) == pytest.approx(fd2, abs=1e-8)


def test_immersion_locus():
    good = construct.immersion_locus(vertical_line_curve(), [0.1, 1.0, 3.0])
    assert all(r.immersed_everywhere for r in good)
    bad = construct.immersion_locus(origin_curve(), [0.5])
    assert not bad[0].immersed_everywhere
    assert bad[0].bad_radius == pytest.approx(0.0)


def test_curve_from_zeta_examples():
    c = construct.curve_from_zeta(YFunction.constant(0.0),
                                  YFunction.constant(1.0))
    for t in (0.5, 2.0, 5.5):
        p = c.point(t)
        assert p.x == pytest.approx(0.0, abs=1e-12)
        assert p.y == pytest.approx(0.0, abs=1e-12)
        assert p.z == pytest.approx(t, abs=1e-10)
    flat = construct.curve_from_zeta(YFunction.constant(0.0),
                                     YFunction.constant(0.0))
    assert np.allclose(flat.point(3.0).as_array(), 0.0, atol=1e-12)


def test_curve_derivative_consistency_from_exprs():
    c = construct.GeneratingCurve.from_exprs(
        "sin(theta) + 0.1*theta", "cos(2*theta)", "theta^2/10")
    h = 1e-5
    for t in (0.7, 2.2):
        fd = (c.point(t + h).as_array() - c.point(t - h).as_array()) / (2 * h)
        assert np.allclose(c.d1(t), fd, atol=1e-8)
        fd2 = (c.d1(t + h) - c.d1(t - h)) / (2 * h)
        assert np.allclose(c.d2(t), fd2, atol=1e-7)


def test_generating_curve_fd_fallback():
    c = construct.GeneratingCurve(
        fns=[lambda t: math.sin(t), lambda t: t * t, lambda t: math.exp(t)])
    assert c.d1(0.5)[0] == pytest.approx(math.cos(0.5), abs=1e-8)
    for t in (0.5, 1.3, 2.9):
        exact = np.array([-math.sin(t), 2.0, math.exp(t)])
        assert np.max(np.abs(c.d2(t) - exact)) <= 1e-6


def test_bernstein_plane_chart():
    ch = construct.bernstein_plane(1.0, 2.0, 3.0)
    assert ch.extras["singular_point"] == (-2.0, 1.0)
    p = ch.point(0.5, -0.5)
    assert p.z == pytest.approx(0.5 - 1.0 + 3.0)


def test_bernstein_plane_congruence():
    A, B, C = 1.0, 2.0, 3.0
    ch = construct.bernstein_plane(A, B, C)
    motion = heis.RigidMotion(heis.HPoint(B, -A, -C))
    rng = np.random.default_rng(11)
    for _ in range(20):
        x, y = rng.uniform(-3, 3, 2)
        q = heis.apply_motion(motion, ch.point(x, y))
        assert abs(q.z) <= 1e-12


def test_bernstein_saddle_reduction_and_rotation():
    g = YFunction.constant(0.0)
    ch = construct.bernstein_saddle(1.0, 0.0, g)
    assert ch.point(1.5, 2.0).z == pytest.approx(3.0)  # u = xy
    with pytest.raises(BadRotation):
        construct.bernstein_saddle(1.0, 0.5, g)


def test_bernstein_saddle_congruent_to_normal_graph():
    A, B = 0.6, 0.8
    g = YFunction.from_expr("0.3*sin(y)")
    ch = construct.bernstein_saddle(A, B, g)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, y = rng.uniform(-2, 2, 2)
        X = A * x + B * y
        Y = -B * x + A * y
        u = ch.point(x, y).z
        assert abs(u - (X * Y + g(Y))) <= 1e-10


def test_helicoid_values():
    th = YFunction(lambda t: t, lambda t: 1.0)
    ch = construct.helicoid_chart(th)
    assert ch.extras["alpha_closed"](1.0, 0.3) == pytest.approx(0.5)
    flat = construct.helicoid_chart(YFunction.constant(1.0))  # theta' = 0
    assert flat.extras["alpha_closed"](1.3, 0.2) == 0.0


def test_conicoid_values():
    ch = construct.conicoid_chart()
    assert ch.extras["alpha_closed"](0.0, 0.4) == 0.0
    assert ch.extras["ab_closed"](0.0, 0.4) == (1.0, 1.0)
    assert ch.extras["alpha_closed"](1.0, 0.4) == pytest.approx(0.5)
    a, b = ch.extras["ab_closed"](1.0, 0.4)
    assert a == b == pytest.approx(1.0 / math.sqrt(5.0))


def test_conicoid_zetas_via_ruled_pipeline():
    # the conicoid's generating curve (unit circle traversed with the
    # vertical lift) has zeta2 = 1 and linear zeta1
    c = construct.GeneratingCurve.from_exprs(
        "cos(theta)", "sin(theta)", "theta")
    z1, z2 = construct.zeta_from_curve(c)
    for t in (0.5, 2.0, 4.5):
        assert z2(t) == pytest.approx(1.0, abs=1e-10)
        assert z1.d(t) == pytest.approx(z1.d(0.5), abs=1e-9)
