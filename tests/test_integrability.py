import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heismin import integrability, lienard, models
from heismin.errors import QuadratureFailure, SingularPoint
from heismin.integrability import Field2D
from heismin.models import AlphaModel, YFunction


def yconst(c):
    return YFunction.constant(c)


def test_expand_grid_forms():
    meshed = integrability.expand_grid((np.array([0.0, 1.0]),
                                        np.array([5.0, 6.0])))
    assert len(meshed) == 4
    assert meshed[0] == (0.0, 5.0) and meshed[1] == (1.0, 5.0)
    assert integrability.expand_grid(([0.0, 1.0], [5.0, 6.0])) == meshed


def test_field2d_constant_partials():
    f = Field2D.constant(3.0)
    assert f(1.0, 2.0) == 3.0
    assert f.dx(1.0, 2.0) == 0.0 and f.dy(1.0, 2.0) == 0.0


@pytest.mark.parametrize("m", [
    AlphaModel(lienard.SpecialI, YFunction.from_expr("0.4 + 0.1*sin(y)")),
    AlphaModel(lienard.SpecialII, YFunction.from_expr("0.3 + 0.1*y")),
    AlphaModel(lienard.General, YFunction.from_expr("0.2*cos(y)"),
               YFunction.from_expr("1 + 0.5*sin(y)")),
], ids=["special1", "special2", "general"])
def test_closed_form_reps_satisfy_integrability(m):
    k = YFunction.from_expr("0.1*y")
    h = YFunction.from_expr("0.3 + 0.1*y")
    rep = models.metric_rep(m, k, h)
    alpha = Field2D.from_model(m)
    H = Field2D.constant(0.0)
    xs = np.linspace(0.6, 2.4, 12)
    ys = np.linspace(0.05, 0.95, 6)
    stats = integrability.integrability_residual(alpha, H, rep, (xs, ys))
    assert stats.overall_max() <= 1e-7


def test_vertical_rep_satisfies_integrability():
    m = AlphaModel(lienard.Zero)
    rep = models.metric_rep(m, yconst(0.2), yconst(0.5))
    stats = integrability.integrability_residual(
        Field2D.constant(0.0), Field2D.constant(0.0), rep,
        (np.linspace(0, 1, 5), np.linspace(0, 1, 4)))
    assert stats.overall_max() <= 1e-12


def test_quadrature_metric_matches_closed_form_up_to_gauge():
    # with H = 0 both constructions share the x-profile, so their ratio
    # is constant along each y-line
    m = AlphaModel(lienard.General, yconst(0.1), yconst(1.5))
    k = YFunction.from_expr("0.1*y")
    h = yconst(0.0)
    closed = models.metric_rep(m, k, h)
    quad = integrability.metric_from_alpha_H(
        Field2D.from_model(m), Field2D.constant(0.0), k, h, x_base=0.5)
    for y in (0.2, 0.8):
        ratios = [quad.b(x, y) / closed.b(x, y) for x in (0.6, 1.1, 1.9, 2.4)]
        assert max(ratios) - min(ratios) <= 1e-9 * max(ratios)


@settings(max_examples=40, deadline=None)
@given(c1=st.floats(-2.0, 2.0), c2=st.floats(0.05, 3.0), lo=st.floats(0.05, 1.5),
       hi=st.floats(0.05, 1.5), base=st.floats(-1.5, 1.5))
def test_closed_form_metric_over_quadrature_is_constant_through_alpha_zero(
        c1, c2, lo, hi, base):
    # the window holds x = -c1, where alpha = 0: the closed forms are
    # regular there, and their ratio to the quadrature stays constant
    m = AlphaModel(lienard.General, yconst(c1), yconst(c2))
    k, h = YFunction.from_expr("0.1*y"), yconst(0.7)
    closed = models.metric_rep(m, k, h)
    quad = integrability.metric_from_alpha_H(
        Field2D.from_model(m), Field2D.constant(0.0), k, h, x_base=-c1 + base)
    xs = [-c1 - lo, -c1 - 0.5 * lo, -c1, -c1 + hi / 3.0, -c1 + hi]
    for y in (0.2, 0.8):
        for coef in ("a", "b"):
            ratios = [getattr(closed, coef)(x, y) / getattr(quad, coef)(x, y)
                      for x in xs]
            assert max(ratios) - min(ratios) <= 1e-9 * max(ratios)


def test_quadrature_metric_with_nonzero_H_satisfies_equations():
    curve = lienard.OdeSolutionCurve(0.3, 0.1, 0.3, 2.8, H_const=2.0)
    alpha = Field2D.from_x_profile(curve.alpha, curve.alpha_x)
    H = Field2D.constant(2.0)
    rep = integrability.metric_from_alpha_H(
        alpha, H, YFunction.from_expr("0.1*y"), yconst(0.3), x_base=0.5)
    xs = np.linspace(0.5, 2.5, 15)
    ys = np.linspace(0.1, 0.9, 5)
    stats = integrability.integrability_residual(alpha, H, rep, (xs, ys))
    assert stats.overall_max() <= 1e-6


def test_quadrature_failure_on_pole():
    m = AlphaModel(lienard.SpecialI, yconst(0.0))  # pole at x = 0
    alpha = Field2D.from_model(m)
    rep = integrability.metric_from_alpha_H(
        alpha, Field2D.constant(0.0), yconst(0.0), yconst(0.0), x_base=1.0)
    # the quadrature path crosses the pole: either the integrand raises
    # at a node landing on it, or the antiderivative goes non-finite
    with pytest.raises((QuadratureFailure, SingularPoint)):
        rep.b(-0.5, 0.0)


def test_codazzi_residual_2d():
    m = AlphaModel(lienard.General, yconst(0.0), yconst(1.0))
    stats = integrability.codazzi_residual_2d(
        Field2D.from_model(m), 0.0,
        (np.linspace(0.3, 2.0, 10), np.linspace(0.0, 1.0, 3)))
    assert stats.overall_max() <= 1e-7


def test_codazzi_residual_2d_value_only_field():
    # without dx, alpha_xx is one second difference of the field, not a
    # difference of a difference (which reads about 4e-5 here)
    m = AlphaModel(lienard.General, yconst(0.0), yconst(1.0))
    field = Field2D(lambda x, y: m.slice_at(y).alpha(x))
    stats = integrability.codazzi_residual_2d(
        field, 0.0, (np.linspace(0.3, 2.0, 25), np.linspace(0.0, 1.0, 5)))
    assert stats.overall_max() <= 1e-7


def test_residual_stats_reductions():
    s = integrability.ResidualStats(max={1: 0.5, 2: 0.25}, mean={1: 0.1, 2: 0.2})
    assert s.overall_max() == 0.5
