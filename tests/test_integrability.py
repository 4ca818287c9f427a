import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heismin import integrability, lienard, models
from heismin.errors import QuadratureFailure, SingularPoint
from heismin.integrability import Field2D
from heismin.models import AlphaModel, YFunction
from heismin.numerics import PANELS_PER_UNIT


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
    field = Field2D.from_model(m)
    for y in np.linspace(0.0, 1.0, 3):
        for x in np.linspace(0.3, 2.0, 10):
            assert abs(lienard.lienard_residual(field.line(y), x, 0.0)) <= 1e-7


def test_codazzi_residual_2d_value_only_field():
    # without dx, alpha_xx is one second difference of the field, not a
    # difference of a difference (which reads about 4e-5 here)
    m = AlphaModel(lienard.General, yconst(0.0), yconst(1.0))
    field = Field2D.of(lambda x, y: m.slice_at(y).alpha(x))
    for y in np.linspace(0.0, 1.0, 5):
        for x in np.linspace(0.3, 2.0, 25):
            assert abs(lienard.lienard_residual(field.line(y), x, 0.0)) <= 1e-7


def test_residual_stats_reductions():
    s = integrability.ResidualStats(max={1: 0.5, 2: 0.25}, mean={1: 0.1, 2: 0.2})
    assert s.overall_max() == 0.5


def test_reps_and_fields_are_freed_without_the_cyclic_collector():
    # a reference cycle would hold a rep's lattices and memos until the
    # cyclic collector runs; plain reference counting must free them
    m = AlphaModel(lienard.General, yconst(0.1), yconst(1.5))
    curve = lienard.OdeSolutionCurve(0.3, 0.1, 0.3, 2.8, H_const=2.0)

    def quadrature_rep():
        return integrability.metric_from_alpha_H(
            Field2D.from_x_profile(curve.alpha, curve.alpha_x), Field2D.constant(2.0),
            yconst(0.1), yconst(0.3), x_base=0.5)

    def closed_form_rep():
        return models.metric_rep(m, yconst(0.1), yconst(0.4))

    def evaluate(*fns):
        for fn in fns:
            fn(1.1, 0.5)

    gc.disable()
    try:
        for build in (quadrature_rep, closed_form_rep):
            rep = build()
            evaluate(rep.a, rep.b, rep.a_x, rep.b_x)
            refs = [weakref.ref(obj) for obj in (rep, rep.a, rep.b)]
            del rep
            assert [r() for r in refs] == [None] * 3, build.__name__
        field = Field2D.from_model(m)
        evaluate(field, field.dx, field.dxx, field.dy)
        ref = weakref.ref(field)
        del field
        assert ref() is None
    finally:
        gc.enable()


def point_loop_residual(alpha, H, rep, grid):
    """The reference: the residual one point at a time, in expand_grid's order."""
    r = {1: [], 2: [], 3: []}
    for x, y in integrability.expand_grid(grid):
        al, al_x, al_xx = alpha(x, y), alpha.dx(x, y), alpha.dxx(x, y)
        Hv, a, b = H(x, y), rep.a(x, y), rep.b(x, y)
        a_x, b_x, H_x, H_y = rep.a_x(x, y), rep.b_x(x, y), H.dx(x, y), H.dy(x, y)
        root = math.sqrt(1.0 + al * al)
        r[1].append(-a_x + a * b_x / b - Hv * al / root)
        r[2].append(-b_x / b - 2.0 * al - al * al_x / (1.0 + al * al))
        r[3].append(a * H_x + b * H_y - (al_xx - lienard._rhs(al, al_x, Hv)[1]) / root)
    return ({i: float(np.max(np.abs(v))) for i, v in r.items()},
            {i: float(np.mean(np.abs(v))) for i, v in r.items()})


@pytest.mark.parametrize("model", ["special1", "general", "general-type-ii", "h2-quadrature"])
def test_x_row_residual_has_the_point_loops_bits(model):
    k, h = YFunction.from_expr("0.5*y"), YFunction.from_expr("0.1+0.2*y")
    grid = (np.linspace(0.5, 2.5, 50), np.linspace(0.05, 0.95, 20))
    if model == "h2-quadrature":
        curve = lienard.OdeSolutionCurve(0.3, 0.1, 0.49, 2.51, H_const=2.0)
        alpha, H = Field2D.from_x_profile(curve.alpha, curve.alpha_x), Field2D.constant(2.0)
        rep = integrability.metric_from_alpha_H(alpha, H, k, h, x_base=0.5)
    else:
        m = {"special1": AlphaModel(lienard.SpecialI, YFunction.from_expr("0.4+y")),
             "general": AlphaModel(lienard.General, YFunction.from_expr("0.3+0.1*sin(y)"),
                                   YFunction.from_expr("1.5")),
             "general-type-ii": AlphaModel(lienard.General, YFunction.from_expr("-3-y"),
                                           YFunction.from_expr("-0.2"))}[model]
        alpha, H = Field2D.from_model(m), Field2D.constant(0.0)
        rep = models.metric_rep(m, k, h)
    stats = integrability.integrability_residual(alpha, H, rep, grid)
    assert (stats.max, stats.mean) == point_loop_residual(alpha, H, rep, grid)


def test_h2_profile_takes_partial_steps_only_off_the_lattice(monkeypatch):
    # the benchmark's H = 2 shape: the profile on [0.49, 2.51], the lattices
    # from x_base = 0.5, the residual on 50 x 20 points and (a, b) at samples
    s = 0.5 / PANELS_PER_UNIT
    curve = lienard.OdeSolutionCurve(0.3, 0.1, 0.49, 2.51, H_const=2.0)
    queried, steps = [], []
    state, step = curve.state, lienard._rk4_step
    monkeypatch.setattr(curve, "state", lambda x: queried.extend(np.ravel(x)) or state(x))
    monkeypatch.setattr(lienard, "_rk4_step",
                        lambda a, v, dx, H: steps.append(np.size(dx)) or step(a, v, dx, H))
    alpha, H = Field2D.from_x_profile(curve.alpha, curve.alpha_x), Field2D.constant(2.0)
    rep = integrability.metric_from_alpha_H(alpha, H, YFunction.from_expr("0.1*y"),
                                            YFunction.from_expr("0.3+0.1*y"), x_base=0.5)
    grid = (np.linspace(0.5, 2.5, 50), np.linspace(0.05, 0.95, 20))
    assert integrability.integrability_residual(alpha, H, rep, grid).overall_max() <= 1e-6
    for x in (0.5, 1.0, 2.5):
        rep.a(x, 0.5), rep.b(x, 0.5)
    lattice = {0.5 + i * s for i in range(4 * PANELS_PER_UNIT + 1)}   # nodes, midpoints
    assert lattice <= set(queried)
    off = [x for x in queried if not ((x - 0.5) / s).is_integer()]
    assert sum(steps) == len(off) > 0   # one partial step for each x off the lattice
