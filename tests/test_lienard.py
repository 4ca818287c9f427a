import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from heismin import lienard
from heismin.errors import (BlowUp, DegenerateBranch, EvaluationError, MixedType,
                            SingularPoint, StepLimit)
from heismin.numerics import central_d1


def safe_xs(sol, lo=-3.0, hi=3.0, n=30, margin=0.2):
    xs = np.linspace(lo, hi, 301)
    bad = sol.singular_x()
    return [x for x in xs if all(abs(x - s) >= margin for s in bad)][:n]


FAMILIES = [
    lienard.Zero(),
    lienard.SpecialI(c1=0.7),
    lienard.SpecialII(c1=-0.4),
    lienard.General(c1=0.2, c2=1.5),
    lienard.General(c1=-0.5, c2=-0.8),
]


@pytest.mark.parametrize("sol", FAMILIES, ids=lambda s: type(s).__name__)
def test_closed_forms_solve_the_ode(sol):
    for x in safe_xs(sol):
        assert abs(lienard.lienard_residual(sol, x)) <= 1e-9


@pytest.mark.parametrize("sol", FAMILIES, ids=lambda s: type(s).__name__)
def test_metric_factor_is_the_shared_x_profile(sol):
    # metric_factor * sqrt(1 + alpha^2) = e^{-int 2 alpha}: log-derivative -2 alpha
    def log_profile(x):
        return math.log(sol.metric_factor(x) * math.sqrt(1.0 + sol.alpha(x) ** 2))

    for x in safe_xs(sol):
        assert central_d1(log_profile, x, 1e-6) == pytest.approx(
            -2.0 * sol.alpha(x), abs=1e-8)


# g22 = 1/b^2 in normal coordinates as the polynomial of each family: the
# reference that y_speed^2 is checked against
G22 = {
    lienard.Zero: lambda x, c1, c2: 1.0,
    lienard.SpecialI: lambda x, c1, c2: (x + c1) ** 2 + (x + c1) ** 4,
    lienard.SpecialII: lambda x, c1, c2: 1.0 + (2.0 * x + c1) ** 2,
    lienard.General: lambda x, c1, c2: (x + c1) ** 2 + ((x + c1) ** 2 + c2) ** 2,
}


@given(st.sampled_from(list(G22)), st.floats(-50, 50), st.floats(-50, 50),
       st.floats(-50, 50))
@settings(max_examples=500)
def test_y_speed_squared_is_the_first_fundamental_form(family, c1, c2, x):
    assume(c2 != 0.0)
    sol = family(*(c1, c2)[:len(dataclasses.fields(family))])
    try:
        sol.alpha(x)
    except SingularPoint:
        return   # x on the singular locus, where metric_factor does not exist
    speed, g22 = sol.y_speed(x), G22[family](x, c1, c2)
    assert abs(speed * speed - g22) <= 8 * sys.float_info.epsilon * g22
    assert abs(sol.metric_factor(x) * speed - 1.0) <= math.ulp(1.0)


def test_y_speed_on_the_singular_locus():
    assert lienard.SpecialI(c1=-1.0).y_speed(1.0) == 0.0
    assert lienard.General(c1=0.5, c2=-2.25).y_speed(1.0) == 1.5
    assert lienard.General(c1=0.5, c2=-2.25).y_speed(-2.0) == 1.5
    # the regular form keeps the float range where 1/sqrt(X^2 + X^4) would not
    assert lienard.SpecialI(c1=0.0).metric_factor(1e100) == 1e-200


def test_residual_with_fd_fallback():
    sol = lienard.General(c1=0.0, c2=2.0)
    r = lienard.lienard_residual(sol.alpha, 0.8)
    assert abs(r) <= 1e-5  # plain-callable path uses finite differences


def test_nonzero_H_residual():
    # the c^2 alpha term: alpha = const is not a solution unless alpha = 0;
    # residual = 4 alpha^3 + c^2 alpha = 0.5 + 2
    assert lienard.lienard_residual(lambda x: 0.5, 1.0, H_const=2.0) \
        == pytest.approx(2.5, abs=1e-4)


def test_singular_evaluation_raises():
    with pytest.raises(SingularPoint):
        lienard.SpecialI(c1=-1.0).alpha(1.0)
    with pytest.raises(SingularPoint):
        lienard.SpecialII(c1=-2.0).alpha(1.0)
    with pytest.raises(SingularPoint):
        lienard.General(c1=0.0, c2=-1.0).alpha(1.0)


def test_general_requires_nonzero_c2():
    with pytest.raises(ValueError):
        lienard.General(c1=0.0, c2=0.0)


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-1, 1))
@settings(max_examples=200)
def test_fit_solution_reproduces_phase_data(alpha0, v0, x0):
    sol = lienard.fit_solution(alpha0, v0, x0)
    try:
        a, da = sol.alpha(x0), sol.alpha_x(x0)
    except SingularPoint:
        return  # fit landed with x0 on the closed form's pole: skip
    assert a == pytest.approx(alpha0, abs=1e-8 * max(1.0, abs(alpha0)))
    assert da == pytest.approx(v0, abs=1e-7 * max(1.0, abs(v0)))


def test_fit_solution_family_detection():
    assert isinstance(lienard.fit_solution(0.0, 0.0, 1.0), lienard.Zero)
    s1 = lienard.SpecialI(c1=0.3)
    fit1 = lienard.fit_solution(s1.alpha(1.0), s1.alpha_x(1.0), 1.0)
    assert isinstance(fit1, lienard.SpecialI)
    assert fit1.c1 == pytest.approx(0.3, abs=1e-10)
    s2 = lienard.SpecialII(c1=0.9)
    fit2 = lienard.fit_solution(s2.alpha(1.0), s2.alpha_x(1.0), 1.0)
    assert isinstance(fit2, lienard.SpecialII)
    assert fit2.c1 == pytest.approx(0.9, abs=1e-10)
    g = lienard.General(c1=-0.2, c2=0.6)
    fitg = lienard.fit_solution(g.alpha(0.5), g.alpha_x(0.5), 0.5)
    assert isinstance(fitg, lienard.General)
    assert fitg.c1 == pytest.approx(-0.2, abs=1e-10)
    assert fitg.c2 == pytest.approx(0.6, abs=1e-10)


def test_fit_solution_zero_crossing_of_general():
    g = lienard.General(c1=-1.0, c2=0.5)
    x0 = 1.0  # alpha(x0) = 0 exactly
    fit = lienard.fit_solution(g.alpha(x0), g.alpha_x(x0), x0)
    assert isinstance(fit, lienard.General)
    assert fit.c2 == pytest.approx(0.5, abs=1e-12)


def test_rk4_matches_closed_form():
    sol = lienard.General(c1=0.0, c2=1.0)
    traj = lienard.integrate_ivp(sol.alpha(0.0), sol.alpha_x(0.0),
                                 0.0, 3.0, 1e-3)
    err = max(abs(s.alpha - sol.alpha(x)) for x, s in traj)
    assert err <= 1e-8


def test_rk4_blowup_near_pole():
    sol = lienard.SpecialI(c1=0.0)  # pole at x = 0, integrate toward it
    with pytest.raises(BlowUp):
        lienard.integrate_ivp(sol.alpha(1.0), sol.alpha_x(1.0),
                              1.0, -0.5, 1e-4, guard=1e3)


def test_sweep_over_the_step_limit_raises_before_the_first_step(monkeypatch):
    monkeypatch.setattr(lienard, "MAX_RK4_STEPS", 100)
    assert len(lienard.integrate_ivp(0.1, 0.0, 0.0, 0.1, 1e-3)) == 101
    steps = []
    monkeypatch.setattr(lienard, "_rk4_step", lambda *a: steps.append(a))
    with pytest.raises(StepLimit, match=r"needs 200 RK4 steps, more than the limit of 100"):
        lienard.integrate_ivp(0.1, 0.0, 0.0, 0.2, 1e-3)
    with pytest.raises(StepLimit):
        lienard.OdeSolutionCurve(0.1, 0.0, 0.0, 0.2)
    assert steps == []


def test_ode_solution_curve_rejects_non_finite_start():
    # the profile shares integrate_ivp's sweep, so a NaN start is a
    # blow-up, not a lattice of NaN states
    with pytest.raises(BlowUp):
        lienard.OdeSolutionCurve(math.nan, 0.0, 0.0, 1.0)


def test_ode_solution_curve_of_zero_width_holds_one_node():
    # x0 == x1, as [x - 0.01, x + 0.01] is at x = 1e300
    curve = lienard.OdeSolutionCurve(0.1, 0.2, 1.0, 1.0)
    assert curve.state(1.0) == (0.1, 0.2)
    assert curve.state(1.5) == lienard._rk4_step(0.1, 0.2, 0.5, 0.0)


def test_ode_solution_curve_interpolates_smoothly():
    sol = lienard.General(c1=0.3, c2=2.0)
    curve = lienard.OdeSolutionCurve(sol.alpha(0.0), sol.alpha_x(0.0),
                                     0.0, 2.0)
    for x in (0.0, 0.33337, 1.0001, 1.999):
        assert curve.alpha(x) == pytest.approx(sol.alpha(x), abs=1e-10)
        assert curve.alpha_x(x) == pytest.approx(sol.alpha_x(x), abs=1e-9)


def test_conserved_quantity_branches():
    # w = 2 alpha^2/(3v): 0, -1/3, -2/3 are the degenerate branches
    with pytest.raises(DegenerateBranch):
        lienard.conserved_quantity(lienard.PhaseState(0.0, 1.0))   # w = 0
    with pytest.raises(DegenerateBranch):
        lienard.conserved_quantity(lienard.PhaseState(0.5, 0.0))   # v = 0
    s1 = lienard.SpecialI(c1=0.0)
    with pytest.raises(DegenerateBranch):  # v = -alpha^2, w = -2/3
        lienard.conserved_quantity(
            lienard.PhaseState(s1.alpha(2.0), s1.alpha_x(2.0)))
    s2 = lienard.SpecialII(c1=0.0)
    with pytest.raises(DegenerateBranch):  # v = -2 alpha^2, w = -1/3
        lienard.conserved_quantity(
            lienard.PhaseState(s2.alpha(2.0), s2.alpha_x(2.0)))
    g = lienard.General(c1=0.0, c2=1.0)
    val = lienard.conserved_quantity(
        lienard.PhaseState(g.alpha(0.5), g.alpha_x(0.5)))
    assert math.isfinite(val)


def test_conserved_quantity_constant_along_general_orbits():
    g = lienard.General(c1=0.0, c2=1.5)
    vals = []
    for x in np.linspace(0.2, 2.0, 25):
        vals.append(lienard.conserved_quantity(
            lienard.PhaseState(g.alpha(x), g.alpha_x(x))))
    vals = np.array(vals)
    assert np.max(np.abs(vals - vals[0])) <= 1e-9 * max(1.0, abs(vals[0]))


def test_general_orbit_bound():
    # c2 > 0: max |alpha| over the orbit is 1/(2 sqrt(c2))
    c2 = 1.7
    g = lienard.General(c1=0.0, c2=c2)
    xs = np.linspace(-50, 50, 20001)
    m = max(abs(g.alpha(x)) for x in xs)
    assert m == pytest.approx(1.0 / (2.0 * math.sqrt(c2)), abs=1e-6)


def test_phase_field_layout_and_zero():
    field = lienard.phase_field((-1.0, 1.0), (-2.0, 2.0), 3, 5)
    assert len(field) == 15
    # row-major: first row fixes alpha = -1
    assert all(s.alpha == -1.0 for s, _ in field[:5])
    zeros = [(s.alpha, s.v) for s, (da, dv) in field
             if da == 0.0 and dv == 0.0]
    assert zeros == [(0.0, 0.0)]


def test_phase_field_rejects_degenerate_grid():
    with pytest.raises(ValueError):
        lienard.phase_field((-1, 1), (-1, 1), 1, 5)


def reference_ivp(alpha0, v0, x0, x1, step, H_const=0.0, guard=lienard.BLOWUP_GUARD):
    """Reference: the earlier trajectory, a list of (x, PhaseState) built
    one _rk4_step at a time."""
    n = max(1, round(abs(x1 - x0) / step))
    h = (x1 - x0) / n
    out = [(x0, lienard.PhaseState(alpha0, v0))]
    a, v = alpha0, v0
    for i in range(n):
        try:
            a, v = lienard._rk4_step(a, v, h, H_const)
        except OverflowError:
            raise BlowUp(x0 + (i + 1) * h) from None
        if not (math.isfinite(a) and math.isfinite(v)) or abs(a) > guard or abs(v) > guard:
            raise BlowUp(x0 + (i + 1) * h)
        out.append((x0 + (i + 1) * h, lienard.PhaseState(a, v)))
    return out


def same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.mark.parametrize("args", [
    (0.3, -0.1, -0.0, 1.0, 1e-3),
    (0.3, -0.1, 2.0, -0.5, 1e-3),            # negative direction
    (0.3, 0.1, 0.3, 2.8, 1e-3, 1.5),         # H != 0
    (-0.0, -0.0, -0.0, -0.3, 0.1),
    (1e-310, 5e-324, 0.0, 0.01, 1e-3),
])
def test_trajectory_columns_match_list_of_tuples(args):
    traj = lienard.integrate_ivp(*args)
    ref = reference_ivp(*args)
    assert len(traj) == len(ref)
    for (x, s), (rx, rs) in zip(traj, ref, strict=True):
        assert same_float(x, rx)
        assert same_float(s.alpha, rs.alpha) and same_float(s.v, rs.v)
    for i in (0, 1, -1, -2, -len(ref)):
        assert traj[i][0] == ref[i][0] and traj[i][1] == ref[i][1]
    assert same_float(traj[0][0], args[2])
    xs, alphas, vs = traj.columns()
    assert [(x, lienard.PhaseState(a, v)) for x, a, v in zip(xs, alphas, vs)] == ref
    assert same_float(xs[0], args[2])
    with pytest.raises(IndexError):
        traj[len(ref)]
    with pytest.raises(IndexError):
        traj[-len(ref) - 1]


@pytest.mark.parametrize("args", [
    (math.nan, 0.0, 0.0, 1.0, 1e-3),
    (1e200, 0.0, 0.0, 1.0, 1e-3),            # ** overflows on the first step
    (1.0, -1.0, 1.0, -0.5, 1e-4, 0.0, 1e3),  # 1/x toward its pole at 0
])
def test_trajectory_blowup_x_matches_list_of_tuples(args):
    with pytest.raises(BlowUp) as ref:
        reference_ivp(*args)
    with pytest.raises(BlowUp) as got:
        lienard.integrate_ivp(*args)
    assert got.value.x == ref.value.x


def test_phase_field_matches_per_cell_rhs():
    # the row form (one _rhs call over the v column) gives each cell the
    # same bits as a scalar _rhs call, also on a +-1e100 window
    for window in ((-2.0, 2.0), (-1e100, 1e100)):
        field = lienard.phase_field(window, window, 31, 29)
        for s, (da, dv) in field:
            ref = lienard._rhs(s.alpha, s.v, 0.0)
            assert same_float(da, ref[0]) and same_float(dv, ref[1])
        alphas, vs, das, dvs = field.columns()
        assert list(zip(alphas, vs, das, dvs)) == [
            (s.alpha, s.v, da, dv) for s, (da, dv) in field]


@pytest.mark.parametrize("window, point", [
    (((0.0, 1e100), (0.0, 1e300)), "(5e+99, 5e+299)"),     # 6 alpha v is inf
    (((0.0, 1e308), (-2.0, 2.0)), "(5e+307, -2.0)"),       # alpha^3 overflows
    (((0.0, 1.0), (0.0, 1e308)), "(0.0, inf)"),            # (v_hi - v_lo) * j is inf
])
def test_phase_field_non_finite_value_raises(window, point):
    # RuntimeWarnings are errors under pytest, so numpy stays quiet too
    with pytest.raises(EvaluationError, match=re.escape(f"(alpha, v) = {point}")):
        lienard.phase_field(*window, 3, 3)


T = lienard.SurfaceType


def _region(lo, hi, x):
    if x < lo or x > hi:
        return T.TYPE_II
    if lo < x < hi:
        return T.TYPE_III
    raise MixedType(f"window touches the singular curve at x = {x}")


def endpoint_rule(sol, x_window):
    """The type by the earlier per-endpoint rule of models.classify, the
    reference on windows given in increasing order."""
    if sol.c2 > 0:
        return T.TYPE_I
    if x_window is None:
        raise MixedType("c2 < 0 requires an x-window")
    (x_lo, x_hi), (lo, hi) = x_window, sol.singular_x()
    lab = _region(lo, hi, x_lo)
    if lab is not _region(lo, hi, x_hi) or (lab is T.TYPE_II and x_lo < lo and x_hi > hi):
        raise MixedType("x-window straddles or spans the singular curves")
    return lab


def outcome(f, *args):
    try:
        return f(*args)
    except MixedType:
        return MixedType


@st.composite
def general_and_window(draw):
    c1 = draw(st.floats(-3, 3))
    c2 = draw(st.floats(-4, 4).filter(lambda c: c != 0.0))
    sol = lienard.General(c1, c2)
    # endpoints on the singular curves too, where the type is undefined
    end = st.one_of(st.floats(-8, 8), st.sampled_from(sol.singular_x() or (0.0,)))
    window = draw(st.one_of(st.none(), st.tuples(end, end)))
    return sol, window


@given(general_and_window())
@settings(max_examples=400, deadline=None)
def test_general_surface_type_ignores_endpoint_order_and_keeps_the_endpoint_rule(case):
    sol, window = case
    got = outcome(sol.surface_type, window)
    if window is not None:
        assert outcome(sol.surface_type, window[::-1]) is got
        window = tuple(sorted(window))
    assert got is outcome(endpoint_rule, sol, window)


def test_each_surface_type_belongs_to_one_family():
    owners = {t: [f for f in lienard.FAMILIES if t in f.types] for t in T}
    assert all(len(fs) == 1 for fs in owners.values()), owners
