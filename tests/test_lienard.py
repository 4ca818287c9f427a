import array
import dataclasses
import math
import re
import sys
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from heismin import lienard
from heismin.errors import (BlowUp, DegenerateBranch, EvaluationError, HeisminError,
                            MixedType, SingularPoint, StepLimit)
from heismin.numerics import EPS_DEN, PANELS_PER_UNIT, central_d1


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


def hand_forms(sol, x):
    """alpha, alpha' and alpha'' of the paper's hand-derived closed forms,
    exact at the float x, and X = x + c1/scale, the sum that rounds first."""
    s, c1 = Fraction(sol.scale), Fraction(getattr(sol, "c1", 0.0))
    X = Fraction(x) + c1 / s
    if isinstance(sol, lienard.Zero):
        return (Fraction(0),) * 3, X
    if isinstance(sol, lienard.General):
        c2 = Fraction(sol.c2)
        den = X * X + c2
        return (X / den, (c2 - X * X) / den**2, 2 * X * (X * X - 3 * c2) / den**3), X
    a = 1 / (s * X)   # 1/(x + c1) and 1/(2x + c1)
    return (a, -s * a**2, 2 * s * s * a**3), X


def condition(forms, X):
    """kappa of alpha, alpha' and alpha'': the magnitudes of the terms of
    alpha = h/w, alpha' = k/w - 2 alpha^2 and alpha'' = alpha (8 alpha^2 -
    6 k/w), each plus |X| times the next derivative, which a rounding of X
    moves it by; alpha''' = alpha' (8 alpha^2 - 6 k/w) + alpha (16 alpha
    alpha' + 12 k alpha/w), as w''' = 0 and (k/w)' = -2 alpha k/w."""
    a, da, dda = forms
    kw = da + 2 * a * a   # k/w
    ddda = da * (8 * a * a - 6 * kw) + a * (16 * a * da + 12 * kw * a)
    return (abs(a) + abs(X * da), abs(kw) + 2 * a * a + abs(X * dda),
            abs(a) * (8 * a * a + 6 * abs(kw)) + abs(X * ddda))


EXACT_FAMILIES = [*FAMILIES, lienard.SpecialI(c1=-0.37), lienard.SpecialII(c1=0.37),
                  lienard.General(c1=0.37, c2=1.9), lienard.General(c1=0.37, c2=-1.9)]


@pytest.mark.parametrize("sol", EXACT_FAMILIES, ids=repr)
def test_closed_forms_match_the_exact_hand_derived_forms(sol):
    # within 4 eps kappa of the exact values at the float x, singular
    # neighbourhoods included: the w-derived forms measure at most 1.02 eps
    # kappa here and the per-family forms they replaced 1.68, while a
    # coefficient perturbed by one (6 -> 5 in alpha'') misses by far more
    near = [z + d for z in (*sol.singular_x(), -getattr(sol, "c1", 0.0)) for d in (-1e-5, 1e-5)]
    xs = [x for x in np.linspace(-3.0, 3.0, 601).tolist() + near
          if all(abs(x - z) > 1e-6 for z in sol.singular_x())]
    for x in xs:
        forms, X = hand_forms(sol, x)
        got = (sol.alpha(x), sol.alpha_x(x), sol.alpha_xx(x))
        for name, g, exact, kappa in zip(("alpha", "alpha_x", "alpha_xx"), got, forms,
                                         condition(forms, X)):
            err = abs(Fraction(g) - exact)
            assert err <= 4 * Fraction(sys.float_info.epsilon) * kappa, (name, x, float(err))


@pytest.mark.parametrize("sol", EXACT_FAMILIES, ids=repr)
def test_the_forms_over_an_array_have_the_float_calls_bits(sol):
    # alpha_x and alpha_xx square with float ** over an array too: numpy's
    # square differs from it in the last bit (for General(c1=0.37, c2=1.9) on
    # 100,001 points of [-3, 3], at 73 and 65 of them)
    xs = np.array([x for x in np.linspace(-3.0, 3.0, 6001).tolist()
                   if all(abs(x - z) > 1e-6 for z in sol.singular_x())])
    for name in ("alpha", "alpha_x", "alpha_xx", "y_speed"):
        got = np.broadcast_to(getattr(sol, name)(xs), xs.shape)
        want = np.array([getattr(sol, name)(x) for x in xs.tolist()])
        assert (got.view(np.uint64) == want.view(np.uint64)).all(), name


def test_special_i_past_the_overflow_of_w_is_one_over_x():
    # w = X^2 (X = x + c1) overflows for |X| > 1.34e154, where h/w read 0;
    # alpha, alpha_x and alpha_xx there are 1/X, -1/X^2 and 2/X^3 rounded
    # from X itself (the last a zero with X's sign, which the profile's
    # arithmetic already gives), and every bit where X * X is finite is unchanged
    sol = lienard.SpecialI(c1=0.4)
    xs = [1e154, 1.34e154, 1.35e154, 2e154, 4e161, 1e200, -2e154, -1e300, 1.7e308]
    for x in xs:
        X = x + 0.4
        if math.isfinite(X * X):
            a = X / (X * X)
            want = (a, 1.0 / (X * X) - 2.0 * a**2, a * (8.0 * a**2 - 6.0 / (X * X)))
        else:
            want = tuple(float(c * Fraction(X)**-p) for c, p in ((1, 1), (-1, 2), (2, 3)))
        got = (sol.alpha(x), sol.alpha_x(x), sol.alpha_xx(x))
        assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()
    assert lienard.SpecialI(c1=0.0).alpha(1e200) == 1e-200
    assert sol.alpha_x(2e154) == -2.5e-309   # subnormal
    with np.errstate(over="ignore"):
        for name in ("alpha", "alpha_x", "alpha_xx", "y_speed", "metric_factor"):
            got = getattr(sol, name)(np.array(xs))
            want = np.array([getattr(sol, name)(x) for x in xs])
            assert (got.view(np.uint64) == want.view(np.uint64)).all(), name


def bits(values):
    return np.array(values, dtype=float).view(np.uint64).tolist()


def metric_factor_is_one_over_w(m, X, w):
    """m is 1/w rounded, and so is the true 1/hypot(w, X), which lies in
    (1/w (1 - X^2/(2 w^2)), 1/w]: both ends of that interval round to m."""
    return m == float(1 / w) == float((1 - X * X / (2 * w * w)) / w)


@pytest.mark.parametrize("sol", [
    lienard.SpecialI(c1=0.4), lienard.General(c1=0.3, c2=1.0), lienard.General(c1=0.0, c2=-0.5),
    lienard.General(c1=0.3, c2=1e308), lienard.General(c1=0.0, c2=-1.7e308)], ids=repr)
def test_past_the_overflow_of_w_the_forms_are_rounded_from_exact_values(sol):
    # where X = x + c1 is finite and w = X^2 + c2 overflows, h/w read 0; alpha,
    # alpha_x and metric_factor are rounded there from the exact X and c2
    # (metric_factor from 1/w, within 1e-300 of 1/hypot(w, X)), with every
    # bit unchanged where w is finite.  c2 = 1e308 overflows w where X * X
    # does not, and c2 = -1.7e308 leaves the true w far below the float range
    xs = [1e154, 1.2e154, 1.34e154, 1.35e154, 2e154, 4e161, 1e200, -2e154, -1e300, 1.7e308]
    c2 = getattr(sol, "c2", 0.0)
    for x in xs:
        X = x + sol.c1
        got = (sol.alpha(x), sol.alpha_x(x), sol.metric_factor(x))
        if math.isfinite(X * X + c2):   # the parent's arithmetic, bit for bit
            w = X * X + c2
            assert bits(got) == bits((X / w, 1.0 / w - 2.0 * (X / w)**2, 1.0 / math.hypot(w, X)))
            continue
        FX, w = Fraction(X), Fraction(X) ** 2 + Fraction(c2)
        assert bits(got[:2]) == bits((float(FX / w), float((Fraction(c2) - FX * FX) / (w * w))))
        assert metric_factor_is_one_over_w(got[2], FX, w)
        assert FX * FX / (2 * w * w) < Fraction(1e-300)
    with np.errstate(over="ignore"):
        for name in ("alpha", "alpha_x", "alpha_xx", "metric_factor"):
            got = getattr(sol, name)(np.array(xs))
            assert bits(got) == bits([getattr(sol, name)(x) for x in xs]), name


@pytest.mark.parametrize("sol", [
    lienard.SpecialI(c1=0.4), lienard.General(c1=0.3, c2=1e308),
    lienard.General(c1=0.0, c2=-1.7e308), lienard.General(c1=-0.0, c2=-1.797e308)], ids=repr)
def test_past_the_overflow_of_w_y_speed_is_w_rounded_once(sol):
    # hypot(w, X) is w to a relative 1e-300 there: y_speed is the exact w
    # rounded once, inf only where the true w is out of the float range;
    # metric_factor keeps 1/w rounded once, not 1/y_speed
    xs = [1e154, 1.34e154, 1.35e154, 1.3407807929942596e154, 2e154, 1e200, -2e154, 1.7e308]
    c2 = getattr(sol, "c2", 0.0)
    for x in xs:
        X = x + sol.c1
        if math.isfinite(X * X + c2):
            assert sol.y_speed(x) == math.hypot(X * X + c2, X)
            continue
        w = Fraction(X) ** 2 + Fraction(c2)
        try:
            want = float(w)
        except OverflowError:
            want = math.inf
        assert bits([sol.y_speed(x)]) == bits([want]), x
        assert sol.metric_factor(x) == float(1 / w)
    with np.errstate(over="ignore"):
        got = sol.y_speed(np.array(xs))
    assert bits(got) == bits([sol.y_speed(x) for x in xs])


def test_an_array_keeps_the_zeros_below_the_overflow_of_w():
    # past the overflow the forms read 0, so an array call looks there only
    # where a value is 0; a zero below the overflow keeps its bits, its sign too
    for sol, x in ((lienard.General(c1=0.3, c2=1.0), -0.3),
                   (lienard.General(c1=-0.0, c2=1.0), -0.0),
                   (lienard.General(c1=0.0, c2=-1.0), 1e200)):
        for name in ("alpha", "alpha_x", "metric_factor"):
            xs = np.array([x, 0.5, x])
            with np.errstate(over="ignore"):
                got = getattr(sol, name)(xs)
            assert bits(got) == bits([getattr(sol, name)(t) for t in xs.tolist()]), (sol, name)
    assert bits([lienard.General(c1=-0.0, c2=1.0).alpha(np.array([-0.0]))[0]]) == bits([-0.0])


def test_the_overflow_examples_read_their_true_values():
    assert lienard.General(c1=0.0, c2=1.0).alpha(2e154) == 5e-155   # was 0.0
    assert lienard.SpecialI(c1=0.4).metric_factor(1.5e154) == 4.444444444444445e-309   # was 0.0
    assert 1.2249e307 < lienard.General(c1=0.0, c2=-1.7e308).y_speed(1.35e154) < 1.2251e307   # inf


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
    with pytest.raises(SingularPoint, match=r"^special I solution singular at x = 1\.0$"):
        lienard.SpecialI(c1=-1.0).alpha(1.0)
    with pytest.raises(SingularPoint, match=r"^special II solution singular at x = 1\.0$"):
        lienard.SpecialII(c1=-2.0).alpha(1.0)
    with pytest.raises(SingularPoint, match=r"^general solution singular at x = 1\.0$"):
        lienard.General(c1=0.0, c2=-1.0).alpha(1.0)
    # special I guards its double root's factor x + c1, not w = (x + c1)^2,
    # which a guard |w| <= EPS_DEN would reject out to |x + c1| = 1e-6
    sol = lienard.SpecialI(c1=0.0)
    assert sol.alpha(1e-7) == pytest.approx(1e7, rel=1e-15)
    assert math.isfinite(sol.metric_factor(1e-7))
    # special II and general guard w itself: |w| = 8e-13 <= EPS_DEN, first x in order
    x = 1.0 + 4e-13
    for sol, msg, w in [(lienard.SpecialII(c1=-2.0), "special II", 2.0 * x - 2.0),
                        (lienard.General(c1=0.0, c2=-1.0), "general", x * x - 1.0)]:
        assert abs(w) <= EPS_DEN
        for f in (sol.alpha, sol.alpha_x, sol.alpha_xx, sol.metric_factor):
            with pytest.raises(SingularPoint, match=rf"^{msg} solution singular at x = {x}$"):
                f(np.array([3.0, x, 1.0]))


def test_general_requires_nonzero_c2():
    with pytest.raises(ValueError):
        lienard.General(c1=0.0, c2=0.0)


@pytest.mark.parametrize("family, cs, message", [
    (lienard.General, (0.0, math.inf), "general family requires a finite c2, not inf"),
    (lienard.General, (math.inf, 1.0), "general family requires a finite c1, not inf"),
    (lienard.General, (math.nan, 0.0), "general family requires a finite c1, not nan"),
    (lienard.SpecialI, (-math.inf,), "special I family requires a finite c1, not -inf"),
    (lienard.SpecialII, (math.nan,), "special II family requires a finite c1, not nan"),
])
def test_families_reject_a_constant_that_is_not_finite(family, cs, message):
    # rejected when built: General(0, inf) would overflow in _far at its first
    # alpha, and General(inf, 1) would read alpha = nan
    with pytest.raises(ValueError, match=f"^{message}$"):
        family(*cs)


@pytest.mark.parametrize("alpha0, v0, x0, message", [
    (0.0, math.inf, 0.0, r"\(0\.0, inf\): not a finite state"),
    (math.nan, 1.0, 0.0, r"\(nan, 1\.0\): not a finite state"),
    (-math.inf, 0.0, 0.0, r"\(-inf, 0\.0\): not a finite state"),
    (1e-300, 0.0, -1.7e308, r"\(1e-300, 0\.0\): special II family requires a finite c1, "
                            r"not inf"),
    (0.3, 0.1, math.inf, r"\(0\.3, 0\.1\): general family requires a finite c1, not -inf"),
])
def test_fit_solution_rejects_a_state_or_constant_that_is_not_finite(alpha0, v0, x0, message):
    # (0, inf) would otherwise fit General(c1=0, c2=1/inf = 0)
    with pytest.raises(EvaluationError, match=rf"^cannot evaluate at \(alpha, v\) = {message}$"):
        lienard.fit_solution(alpha0, v0, x0)


@pytest.mark.parametrize("alpha0", [5e-324, -2.225073858507e-311, 5.5e-309])
def test_fit_solution_reads_a_state_whose_special_ii_c1_overflows_as_zero(alpha0):
    # below 2^-1024, special II's c1 = 1/alpha0 - 2 x0 passes the float range;
    # Zero reads alpha = 0 as SpecialII(c1=inf) would, with finite constants
    assert lienard.fit_solution(alpha0, 0.0, 0.0) == lienard.Zero()
    assert isinstance(lienard.fit_solution(6e-309, 0.0, 0.0), lienard.SpecialII)


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
                              1.0, -0.5, 1e-4)


def test_sweep_over_the_step_limit_raises_before_the_first_step(monkeypatch):
    # the sweep allocates its columns after the check and before any step
    monkeypatch.setattr(lienard, "MAX_RK4_STEPS", 100)
    columns = []
    monkeypatch.setattr(lienard, "array",
                        lambda *a: columns.append(a) or array.array(*a))
    assert len(lienard.integrate_ivp(0.1, 0.0, 0.0, 0.1, 1e-3)) == 101
    assert columns != []   # the probe sees a sweep that runs
    columns.clear()
    with pytest.raises(StepLimit, match=r"needs 200 RK4 steps, more than the limit of 100"):
        lienard.integrate_ivp(0.1, 0.0, 0.0, 0.2, 1e-3)
    with pytest.raises(StepLimit):
        lienard.OdeSolutionCurve(0.1, 0.0, 0.0, 0.2)
    assert columns == []


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


def test_a_zero_width_profile_blows_up_where_c_squared_overflows():
    # the zero-width sweep squares no H; the partial step's c^2 is inf, so
    # its state is not finite: BlowUp at x, float and array alike
    curve = lienard.OdeSolutionCurve(0.1, 0.2, 1.0, 1.0, H_const=1e200)
    assert curve.state(1.0) == (0.1, 0.2)
    for x in (1.5, np.array([1.0, 1.5, 2.0])):
        with pytest.raises(BlowUp) as blowup:
            curve.state(x)
        assert type(blowup.value) is BlowUp and blowup.value.x == 1.5


def test_ode_solution_curve_interpolates_smoothly():
    sol = lienard.General(c1=0.3, c2=2.0)
    curve = lienard.OdeSolutionCurve(sol.alpha(0.0), sol.alpha_x(0.0),
                                     0.0, 2.0)
    for x in (0.0, 0.33337, 1.0001, 1.999):
        assert curve.alpha(x) == pytest.approx(sol.alpha(x), abs=1e-10)
        assert curve.alpha_x(x) == pytest.approx(sol.alpha_x(x), abs=1e-9)


def test_profile_at_h2_matches_the_fine_sweep():
    # at H != 0 the profile is integrated by RK4 (its closed form is ROADMAP
    # item 2): the step-1e-4 sweep is the oracle for the profile's 1/1024
    # lattice.  Measured worst 1.7e-13 (alpha) and 3.3e-13 (alpha_x) over
    # the 25,001 nodes; bound: rounded up a decade, times ten
    curve = lienard.OdeSolutionCurve(0.3, 0.1, 0.3, 2.8, H_const=2.0)
    ref = lienard.integrate_ivp(0.3, 0.1, 0.3, 2.8, 1e-4, H_const=2.0)
    assert max(abs(curve.alpha(x) - s.alpha) for x, s in ref) <= 1e-11
    assert max(abs(curve.alpha_x(x) - s.v) for x, s in ref) <= 1e-11


S = 0.5 / PANELS_PER_UNIT   # the profile's state spacing: a lattice's node and midpoint step


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["wide", "zero-width", "no-grid-point"]),
       k0=st.integers(-3000, 3000), width=st.floats(S, 2.0),
       start=st.floats(0.01, 0.49), H=st.floats(-3.0, 3.0),
       alpha0=st.floats(-0.4, 0.4), v0=st.floats(-0.4, 0.4),
       ks=st.lists(st.integers(-50, 2100), min_size=1, max_size=40),
       offs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40))
def test_profile_state_over_an_array_has_the_float_calls_bits(
        kind, k0, width, start, H, alpha0, v0, ks, offs):
    # windows that hold many multiples of S, none (a part of one step) and a
    # single point, some on S; queries on S, off it and outside [x0, x1]
    x0 = k0 * S + start * S
    x1 = {"wide": x0 + width, "zero-width": x0, "no-grid-point": x0 + 0.5 * S}[kind]
    if kind == "zero-width" and k0 % 2:
        x0 = x1 = k0 * S
    try:
        curve = lienard.OdeSolutionCurve(alpha0, v0, x0, x1, H_const=H)
    except BlowUp:   # the window reaches a pole, as (0, -0.375) on [0, 2] does
        assume(False)
    xs = np.array([x0 + k * S for k in ks] + [(k0 + k) * S for k in ks]
                  + [x0 + o * (x1 - x0 + S) for o in offs])
    a, v = curve.state(xs)
    ref = np.array([curve.state(x) for x in xs.tolist()])
    assert a.tobytes() == ref[:, 0].tobytes() and v.tobytes() == ref[:, 1].tobytes()
    assert curve.alpha(xs[:1].reshape(1, 1)).tolist() == [[ref[0, 0]]]   # the shape is kept


def test_profile_state_over_an_array_raises_the_float_calls_first_error():
    curve = lienard.OdeSolutionCurve(0.3, 0.1, 0.49, 2.51, H_const=2.0)
    for bad, error in ((math.nan, EvaluationError),   # not a finite point
                       (math.inf, EvaluationError),
                       (-math.inf, EvaluationError),
                       (1e308, BlowUp),    # (x - x0)/h is not finite
                       (1e300, BlowUp)):   # the partial step's state is not finite
        with pytest.raises(error) as float_err:
            curve.state(bad)
        assert type(float_err.value) is error
        assert (float_err.value.x == bad if error is BlowUp else
                str(float_err.value) == f"cannot evaluate at x = {bad}: not a finite point")
        with pytest.raises(error, match=re.escape(str(float_err.value))) as array_err:
            curve.state(np.array([1.0, bad, math.nan]))
        assert type(array_err.value) is error
    with pytest.raises(BlowUp) as blowup:
        curve.state(np.array([2.0, -1e300, 1e300]))
    assert blowup.value.x == -1e300


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


@pytest.mark.parametrize("alpha, v", [(1e-161, 1e-310), (math.nan, 1.0)])
def test_conserved_quantity_names_a_state_whose_w_or_c_is_not_finite(alpha, v):
    # C = 1.3e310 overflows in the first; the second is not a state
    message = f"cannot evaluate at (alpha, v) = ({alpha}, {v}): w or C is not finite"
    with pytest.raises(EvaluationError, match=f"^{re.escape(message)}$"):
        lienard.conserved_quantity(lienard.PhaseState(alpha, v))


def exact_conserved_quantity(alpha, v):
    """C at (alpha, v) as an exact rational, and its w."""
    a, b = Fraction(alpha), Fraction(v)
    w = 2 * a * a / (3 * b)
    return w * (3 * w + 2) / ((3 * w + 1) ** 2 * a * a), w


@pytest.mark.parametrize("alpha, v", [
    (1e200, 1.0),          # alpha^2 overflows: C = 3.3e-401 rounds to 0
    (-1.4e154, 5e-324),    # alpha^2 and w overflow: C = 1.7e-309, subnormal
    (1e100, 1.0),          # (3w + 1)^2 overflows: C = 3.3e-201
    (1e150, 1e-10),        # w overflows: C = 3.3e-301
    (5e-324, 1e308),       # alpha^2 underflows to 0, not the w = -1/3 branch: C = 1.3e-308
    (1e-100, 1e200),       # w underflows to 0: C = 1.3e-200, not 0
    (1e-160, 1.0),         # alpha^2 is subnormal: C = 1.33333, not 1.33300
    (1.0, 9.5e-155),       # (3w + 1)^2 alpha^2 overflows, C not: C = 1/3, not 0
    (1.0, 1e-160),         # w(3w + 2) and (3w + 1)^2 overflow: C = 1/3, not nan
])
def test_conserved_quantity_is_exact_where_its_float_form_fails(alpha, v):
    assert lienard.conserved_quantity(lienard.PhaseState(alpha, v)) == \
        float(exact_conserved_quantity(alpha, v)[0])


@given(st.floats(allow_nan=False, allow_infinity=False).filter(bool),
       st.floats(allow_nan=False, allow_infinity=False).filter(bool))
@settings(derandomize=True, max_examples=400, deadline=None)
def test_conserved_quantity_is_within_a_few_ulps_of_the_exact_c_or_names_its_overflow(alpha, v):
    # at random finite states, near the float range's ends too: C is the
    # exact value to four ulps, or EvaluationError where that is past the range
    exact, w = exact_conserved_quantity(alpha, v)
    assume(min(abs(w + Fraction(1, 3)), abs(w + Fraction(2, 3))) > Fraction(1, 10**11))
    if abs(exact) >= 2**1024 - 2**970:   # rounds to inf
        with pytest.raises(EvaluationError):
            lienard.conserved_quantity(lienard.PhaseState(alpha, v))
        return
    got = lienard.conserved_quantity(lienard.PhaseState(alpha, v))
    assert got == float(exact) or \
        abs(Fraction(got) - exact) <= 4 * sys.float_info.epsilon * abs(exact)


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
    one _rk4_step at a time; a window of zero width holds the initial state,
    held to the guard, alone."""
    if x1 == x0:
        if not (abs(alpha0) <= guard and abs(v0) <= guard):   # false on nan too
            raise BlowUp(x0)
        return [(x0, lienard.PhaseState(alpha0, v0))]
    n = max(1, round(abs(x1 - x0) / step))
    h = (x1 - x0) / n
    out = [(x0, lienard.PhaseState(alpha0, v0))]
    a, v = alpha0, v0
    for i in range(n):
        a, v = lienard._rk4_step(a, v, h, H_const)
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
    (0.3, -0.1, 0.7, 0.7, 1e-3),             # zero width: one state
    (0.1, 0.0, -0.0, 0.0, 1e-3, 1e200),      # no step, so H^2 never overflows
    (0.3, 0.1, 0.3, 2.8, 1e-3, 1.473822),    # H ** 2 != H * H with glibc's pow: the
])                                           # sweep squares c as _rhs does
def test_trajectory_columns_match_list_of_tuples(args):
    traj = lienard.integrate_ivp(*args)
    ref = reference_ivp(*args)
    assert len(traj) == len(ref)
    for (x, s), (rx, rs) in zip(traj, ref, strict=True):
        assert same_float(x, rx)
        assert same_float(s.alpha, rs.alpha) and same_float(s.v, rs.v)
    n = len(ref)
    for i in (0, 1, -1, -2, -n) if n > 1 else (0, -1):
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
    (1e200, 0.0, 0.0, 1.0, 1e-3),            # alpha * alpha overflows on the first step
    (1.0, -1.0, 1.0, -0.5, 1e-4),            # 1/x toward its pole at 0
    (0.1, 0.0, 0.0, 1.0, 1e-3, 1e200),       # H^2 overflows: at x0 + h, not x0
    (0.1, 0.0, 0.0, 1.0, 1e-3, 1e155),
    (math.nan, 0.0, 0.5, 0.5, 1e-3),         # zero width: the initial state
    (2e12, 0.0, 0.5, 0.5, 1e-3),             # beyond the guard at zero width
])
def test_trajectory_blowup_x_matches_list_of_tuples(args):
    with pytest.raises(BlowUp) as ref:
        reference_ivp(*args)
    with pytest.raises(BlowUp) as got:
        lienard.integrate_ivp(*args)
    assert got.value.x == ref.value.x


def test_the_sweep_squares_a_numpy_h_as_a_float():
    # a numpy scalar c^2 would carry numpy arithmetic, and its overflow
    # warning, into every step; as a float, inf trips the guard at x0 + h
    with pytest.raises(BlowUp) as blowup:
        lienard.integrate_ivp(0.1, 0.0, 0.0, 1.0, 0.5, np.float64(1e200))
    assert blowup.value.x == 0.5


@st.composite
def ivp_cases(draw):
    """Subnormal and ordinary starts, both directions, H = 0 and H != 0 (up
    to an H whose square overflows), and guards a little above the start,
    which the sweep crosses part way where the state grows."""
    start = st.one_of(st.floats(-4, 4), st.floats(-1e-307, 1e-307),
                      st.sampled_from([0.0, -0.0, 5e-324, -5e-324]))
    alpha0, v0 = draw(start), draw(start)
    x0 = draw(st.floats(-2, 2))
    x1 = x0 + draw(st.floats(-3, 3))
    H = draw(st.floats(-5, 5) | st.sampled_from([0.0, 1e155, 1e200]))
    size = max(abs(alpha0), abs(v0), 1e-3)
    guard = draw(st.one_of(st.just(lienard.BLOWUP_GUARD),
                           st.floats(1.01, 3).map(lambda f: f * size)))
    return alpha0, v0, x0, x1, draw(st.sampled_from([1e-3, 1e-2, 0.1])), H, guard


def ivp_under_guard(*args):
    """integrate_ivp with BLOWUP_GUARD set to the last argument, which the
    sweep reads on each call."""
    with mock.patch.object(lienard, "BLOWUP_GUARD", args[-1]):
        return lienard.integrate_ivp(*args[:-1])


@given(ivp_cases())
@settings(derandomize=True, max_examples=300, deadline=None)
def test_sweep_is_the_repeated_rk4_step(args):
    # the sweep writes _rk4_step out; it must keep every bit, the sign of
    # zero included, and the x of a blow-up
    try:
        ref = reference_ivp(*args)
    except BlowUp as exc:
        with pytest.raises(BlowUp) as got:
            ivp_under_guard(*args)
        assert same_float(got.value.x, exc.x)
        return
    traj = ivp_under_guard(*args)
    assert len(traj) == len(ref)
    for (x, s), (rx, rs) in zip(traj, ref):
        assert same_float(x, rx)
        assert same_float(s.alpha, rs.alpha) and same_float(s.v, rs.v)


EDGE = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e200, -1e200,
                        math.nan, math.inf, 1e154])
ANY = st.one_of(st.floats(-4, 4), EDGE, st.floats(allow_nan=True, allow_infinity=True))


def same_bits(got, want):
    """Every value the same, the sign of zero included; nan matches nan."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool(((got.view(np.uint64) == want.view(np.uint64))
                 | (np.isnan(got) & np.isnan(want))).all())


H_VALUES = st.one_of(st.floats(-5, 5), st.sampled_from([0.0, -0.0, 5e-324, 1e150, 1e200,
                                                        1.473822]))


@given(st.lists(st.tuples(ANY, ANY, st.one_of(st.floats(-1, 1), EDGE), H_VALUES),
                min_size=1, max_size=30), H_VALUES, st.booleans())
@settings(derandomize=True, max_examples=300, deadline=None)
def test_rhs_and_rk4_step_over_an_array_have_the_float_calls_bits(points, H, h_row):
    # + and * are the only arithmetic, c^2 = H * H included, where numpy and
    # float agree bit for bit, overflow included: no per-element loop is
    # needed; H is one float or, as integrability._residuals passes it, a row
    alpha, v, h, row = (np.array(c) for c in zip(*points))
    H = row if h_row else H
    Hs = np.broadcast_to(H, alpha.shape)   # the float calls' H, one a point
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        rhs, step = lienard._rhs(alpha, v, H), lienard._rk4_step(alpha, v, h, H)
    for got, fn, args in ((rhs, lienard._rhs, (alpha, v, Hs)),
                          (step, lienard._rk4_step, (alpha, v, h, Hs))):
        want = [fn(*p) for p in zip(*(a.tolist() for a in args))]
        assert same_bits(got[0], [w[0] for w in want]) and same_bits(got[1], [w[1] for w in want])


def test_rhs_raises_nothing_and_an_overflowing_c_squared_reads_inf():
    assert lienard._rhs(0.3, 0.1, 1e200) == (0.1, -math.inf)
    assert lienard._rhs(-0.3, 0.1, 1e200) == (0.1, math.inf)
    with np.errstate(over="ignore"):
        dv = lienard._rhs(np.array([0.3, 1e200]), 0.1, np.array([1e200, 0.0]))[1]
    assert dv.tolist() == [-math.inf, -math.inf]
    assert lienard._rhs(1e200, 1e200, 0.0) == (1e200, -math.inf)   # a float overflow is inf


MODERATE = st.one_of(st.just(0.0), st.floats(1e-30, 1e30), st.floats(-1e30, -1e-30))


@given(MODERATE, MODERATE, st.one_of(st.just(0.0), st.floats(1e-30, 1e30)))
@settings(derandomize=True, max_examples=500, deadline=None)
def test_rhs_is_within_four_eps_of_the_exact_operator(alpha, v, H):
    # no term overflows or underflows here; the bound is about twice what
    # the rounding of 6 alpha v, alpha (4 alpha^2 + c^2) and their sum
    # (c^2 = H * H correctly rounded) can reach
    assume(all(math.isfinite(t) and (t == 0.0 or abs(t) > 1e-290)
               for t in (6.0 * alpha * v, 4.0 * alpha**3, H * H * alpha)))
    a, b, c = Fraction(alpha), Fraction(v), Fraction(H)
    exact = -(6 * a * b + 4 * a**3 + c * c * a)
    got = lienard._rhs(alpha, v, H)[1]
    scale = abs(6 * a * b) + abs(4 * a**3) + abs(c * c * a)
    assert abs(Fraction(got) - exact) <= 4 * Fraction(sys.float_info.epsilon) * scale


def old_arithmetic_states(alpha, v, h, H, n):
    """n RK4 states from the earlier operator, -(6 a v + 4 a**3 + c2 a) with
    float ** for the cube and the square, in the sweep's order."""
    c2, hh, h6, out = H**2, 0.5 * h, h / 6.0, []

    def rhs(a, v):
        return -(6.0 * a * v + 4.0 * a**3 + c2 * a)

    for _ in range(n):
        a2, v2 = alpha + hh * v, v + hh * (k1 := rhs(alpha, v))
        a3, v3 = alpha + hh * v2, v + hh * (k2 := rhs(a2, v2))
        a4, v4 = alpha + h * v3, v + h * (k3 := rhs(a3, v3))
        alpha, v = (alpha + h6 * (v + 2.0 * v2 + 2.0 * v3 + v4),
                    v + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + rhs(a4, v4)))
        out.append((alpha, v))
    return out


@given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-3, 3))
@settings(derandomize=True, max_examples=60, deadline=None)
def test_the_sweep_moves_by_at_most_1e_12_from_the_old_arithmetic(alpha0, v0, H):
    # 1,000 steps on [0, 1]: the + and * operator and the earlier ** one
    # round differently, and the sweep carries that on; measured worst
    # 1.9e-14 relative over 400 such cases (7.1e-14 over 3,000 from
    # [-2, 2]^2), bound 1e-12 relative to max(1, |state|)
    try:
        old = old_arithmetic_states(alpha0, v0, 1e-3, H, 1000)
        new = lienard.integrate_ivp(alpha0, v0, 0.0, 1.0, 1e-3, H)
    except (OverflowError, BlowUp):   # a pole of the solution lies in [0, 1]
        assume(False)
    assume(max(max(abs(a), abs(v)) for a, v in old) <= lienard.BLOWUP_GUARD)
    for (a, v), (_, s) in zip(old, new[1:], strict=True):
        assert max(abs(a - s.alpha), abs(v - s.v)) <= 1e-12 * max(1.0, abs(a), abs(v))


def test_phase_field_matches_per_cell_rhs():
    # the row form (one _rhs call over the v column) gives each cell the
    # same bits as a scalar _rhs call, also on a +-1e100 window
    for window in ((-2.0, 2.0), (-1e100, 1e100)):
        field = lienard.phase_field(window, window, 31, 29)
        for s, (da, dv) in field:
            ref = lienard._rhs(s.alpha, s.v, 0.0)
            assert same_float(da, ref[0]) and same_float(dv, ref[1])
        # the axes and dv rows, which the CLI writes, are the rows read above
        assert [(s.alpha, s.v, da, dv) for s, (da, dv) in field] == [
            (a, v, v, dv) for a, row in zip(field.alpha, field.dv, strict=True)
            for v, dv in zip(field.v, row, strict=True)]


@pytest.mark.parametrize("window, point", [
    (((0.0, 1e100), (0.0, 1e300)), "(5e+99, 5e+299)"),     # 6 alpha v is inf
    (((0.0, 1e308), (-2.0, 2.0)), "(5e+307, -2.0)"),       # alpha * alpha overflows
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
    # a family's constants are its dataclass fields, which the CLI and
    # the fit's JSON read: the base class gives none
    assert {f.__name__: [c.name for c in dataclasses.fields(f)] for f in lienard.FAMILIES} \
        == {"Zero": [], "SpecialI": ["c1"], "SpecialII": ["c1"], "General": ["c1", "c2"]}
    assert not hasattr(lienard.SpecialI(c1=0.5), "c2")


# ROADMAP item 12's extreme floats
EXTREMES = [0.0, -0.0, 5e-324, 1.0, -2.5, 1e154, -1.4e154, 1e200, 1e308, -1.7e308,
            math.inf, -math.inf, math.nan]
FAMILY_CHECK = r"(special I|special II|general) family requires (a finite c[12], not .*|c2 != 0)"


def library_outcome(check, f, *args):
    """f(*args); None where it raises a library error, or a ValueError whose
    message fullmatches check, the documented argument check of f."""
    try:
        return f(*args)
    except HeisminError:
        return None
    except ValueError as exc:
        if check is None or not re.fullmatch(check, str(exc)):
            raise
        return None


@given(st.lists(st.sampled_from(EXTREMES) | st.floats(), min_size=6, max_size=6),
       st.integers(0, 3), st.integers(0, 3))
@example([0.3, 0.1, 0.49, 2.51, 2.0, 1e308], 2, 2)   # (x - x0)/h overflows at a finite x
@settings(derandomize=True, max_examples=120, deadline=None)
def test_lienard_raises_only_library_errors_and_its_argument_checks(a, nx, nv):
    # every public function of lienard that takes floats, at extreme and
    # random doubles; the step limit is lowered so that no sweep runs long,
    # and numpy's overflow warnings are silenced: an array form reads an
    # overflow as inf, as float arithmetic does, and a warning is no error
    x, row = a[5], np.array([a[5], a[2], a[3]])
    with mock.patch.object(lienard, "MAX_RK4_STEPS", 4096), np.errstate(all="ignore"):
        for family, consts in ((lienard.Zero, ()), (lienard.SpecialI, a[:1]),
                               (lienard.SpecialII, a[:1]), (lienard.General, a[:2])):
            sol = library_outcome(FAMILY_CHECK, family, *consts)
            if sol is None:
                continue
            for form in (sol.alpha, sol.alpha_x, sol.alpha_xx, sol.y_speed, sol.metric_factor):
                library_outcome(None, form, x)
                library_outcome(None, form, row)
            library_outcome(None, sol.singular_x)
            library_outcome(None, sol.surface_type, (a[2], a[3]))
            library_outcome(None, lienard.lienard_residual, sol, x, a[4])
        library_outcome(None, lienard.fit_solution, *a[:3])
        library_outcome(None, lienard.conserved_quantity, lienard.PhaseState(*a[:2]))
        library_outcome("step must be positive", lienard.integrate_ivp, *a)
        curve = library_outcome(None, lienard.OdeSolutionCurve, *a[:5])
        if curve is not None:
            library_outcome(None, curve.state, x)
            library_outcome(None, curve.state, row)
            library_outcome(None, lienard.lienard_residual, curve.alpha, x, a[4])
        library_outcome("need at least a 2 x 2 grid", lienard.phase_field, a[:2], a[2:4], nx, nv)


@pytest.mark.parametrize("family, consts", [(lienard.Zero, ()), (lienard.SpecialI, (0.0,)),
                                            (lienard.SpecialII, (0.5,)),
                                            (lienard.General, (0.3, -2.0))])
def test_derived_forms_over_arrays_are_silent_where_w_overflows(family, consts):
    # w = X^2 + c2 overflows from |X| ~ 1.34e154: a float's arithmetic is
    # inf there and warns nothing, and so is an array's; each value is the
    # float call's, bit for bit
    sol = family(*consts)
    x = np.array([1.0, 1e154, -1.4e154, 1e200, 1e308, -1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for form in (sol.alpha, sol.alpha_x, sol.y_speed, sol.metric_factor):
            got = np.broadcast_to(form(x), x.shape)   # Zero's forms are constants
            assert [v.hex() for v in got.tolist()] == [form(v).hex() for v in x.tolist()]
