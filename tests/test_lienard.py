import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heismin import lienard
from heismin.errors import BlowUp, DegenerateBranch, SingularPoint


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


def test_ode_solution_curve_rejects_non_finite_start():
    # the profile shares integrate_ivp's sweep, so a NaN start is a
    # blow-up, not a lattice of NaN states
    with pytest.raises(BlowUp):
        lienard.OdeSolutionCurve(math.nan, 0.0, 0.0, 1.0)


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
