"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line with the quantity checked and its tolerance."""
import math
import time

import numpy as np
import pytest

from heismin import construct, heis, integrability, lienard, models, verify
from heismin.errors import DegenerateBranch, DegenerateChart, SingularPoint
from heismin.integrability import Field2D
from heismin.models import AlphaModel, SurfaceType, YFunction


def report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {desc} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {desc} {detail}"


def safe_points(sol, rng, n=50, margin=0.1, lo=-4.0, hi=4.0):
    bad = sol.singular_x()
    pts = []
    while len(pts) < n:
        x = rng.uniform(lo, hi)
        if all(abs(x - s) >= margin for s in bad):
            pts.append(x)
    return pts


def random_family(rng, which):
    if which == 0:
        return lienard.SpecialI(c1=rng.uniform(-2, 2))
    if which == 1:
        return lienard.SpecialII(c1=rng.uniform(-2, 2))
    c2 = rng.uniform(0.05, 2.0) * rng.choice([-1.0, 1.0])
    return lienard.General(c1=rng.uniform(-2, 2), c2=c2)


def test_criterion_1_closed_form_residuals():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for which in range(3):
        for _ in range(100):
            sol = random_family(rng, which)
            for x in safe_points(sol, rng):
                worst = max(worst, abs(lienard.lienard_residual(sol, x)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    report(1, "closed-form ODE residual <= 1e-8 (100 draws/family, "
              "50 pts >= 0.1 off poles), < 1 s",
           ok, f"[max residual {worst:.2e}, {elapsed:.2f} s]")


def test_criterion_2_rk4_oracle_and_fit_round_trip():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    sup = 0.0
    # RK4 vs closed forms on length-3 intervals free of singular x
    for _ in range(12):
        c2 = rng.uniform(0.3, 2.0)
        sol = lienard.General(c1=rng.uniform(-1, 1), c2=c2)
        x0 = rng.uniform(-1, 1)
        traj = lienard.integrate_ivp(sol.alpha(x0), sol.alpha_x(x0),
                                     x0, x0 + 3.0, 1e-3)
        sup = max(sup, max(abs(s.alpha - sol.alpha(x)) for x, s in traj))
    for _ in range(6):
        sol = lienard.SpecialI(c1=rng.uniform(-1, 1))
        x0 = -sol.c1 + rng.uniform(0.5, 1.0)  # pole stays behind
        traj = lienard.integrate_ivp(sol.alpha(x0), sol.alpha_x(x0),
                                     x0, x0 + 3.0, 1e-3)
        sup = max(sup, max(abs(s.alpha - sol.alpha(x)) for x, s in traj))

    fit_err = 0.0
    fit_family_ok = True
    for which in range(3):
        for _ in range(60):
            sol = random_family(rng, which)
            x0 = safe_points(sol, rng, n=1, margin=0.3)[0]
            fit = lienard.fit_solution(sol.alpha(x0), sol.alpha_x(x0), x0)
            fit_family_ok &= type(fit) is type(sol)
            if type(fit) is type(sol):
                fit_err = max(fit_err, abs(fit.c1 - sol.c1))
                if hasattr(sol, "c2"):
                    fit_err = max(fit_err, abs(fit.c2 - sol.c2))
    elapsed = time.perf_counter() - t0
    ok = sup <= 1e-6 and fit_err <= 1e-8 and fit_family_ok and elapsed < 5.0
    report(2, "RK4 vs closed forms sup <= 1e-6; fit round-trip <= 1e-8, < 5 s",
           ok, f"[sup {sup:.2e}, fit err {fit_err:.2e}, {elapsed:.2f} s]")


def test_criterion_3_conserved_quantity():
    rng = np.random.default_rng(303)
    drift = 0.0
    for _ in range(10):
        sol = lienard.General(c1=rng.uniform(-1, 1), c2=rng.uniform(0.3, 2.0))
        x0 = rng.uniform(-1, 1)
        traj = lienard.integrate_ivp(sol.alpha(x0), sol.alpha_x(x0),
                                     x0, x0 + 3.0, 1e-3)
        vals = []
        for _, s in traj:
            try:
                vals.append(lienard.conserved_quantity(s))
            except DegenerateBranch:
                pass  # isolated v = 0 or alpha = 0 crossings of the orbit
        vals = np.array(vals)
        scale = max(1.0, np.max(np.abs(vals)))
        drift = max(drift, float(np.max(np.abs(vals - vals[0])) / scale))

    # the three excluded branches raise, general states do not
    raises_ok = True
    for state in (lienard.PhaseState(0.0, 1.0),           # w = 0
                  lienard.PhaseState(0.5, -0.5),          # w = -1/3
                  lienard.PhaseState(0.5, -0.25)):        # w = -2/3
        try:
            lienard.conserved_quantity(state)
            raises_ok = False
        except DegenerateBranch:
            pass
    g = lienard.General(c1=0.0, c2=1.0)
    try:
        lienard.conserved_quantity(
            lienard.PhaseState(g.alpha(0.4), g.alpha_x(0.4)))
    except DegenerateBranch:
        raises_ok = False
    ok = drift <= 1e-6 and raises_ok
    report(3, "conserved quantity drift <= 1e-6 rel.; DegenerateBranch "
              "exactly on w in {0, -1/3, -2/3}",
           ok, f"[max drift {drift:.2e}]")


def test_criterion_4_integrability():
    t0 = time.perf_counter()
    k = YFunction.from_expr("0.1*y")
    h = YFunction.from_expr("0.3 + 0.1*y")
    H0 = Field2D.constant(0.0)
    ys = np.linspace(0.05, 0.95, 20)
    worst = 0.0
    for m, xs in [
        (AlphaModel(lienard.SpecialI, YFunction.from_expr("0.4 + 0.1*sin(y)")),
         np.linspace(0.5, 2.5, 50)),
        (AlphaModel(lienard.SpecialII, YFunction.from_expr("0.3 + 0.1*y")),
         np.linspace(0.5, 2.5, 50)),
        (AlphaModel(lienard.General, YFunction.from_expr("0.2*cos(y)"),
                    YFunction.from_expr("1 + 0.5*sin(y)")),
         np.linspace(0.5, 2.5, 50)),
    ]:
        rep = models.metric_rep(m, k, h)
        stats = integrability.integrability_residual(
            Field2D.from_model(m), H0, rep, (xs, ys))
        worst = max(worst, stats.overall_max())

    # constant H = 2 with a numerically integrated profile (no closed form)
    curve = lienard.OdeSolutionCurve(0.3, 0.1, 0.3, 2.8, H_const=2.0)
    alpha = Field2D.from_x_profile(curve.alpha, curve.alpha_x)
    H2 = Field2D.constant(2.0)
    rep = integrability.metric_from_alpha_H(alpha, H2, k, h, x_base=0.5)
    stats = integrability.integrability_residual(
        alpha, H2, rep, (np.linspace(0.5, 2.5, 50), ys))
    worst = max(worst, stats.overall_max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    report(4, "integrability residuals <= 1e-6 on 50x20 grids "
              "(3 closed-form reps + quadrature rep at H = 2), < 10 s",
           ok, f"[max residual {worst:.2e}, {elapsed:.2f} s]")


def test_criterion_5_example_alpha_values():
    rng = np.random.default_rng(505)
    worst = 0.0

    plane = construct.ruled_surface(construct.GeneratingCurve(
        fns=[lambda t: 0.0] * 3, d1=[lambda t: 0.0] * 3,
        d2=[lambda t: 0.0] * 3))
    for _ in range(100):
        r, t = rng.uniform(0.3, 3.0), rng.uniform(0, 2 * math.pi)
        worst = max(worst, abs(
            verify.numeric_alpha_on_chart(plane, r, t) - 1.0 / r))

    g = YFunction.from_expr("0.3*sin(y)")
    saddle = construct.bernstein_saddle(1.0, 0.0, g)
    for _ in range(100):
        x, y = rng.uniform(0.5, 2.0), rng.uniform(-2, 2)
        closed = 1.0 / (2.0 * x + g.d(y))
        worst = max(worst, abs(
            verify.numeric_alpha_on_chart(saddle, x, y) - closed))

    theta = YFunction.from_expr("y + 0.3*sin(y)")  # theta(t), theta' > 0
    hel = construct.helicoid_chart(theta)
    for _ in range(100):
        s, t = rng.uniform(0.3, 2.0), rng.uniform(-1, 1)
        dth = theta.d(t)
        closed = s * dth / (s * s * dth + 1.0)
        worst = max(worst, abs(
            verify.numeric_alpha_on_chart(hel, s, t) - closed))

    con = construct.conicoid_chart()
    for _ in range(100):
        t, s = rng.uniform(-2, 2), rng.uniform(0, 2 * math.pi)
        closed = t / (1.0 + t * t)
        worst = max(worst, abs(
            verify.numeric_alpha_on_chart(con, t, s) - closed))
        a, b = verify.numeric_ab_on_chart(con, t, s)
        ab = 1.0 / math.sqrt(t**4 + 3.0 * t * t + 1.0)
        worst = max(worst, abs(a - ab), abs(b - ab))

    ok = worst <= 1e-8
    report(5, "closed-form alpha (and conicoid a = b) reproduced by the "
              "numeric pipeline <= 1e-8 at 100 random points each",
           ok, f"[max deviation {worst:.2e}]")


def random_curve(rng):
    def coeffs():
        return rng.uniform(-0.5, 0.5, 4)

    def make(c):
        f = lambda t: (c[0] * math.sin(t) + c[1] * math.cos(t)
                       + c[2] * math.sin(2 * t) + c[3] * t / 5.0)
        d1 = lambda t: (c[0] * math.cos(t) - c[1] * math.sin(t)
                        + 2 * c[2] * math.cos(2 * t) + c[3] / 5.0)
        d2 = lambda t: (-c[0] * math.sin(t) - c[1] * math.cos(t)
                        - 4 * c[2] * math.sin(2 * t))
        return f, d1, d2

    xs, ys, zs = make(coeffs()), make(coeffs()), make(coeffs())
    return construct.GeneratingCurve(
        fns=[xs[0], ys[0], zs[0]],
        d1=[xs[1], ys[1], zs[1]],
        d2=[xs[2], ys[2], zs[2]])


def test_criterion_6_ruled_construction():
    rng = np.random.default_rng(606)
    max_theta = 0.0
    max_bend = 0.0
    max_inv = 0.0
    max_H = 0.0
    checked = 0
    for _ in range(20):
        c = random_curve(rng)
        ch = construct.ruled_surface(c)
        samples = [(rng.uniform(0.3, 2.0), rng.uniform(0, 2 * math.pi))
                   for _ in range(6)]
        mt, mb = verify.legendrian_line_check(ch, samples)
        max_theta = max(max_theta, mt)
        max_bend = max(max_bend, mb)
        for r, t in samples:
            try:
                alpha, a, b = construct.curve_invariants(c, r, t)
            except (SingularPoint, DegenerateChart):
                continue
            if abs(alpha) > 20.0:
                continue  # too near the chart's singular radius for FD in H
            max_inv = max(
                max_inv,
                abs(alpha - verify.numeric_alpha_on_chart(ch, r, t)))
            an, bn = verify.numeric_ab_on_chart(ch, r, t)
            max_inv = max(max_inv, abs(a - an), abs(b - bn))
            max_H = max(max_H, abs(verify.numeric_H_on_chart(ch, r, t)))
            checked += 1
    ok = (max_theta <= 1e-12 and max_bend <= 1e-12 and max_inv <= 1e-8
          and max_H <= 1e-6 and checked >= 60)
    report(6, "rulings Legendrian and straight <= 1e-12 (20 random curves); "
              "invariants vs tangency solve <= 1e-8; |numeric H| <= 1e-6",
           ok, f"[Theta {max_theta:.2e}, bend {max_bend:.2e}, "
               f"inv {max_inv:.2e}, H {max_H:.2e}, {checked} pts]")


def test_criterion_7_zeta_round_trip():
    rng = np.random.default_rng(707)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(4):
        c = random_curve(rng)
        z1, z2 = construct.zeta_from_curve(c)
        c2 = construct.curve_from_zeta(z1, z2, (0.0, 2.0 * math.pi))
        z1b, z2b = construct.zeta_from_curve(c2)
        ts = np.linspace(0.1, 2.0 * math.pi - 0.1, 40)
        d1 = np.array([z1b(t) - z1(t) for t in ts])
        gauge = float(np.mean(d1))  # translation gauge: constant offset
        worst = max(worst, float(np.max(np.abs(d1 - gauge))))
        worst = max(worst, float(np.max(np.abs(
            [z2b(t) - z2(t) for t in ts]))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    report(7, "curve -> zeta -> curve -> zeta closes <= 1e-6 after "
              "translation-gauge fit (512 panels), < 10 s",
           ok, f"[max error {worst:.2e}, {elapsed:.2f} s]")


def test_criterion_8_bernstein_families():
    rng = np.random.default_rng(808)
    max_pmge = 0.0
    max_congr = 0.0
    max_sing = 0.0
    for _ in range(5):
        A, B, C = rng.uniform(-2, 2, 3)
        plane = construct.bernstein_plane(A, B, C)
        motion = heis.RigidMotion(heis.HPoint(B, -A, -C))
        for _ in range(20):
            x, y = rng.uniform(-3, 3, 2)
            max_pmge = max(max_pmge,
                           abs(verify.pmge_residual(plane.graph_u, x, y)))
            q = heis.apply_motion(motion, plane.point(x, y))
            max_congr = max(max_congr, abs(q.z))
        rep = verify.singular_set(plane.graph_u)
        pts = [f.point for f in rep.features if f.kind == "IsolatedPoint"]
        assert len(pts) == 1
        max_sing = max(max_sing, abs(pts[0][0] + B), abs(pts[0][1] - A))

    for _ in range(5):
        phi = rng.uniform(0, 2 * math.pi)
        A, B = math.cos(phi), math.sin(phi)
        g = YFunction.from_expr(f"{rng.uniform(-0.5, 0.5)!r}*sin(y)")
        saddle = construct.bernstein_saddle(A, B, g)
        for _ in range(20):
            x, y = rng.uniform(-3, 3, 2)
            max_pmge = max(max_pmge,
                           abs(verify.pmge_residual(saddle.graph_u, x, y)))
            X, Y = A * x + B * y, -B * x + A * y
            max_congr = max(max_congr,
                            abs(saddle.point(x, y).z - (X * Y + g(Y))))
    ok = max_pmge <= 1e-8 and max_congr <= 1e-10 and max_sing <= 1e-6
    report(8, "Bernstein graphs: pmge <= 1e-8, congruence residual <= 1e-10, "
              "plane singular point (-B, A) within 1e-6",
           ok, f"[pmge {max_pmge:.2e}, congr {max_congr:.2e}, "
               f"sing {max_sing:.2e}]")


def test_criterion_9_singular_dichotomy_and_go_through():
    gxy = verify.GraphSurface.from_expr("x*y")
    rep = verify.singular_set(gxy)
    curve_ok = ([f.kind for f in rep.features] == ["Curve"]
                and max(abs(p[0]) for p in rep.features[0].polyline) <= 1e-8)
    res = verify.go_through_check(gxy, (0.0, 0.5))
    limits = sorted([res.cos_limit_plus, res.cos_limit_minus])
    flip_ok = (res.flip_detected
               and abs(limits[0] + 1.0) <= 1e-3
               and abs(limits[1] - 1.0) <= 1e-3)

    g0 = verify.GraphSurface.from_expr("0")
    rep0 = verify.singular_set(g0)
    isolated_ok = ([f.kind for f in rep0.features] == ["IsolatedPoint"]
                   and np.allclose(rep0.features[0].point, 0.0, atol=1e-8))

    # metric degeneracy contrast on the singular sets
    z1 = YFunction.from_expr("0.2*sin(y)")
    nf_s1 = models.NormalForm(SurfaceType.SPECIAL_I, z1, None)
    det_s1 = max(
        abs(np.linalg.det(models.first_fundamental_form(nf_s1, -z1(y), y)))
        for y in np.linspace(0.0, 1.0, 20))
    nf_gen = models.NormalForm(SurfaceType.TYPE_II, z1,
                               YFunction.constant(-1.0))
    det_gen = max(
        abs(np.linalg.det(
            models.first_fundamental_form(nf_gen, -z1(y) + 1.0, y)) - 1.0)
        for y in np.linspace(0.0, 1.0, 20))
    degeneracy_ok = det_s1 <= 1e-12 and det_gen <= 1e-8
    ok = curve_ok and flip_ok and isolated_ok and degeneracy_ok
    report(9, "u=xy: singular curve x=0 with cos-limits +-1 (tol 1e-3); "
              "u=0: isolated origin; metric det 0 vs 1 on singular sets",
           ok, f"[limits {limits[0]:.4f}/{limits[1]:.4f}, "
               f"det_s1 {det_s1:.2e}, det_gen {det_gen:.2e}]")


def test_criterion_10_helicoid_type_adjacency():
    hel = construct.helicoid_chart(YFunction(lambda t: -t, lambda t: -1.0),
                                   domain=((-3.0, 3.0), (-1.0, 1.0)))
    t = -0.4
    h = 1e-5

    def fitted_model(s0):
        def alpha(s):
            return verify.numeric_alpha_on_chart(hel, s, t)
        v0 = (alpha(s0 + h) - alpha(s0 - h)) / (2 * h)
        sol = lienard.fit_solution(alpha(s0), v0, s0)
        return AlphaModel(lienard.General, YFunction.constant(sol.c1),
                          YFunction.constant(sol.c2))

    inside = models.classify(fitted_model(0.5), x_window=(0.2, 0.7))
    outside_pos = models.classify(fitted_model(1.8), x_window=(1.3, 2.5))
    outside_neg = models.classify(fitted_model(-1.8), x_window=(-2.5, -1.3))
    ok = (inside is SurfaceType.TYPE_III
          and outside_pos is SurfaceType.TYPE_II
          and outside_neg is SurfaceType.TYPE_II)
    report(10, "helicoid theta' = -1: TypeIII on |s| < 1, TypeII on |s| > 1 "
               "via numeric alpha + classification",
           ok, f"[inside {inside.value}, outside {outside_pos.value}/"
               f"{outside_neg.value}]")
