"""The fundamental theorem as an oracle: alpha, H and (a, b) are invariants
of a surface under Heisenberg rigid motions, so the first-principles
verifiers must read the same values on a chart and on its image under any
motion, composed ones included.

Tolerances, from the worst case over 600 points per chart (three seeds of
200, translations in [-3, 3]^3, composed motions half the time):
alpha 6.1e-16, H 3.3e-12 (a central difference at H_STEP = 1e-4
magnifies the rounding of the moved frame), (a, b) 1.9e-15.  Each bound
below is the measured worst rounded up to the next power of ten and
multiplied by ten.  A wrong motion differential moves them by O(1).

The graph charts (bernstein_plane, bernstein_saddle) have no compatible
coordinates, so they check alpha and H only, on a sub-domain at least
0.65 away from their singular sets (the plane's point (0.2, 0.3), the
saddle's line 0.44 x + 0.92 y = 0), where |alpha| <= 1.25.  Over the
same 600 points their worst is alpha 6.7e-16 and H 4.0e-12, inside the
bounds above.  Near the singular set alpha grows like the inverse
distance and the moved frame's rounding with it: over the whole window
[-3, 3]^2 the saddle's alpha moved by 9.9e-13 where alpha = 187.

The verify-graph row writes the left translate of a graph with the group
law (heis.group_mul on expression source) and runs the command on it: the
residual verdict and the singular feature kinds stay, and an isolated
singular point moves by the translation, to 1e-9.

The zeta row rotates a curve_from_zeta curve by phi with a translation,
its derivatives mapped by the group law, and gives it the interval moved
by phi: its invariants are the curve's moved along theta by phi.  Over
600 motions and 1,800 angles the worst difference is 1.8e-15, so
ZETA_TOL is 1e-13 by the rule above.  The property fails when it
compares at s instead of s - phi, and when the group law's twist changes
sign.
"""
import contextlib
import dataclasses
import functools
import io
import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from heismin import cli, construct, heis, verify
from heismin.numerics import YFunction

ALPHA_TOL = 1e-14
H_TOL = 1e-10
AB_TOL = 1e-13


def moved(chart, m: heis.RigidMotion):
    """The chart followed by the motion m: apply_motion on points, its
    differential motion_matrix on the partials."""
    M = heis.motion_matrix(m)
    return dataclasses.replace(
        chart,
        point=lambda u, v: heis.apply_motion(m, chart.point(u, v)),
        du=lambda u, v: M @ chart.du(u, v),
        dv=lambda u, v: M @ chart.dv(u, v))


# zeta2 > 0: E = (r + D)^2 + zeta2 never vanishes, so every point is regular
CURVE = construct.curve_from_zeta(YFunction.from_expr("0.5+0.3*sin(theta)", "theta"),
                                  YFunction.from_expr("1+0.2*cos(theta)", "theta"),
                                  (0.0, 2.0 * math.pi))
CHARTS = {
    "conicoid": construct.conicoid_chart(),
    "helicoid": construct.helicoid_chart(YFunction(lambda t: t, lambda t: 1.0)),
    "ruled": construct.ruled_surface(CURVE, r_range=(0.5, 2.0)),
    "plane": construct.bernstein_plane(0.3, -0.2, 0.1, domain=((1.0, 3.0), (-3.0, 3.0))),
    "saddle": construct.bernstein_saddle(0.6, 0.8, YFunction.from_expr("0.2*y^2"),
                                         domain=((0.5, 3.0), (0.5, 3.0))),
}

coords = st.floats(-3.0, 3.0)
single = st.builds(lambda x, y, z, angle: heis.RigidMotion(heis.HPoint(x, y, z), angle),
                   coords, coords, coords, st.floats(-math.pi, math.pi))
motions = st.one_of(single, st.builds(heis.compose, single, single))
unit = st.floats(0.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(m=motions, s=unit, t=unit)
def test_chart_invariants_survive_rigid_motions(m, s, t):
    for name, chart in CHARTS.items():
        (u0, u1), (v0, v1) = chart.domain
        u, v = u0 + s * (u1 - u0), v0 + t * (v1 - v0)
        image = moved(chart, m)
        assert abs(verify.numeric_alpha_on_chart(image, u, v)
                   - verify.numeric_alpha_on_chart(chart, u, v)) <= ALPHA_TOL, name
        assert abs(verify.numeric_H_on_chart(image, u, v)
                   - verify.numeric_H_on_chart(chart, u, v)) <= H_TOL, name
        if chart.e1_index is not None:
            assert np.max(np.abs(np.subtract(
                verify.numeric_ab_on_chart(image, u, v),
                verify.numeric_ab_on_chart(chart, u, v)))) <= AB_TOL, name


# ----------------------------------------------------- the verify-graph row

def _source(v):
    return repr(v) if isinstance(v, float) else v


class Term(str):
    """Expression source that heis.group_mul can add, subtract and multiply,
    so that a translated graph is written by the group law itself."""

    def _infix(op, swap=False):
        def apply(self, other):
            a, b = (other, self) if swap else (self, other)
            return Term(f"({_source(a)}) {op} ({_source(b)})")
        return apply

    __add__, __sub__, __mul__ = _infix("+"), _infix("-"), _infix("*")
    __radd__, __rsub__, __rmul__ = _infix("+", True), _infix("-", True), _infix("*", True)


GRAPHS = {   # u as a template in {x} and {y}
    "plane": "0.3*{x} - 0.2*{y} + 1",      # isolated singular point (0.2, 0.3)
    "paraboloid": "{x}^2",                  # isolated point (0, 0), not p-minimal
    "saddle": "{x}*{y} + 0.2*{y}^2",        # singular line x + 0.2 y = 0
}


def translated(template: str, t: heis.HPoint) -> str:
    """u' whose graph is the left translate by t of the graph of u: the
    point over (x', y') is t o (x, y, u(x, y)) with (x, y) = (x' - t.x,
    y' - t.y), so u' is the z of that product."""
    x, y = Term(f"x - {t.x!r}"), Term(f"y - {t.y!r}")
    u = Term(template.format(x=f"({x})", y=f"({y})"))
    return heis.group_mul(t, heis.HPoint(x, y, u)).z


@functools.cache
def verify_graph(u: str, dx: float = 0.0, dy: float = 0.0) -> dict:
    """verify-graph's JSON for u on the window [-3, 3]^2 moved by (dx, dy)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify-graph", "--u", u, "--nx", "3", "--ny", "3",
                         f"--x-min={dx - 3.0!r}", f"--x-max={dx + 3.0!r}",
                         f"--y-min={dy - 3.0!r}", f"--y-max={dy + 3.0!r}"]) == 0
    return json.loads(out.getvalue())


@settings(max_examples=10, deadline=None)
@given(t=st.builds(heis.HPoint, coords, coords, coords))
def test_verify_graph_survives_left_translations(t):
    # the residual verdict and the feature kinds stay; an isolated point
    # moves by the translation's (x, y)
    for name, template in GRAPHS.items():
        before = verify_graph(template.format(x="x", y="y"))
        after = verify_graph(translated(template, t), t.x, t.y)
        assert after["passed"] is before["passed"], name
        kinds = [f["kind"] for f in before["singular"]["features"]]
        assert [g["kind"] for g in after["singular"]["features"]] == kinds, name
        for f, g in zip(before["singular"]["features"], after["singular"]["features"]):
            if f["kind"] == "IsolatedPoint":
                assert math.hypot(g["point"][0] - t.x - f["point"][0],
                                  g["point"][1] - t.y - f["point"][1]) <= 1e-9, name


# ------------------------------------------------------ the zetas under rotations

def rotated_curve(c: construct.GeneratingCurve, m: heis.RigidMotion):
    """The curve s -> m(c(s - phi)), phi = m's angle, on c's interval moved
    by phi: the ruled surface over it is m's image of the one over c, with
    the ruling at s the image of c's at s - phi.  m is affine, so each
    derivative v of c maps to m(v) - m(0), by the group law itself."""
    phi, (lo, hi) = m.rotation_angle, c.interval
    origin = heis.apply_motion(m, heis.HPoint(0.0, 0.0, 0.0)).as_array()

    def image(v, shift):
        return heis.apply_motion(m, heis.HPoint(*v)).as_array() - shift

    jets = (lambda s: image(c._jet(0, s - phi), 0.0),
            lambda s: image(c._jet(1, s - phi), origin),
            lambda s: image(c._jet(2, s - phi), origin))
    return construct.GeneratingCurve(
        *([lambda s, f=f, i=i: f(s)[i] for i in range(3)] for f in jets),
        interval=(lo + phi, hi + phi))


ZETA_TOL = 1e-13
ZETAS = construct.zeta_from_curve(CURVE)


@settings(max_examples=10, deadline=None)
@given(m=single, fracs=st.lists(unit, min_size=3, max_size=3))
def test_zetas_follow_a_rotation_by_its_angle(m, fracs):
    # rotating the curve by phi turns each ruling by phi, so the invariants
    # move along theta by phi: zeta~(s) = zeta(s - phi)
    phi = m.rotation_angle
    moved_zetas = construct.zeta_from_curve(rotated_curve(CURVE, m))
    for f in fracs:
        s = phi + f * 2.0 * math.pi
        for before, after in zip(ZETAS, moved_zetas):
            assert abs(after(s) - before(s - phi)) <= ZETA_TOL
