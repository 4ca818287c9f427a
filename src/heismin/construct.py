"""Explicit p-minimal surfaces: the ruled construction from a generating
curve, its invariants and zeta-extraction, the inverse problem
zeta -> curve, the immersion criterion, and the example charts (plane,
saddle, helicoid, conicoid).

The ruled surface over a curve C(t) = (x(t), y(t), z(t)) is

    Y(r, t) = (x + r cos t, y + r sin t, z + r y cos t - r x sin t),

i.e. each r-line is the left translation by C(t) of a ray of the plane
u = 0, hence a Legendrian straight line.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BadRotation, DegenerateChart, SingularPoint
from .heis import HPoint
from .numerics import EPS_DEN, CumulativeIntegral, Window, YFunction, memoized
from .verify import GraphSurface

IMMERSION_TOL = 1e-10   # |Theta(C') - D^2| at or below this fails immersion
ROTATION_TOL = 1e-12    # allowed |A^2 + B^2 - 1| of a saddle's rotation


class GeneratingCurve:
    """A curve t -> (x(t), y(t), z(t)) with first and second derivatives.

    Each component is a YFunction in theta built from fns, d1 and d2, so a
    derivative that is not given comes from its finite-difference
    fallback.  The point, C' and C'' are each evaluated once per t and
    memoized, and every invariant below is derived from those values.
    """

    def __init__(self, fns, d1=None, d2=None, interval=(0.0, 2.0 * math.pi)):
        self.interval = interval
        comps = [YFunction(f, df, d2f, "theta")
                 for f, df, d2f in zip(fns, d1 or [None] * 3, d2 or [None] * 3)]
        self._jets = tuple(
            memoized(lambda t, evals=evals: tuple([ev(t) for ev in evals]))
            for evals in (comps, [c.d for c in comps], [c.d2 for c in comps]))

    def _jet(self, order: int, t: float):
        """(x, y, z) differentiated `order` times, at t."""
        return self._jets[order](t)

    def point(self, t: float) -> HPoint:
        return HPoint(*self._jet(0, t))

    def d1(self, t: float) -> np.ndarray:
        return np.array(self._jet(1, t))

    def d2(self, t: float) -> np.ndarray:
        return np.array(self._jet(2, t))

    @staticmethod
    def from_exprs(x_src: str, y_src: str, z_src: str, var: str = "theta",
                   interval=(0.0, 2.0 * math.pi)) -> "GeneratingCurve":
        comps = [YFunction.from_expr(s, var) for s in (x_src, y_src, z_src)]
        return GeneratingCurve(fns=[c.f for c in comps],
                               d1=[c.df for c in comps],
                               d2=[c.d2f for c in comps],
                               interval=interval)

    # scalar invariants of the curve at angle t
    def D(self, t: float) -> float:
        """D = y' cos t - x' sin t."""
        xp, yp, _ = self._jet(1, t)
        return yp * math.cos(t) - xp * math.sin(t)

    def Q(self, t: float) -> float:
        """Q = x' cos t + y' sin t."""
        xp, yp, _ = self._jet(1, t)
        return xp * math.cos(t) + yp * math.sin(t)

    def contact_speed(self, t: float) -> float:
        """Theta(C'(t)) = z' + x y' - y x'."""
        x, y, _ = self._jet(0, t)
        xp, yp, zp = self._jet(1, t)
        return zp + x * yp - y * xp


@dataclass
class SurfaceChart:
    """A parametrized surface (u, v) -> H1 with first partials.

    e1_index marks which parameter direction spans the characteristic
    foliation when the chart is built in compatible coordinates (the
    corresponding partial is then a unit horizontal vector).
    """

    point: Callable[[float, float], HPoint]
    du: Callable[[float, float], np.ndarray]
    dv: Callable[[float, float], np.ndarray]
    domain: tuple = ((-1.0, 1.0), (-1.0, 1.0))
    e1_index: Optional[int] = None
    name: str = "chart"
    graph_u: Optional[object] = None  # verify.GraphSurface when applicable
    extras: dict = field(default_factory=dict)


def ruled_surface(c: GeneratingCurve,
                  r_range=(-2.0, 2.0)) -> SurfaceChart:
    """The ruled chart Y(r, t) over the generating curve; Y_r is the unit
    horizontal vector cos t e1* + sin t e2*."""

    def pt(r, t):
        p = c.point(t)
        ct, st = math.cos(t), math.sin(t)
        return HPoint(p.x + r * ct, p.y + r * st,
                      p.z + r * p.y * ct - r * p.x * st)

    def d_r(r, t):
        p = c.point(t)
        ct, st = math.cos(t), math.sin(t)
        return np.array([ct, st, p.y * ct - p.x * st])

    def d_t(r, t):
        p = c.point(t)
        xp, yp, zp = c._jet(1, t)
        ct, st = math.cos(t), math.sin(t)
        return np.array([
            xp - r * st,
            yp + r * ct,
            zp + r * (yp * ct - p.y * st - xp * st - p.x * ct),
        ])

    return SurfaceChart(point=pt, du=d_r, dv=d_t,
                        domain=(r_range, c.interval),
                        e1_index=0, name="ruled")


def curve_invariants(c: GeneratingCurve, r: float, t: float):
    """(alpha, a, b) of the ruled chart at (r, t):

        alpha = (r + D) / E,     E = (r + D)^2 + Theta(C') - D^2
        a     = -Q / (E sqrt(1 + alpha^2))
        b     =  1 / (E sqrt(1 + alpha^2))
    """
    D = c.D(t)
    Q = c.Q(t)
    tc = c.contact_speed(t)
    rd = r + D
    E = rd * rd + tc - D * D
    if abs(E) <= EPS_DEN:
        if abs(rd) <= math.sqrt(EPS_DEN) and abs(tc - D * D) <= EPS_DEN:
            raise DegenerateChart(
                f"chart degenerates at (r, t) = ({r}, {t}): r + D = 0 and "
                "Theta(C') - D^2 = 0")
        raise SingularPoint(f"alpha blows up at (r, t) = ({r}, {t})")
    alpha = rd / E
    root = math.sqrt(1.0 + alpha * alpha)
    return alpha, -Q / (E * root), 1.0 / (E * root)


def zeta_from_curve(c: GeneratingCurve):
    """The invariants of the ruled surface over c:

        zeta1(t) = D(t) - int Q dt      (cumulative from the interval's lower end)
        zeta2(t) = Theta(C'(t)) - D(t)^2

    zeta2 == 0 identifies special type I.
    """
    gamma = CumulativeIntegral(c.Q, Window(*c.interval).lo, var="theta")

    def z1(t):
        return c.D(t) - gamma(t)

    def dz1(t):
        xpp, ypp, _ = c._jet(2, t)
        return ypp * math.cos(t) - xpp * math.sin(t) - 2.0 * c.Q(t)

    def z2(t):
        return c.contact_speed(t) - c.D(t) ** 2

    def dz2(t):
        x, y, _ = c._jet(0, t)
        xpp, ypp, zpp = c._jet(2, t)
        dtc = zpp + x * ypp - y * xpp
        dD = ypp * math.cos(t) - xpp * math.sin(t) - c.Q(t)
        return dtc - 2.0 * c.D(t) * dD

    return YFunction(z1, dz1, var="theta"), YFunction(z2, dz2, var="theta")


@dataclass
class ImmersionReport:
    theta: float
    immersed_everywhere: bool
    bad_radius: Optional[float] = None


def immersion_locus(c: GeneratingCurve, theta_grid):
    """Per angle: the chart is an immersion for all r iff
    Theta(C') - D^2 != 0; otherwise it degenerates exactly at r = -D."""
    out = []
    for t in theta_grid:
        crit = c.contact_speed(t) - c.D(t) ** 2
        if abs(crit) > IMMERSION_TOL:
            out.append(ImmersionReport(float(t), True))
        else:
            out.append(ImmersionReport(float(t), False, bad_radius=-c.D(t)))
    return out


def curve_from_zeta(zeta1: YFunction, zeta2: YFunction,
                    theta_interval=(0.0, 2.0 * math.pi)) -> GeneratingCurve:
    """The particular generating curve with gauge Q == 0, so P = zeta1:

        x' = -zeta1 sin t,   y' = zeta1 cos t,
        z' = zeta2 + zeta1^2 + y x' - x y',

    integrated cumulatively from the interval's lower end with the
    initial point (0, 0, 0).  Any other initial point differs by a left
    translation, which the invariants ignore.
    """
    t0 = Window(*theta_interval).lo
    # x', y' and z' all need zeta1 at the same t, over three lattices
    z1 = memoized(zeta1)

    def xp(t):
        return -z1(t) * math.sin(t)

    def yp(t):
        return z1(t) * math.cos(t)

    x_int = CumulativeIntegral(xp, t0, var="theta")
    y_int = CumulativeIntegral(yp, t0, var="theta")

    def zp(t):
        return (zeta2(t) + z1(t) ** 2
                + y_int(t) * xp(t) - x_int(t) * yp(t))

    z_int = CumulativeIntegral(zp, t0, var="theta")

    def xpp(t):
        return -zeta1.d(t) * math.sin(t) - zeta1(t) * math.cos(t)

    def ypp(t):
        return zeta1.d(t) * math.cos(t) - zeta1(t) * math.sin(t)

    def zpp(t):
        # the x'y' cross terms cancel in d/dt of z'
        return (zeta2.d(t) + 2.0 * zeta1(t) * zeta1.d(t)
                + y_int(t) * xpp(t) - x_int(t) * ypp(t))

    return GeneratingCurve(
        fns=[x_int, y_int, z_int],
        d1=[xp, yp, zp],
        d2=[xpp, ypp, zpp],
        interval=theta_interval,
    )


def bernstein_plane(A: float, B: float, C: float,
                    domain=((-3.0, 3.0), (-3.0, 3.0))) -> SurfaceChart:
    """The entire graph u = Ax + By + C; its unique singular point is
    (x, y) = (-B, A), and the left translation by (B, -A, -C) maps the
    graph onto u = 0."""
    g = GraphSurface(
        u=lambda x, y: A * x + B * y + C,
        u_x=lambda x, y: A, u_y=lambda x, y: B,
        u_xx=lambda x, y: 0.0, u_xy=lambda x, y: 0.0, u_yy=lambda x, y: 0.0,
        window=domain,
    )
    return g.chart("plane", {"singular_point": (-B, A), "coeffs": (A, B, C)})


def bernstein_saddle(A: float, B: float, g: YFunction,
                     domain=((-3.0, 3.0), (-3.0, 3.0))) -> SurfaceChart:
    """The entire graph u = -AB x^2 + (A^2 - B^2) xy + AB y^2 + g(-Bx + Ay)
    with A^2 + B^2 = 1; the (A, B) rotation maps it onto u = XY + g(Y)."""
    if abs(A * A + B * B - 1.0) > ROTATION_TOL:
        raise BadRotation(f"A^2 + B^2 = {A * A + B * B} != 1")

    def u(x, y):
        w = -B * x + A * y
        return -A * B * x * x + (A * A - B * B) * x * y + A * B * y * y + g(w)

    def u_x(x, y):
        return -2.0 * A * B * x + (A * A - B * B) * y - B * g.d(-B * x + A * y)

    def u_y(x, y):
        return (A * A - B * B) * x + 2.0 * A * B * y + A * g.d(-B * x + A * y)

    def u_xx(x, y):
        return -2.0 * A * B + B * B * g.d2(-B * x + A * y)

    def u_xy(x, y):
        return (A * A - B * B) - A * B * g.d2(-B * x + A * y)

    def u_yy(x, y):
        return 2.0 * A * B + A * A * g.d2(-B * x + A * y)

    gs = GraphSurface(u, u_x, u_y, u_xx, u_xy, u_yy, window=domain)
    return gs.chart("saddle", {"rotation": (A, B), "g": g})


def helicoid_chart(theta_of_t: YFunction,
                   domain=((0.25, 3.0), (-1.0, 1.0))) -> SurfaceChart:
    """X(s, t) = (s cos theta(t), s sin theta(t), t); in these coordinates
    alpha = s theta'/(s^2 theta' + 1), a = 0, and the type follows the
    sign of theta'."""

    def pt(s, t):
        th = theta_of_t(t)
        return HPoint(s * math.cos(th), s * math.sin(th), t)

    def ds(s, t):
        th = theta_of_t(t)
        return np.array([math.cos(th), math.sin(th), 0.0])

    def dt(s, t):
        th, dth = theta_of_t(t), theta_of_t.d(t)
        return np.array([-s * dth * math.sin(th), s * dth * math.cos(th), 1.0])

    def alpha_closed(s, t):
        dth = theta_of_t.d(t)
        return s * dth / (s * s * dth + 1.0)

    return SurfaceChart(point=pt, du=ds, dv=dt, domain=domain, e1_index=0,
                        name="helicoid",
                        extras={"theta": theta_of_t,
                                "alpha_closed": alpha_closed})


def conicoid_chart(domain=((-2.0, 2.0), (-2.0, 2.0))) -> SurfaceChart:
    """X(t, s) = (cos s + t sin s, sin s - t cos s, t), with the (t, s)
    ordering chosen so the first parameter is the characteristic one;
    alpha = t/(1 + t^2) and a = b = 1/sqrt(t^4 + 3 t^2 + 1)."""

    def pt(t, s):
        return HPoint(math.cos(s) + t * math.sin(s),
                      math.sin(s) - t * math.cos(s), t)

    def dt(t, s):
        return np.array([math.sin(s), -math.cos(s), 1.0])

    def ds(t, s):
        return np.array([-math.sin(s) + t * math.cos(s),
                         math.cos(s) + t * math.sin(s), 0.0])

    def alpha_closed(t, s):
        return t / (1.0 + t * t)

    def ab_closed(t, s):
        v = 1.0 / math.sqrt(t**4 + 3.0 * t * t + 1.0)
        return v, v

    return SurfaceChart(point=pt, du=dt, dv=ds, domain=domain, e1_index=0,
                        name="conicoid",
                        extras={"alpha_closed": alpha_closed,
                                "ab_closed": ab_closed})
