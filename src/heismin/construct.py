"""Explicit p-minimal surfaces: the ruled construction from a generating
curve, its invariants and zeta-extraction, the inverse problem
zeta -> curve, and the example charts (plane, saddle, helicoid,
conicoid).

The ruled surface over a curve C(t) = (x(t), y(t), z(t)) is

    Y(r, t) = (x + r cos t, y + r sin t, z + r y cos t - r x sin t),

i.e. each r-line is the left translation by C(t) of a ray of the plane
u = 0, hence a Legendrian straight line.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import BadRotation, DegenerateChart, SingularPoint
from .expr import cos, pointwise, sin
from .heis import HPoint
from .numerics import EPS_DEN, CumulativeIntegral, Window, YFunction, memoized
from .verify import GraphSurface, SurfaceChart

ROTATION_TOL = 1e-12    # allowed |A^2 + B^2 - 1| of a saddle's rotation


class GeneratingCurve:
    """A curve t -> (x(t), y(t), z(t)) with first and second derivatives.

    Each component is a YFunction in theta, given or built from fns, d1 and
    d2, so a derivative that is not given comes from its finite-difference
    fallback.  The point, C' and C'' each keep one table, evaluated once per
    float t or distinct array, and every invariant below is derived from them.
    """

    def __init__(self, fns, d1=None, d2=None, interval=(0.0, 2.0 * math.pi)):
        self.interval = interval
        comps = [f if isinstance(f, YFunction) else YFunction(f, df, d2f, "theta")
                 for f, df, d2f in zip(fns, d1 or [None] * 3, d2 or [None] * 3)]
        # a float: the components' own functions; an array: their array forms
        # where all have one, else the float jets
        forms = zip(*(c.arrays or [None] * 3 for c in comps))
        self._jets = []
        for order, fs in enumerate(forms):
            f0, f1, f2 = (getattr(c, ("f", "df", "d2f")[order]) for c in comps)

            def jet(t, f0=f0, f1=f1, f2=f2, order=order):
                try:
                    return (float(f0(t)), float(f1(t)), float(f2(t)))
                except (ValueError, ArithmeticError):   # replayed: YFunction names theta
                    return tuple([c.over(t, order) for c in comps])
            array_jet = None if None in fs else lambda t, fs=fs: [f(t) for f in fs]
            self._jets.append(memoized(pointwise(memoized(jet), 3, array_jet)))

    def _jet(self, order: int, t):
        """(x, y, z) differentiated `order` times, at the float or array t."""
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
        return GeneratingCurve([YFunction.from_expr(s, var) for s in (x_src, y_src, z_src)],
                               interval=interval)

    # scalar invariants of the curve at angle t
    def D(self, t):
        """D = y' cos t - x' sin t."""
        xp, yp, _ = self._jet(1, t)
        return yp * cos(t) - xp * sin(t)

    def Q(self, t):
        """Q = x' cos t + y' sin t."""
        xp, yp, _ = self._jet(1, t)
        return xp * cos(t) + yp * sin(t)

    def contact_speed(self, t):
        """Theta(C'(t)) = z' + x y' - y x'."""
        x, y, _ = self._jet(0, t)
        xp, yp, zp = self._jet(1, t)
        return zp + x * yp - y * xp


def ruled_surface(c: GeneratingCurve,
                  r_range=(-2.0, 2.0)) -> SurfaceChart:
    """The ruled chart Y(r, t) over the generating curve; Y_r is the unit
    horizontal vector cos t e1* + sin t e2*."""
    def pt(r, t):
        x, y, z = c._jet(0, t)
        ct, st = np.cos(t), np.sin(t)
        return HPoint(x + r * ct, y + r * st, z + r * y * ct - r * x * st)

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

    zeta2 == 0 identifies special type I.  Both take a float t or an array.
    """
    gamma = CumulativeIntegral(c.Q, Window(*c.interval).lo, var="theta", arrays=True)

    def z1(t):
        return c.D(t) - gamma.over(t)

    def dz1(t):
        xpp, ypp, _ = c._jet(2, t)
        return ypp * cos(t) - xpp * sin(t) - 2.0 * c.Q(t)

    def z2(t):
        return c.contact_speed(t) - (D := c.D(t)) * D

    def dz2(t):
        x, y, _ = c._jet(0, t)
        xpp, ypp, zpp = c._jet(2, t)
        dtc = zpp + x * ypp - y * xpp
        dD = ypp * cos(t) - xpp * sin(t) - c.Q(t)
        return dtc - 2.0 * c.D(t) * dD

    return YFunction(z1, dz1, None, "theta", True), YFunction(z2, dz2, None, "theta", True)


def curve_from_zeta(zeta1: YFunction, zeta2: YFunction,
                    theta_interval=(0.0, 2.0 * math.pi)) -> GeneratingCurve:
    """The particular generating curve with gauge Q == 0, so P = zeta1:

        x' = -zeta1 sin t,   y' = zeta1 cos t,
        z' = zeta2 + zeta1^2 + y x' - x y',

    integrated cumulatively from the interval's lower end with the
    initial point (0, 0, 0).  Any other initial point differs by a left
    translation, which the invariants ignore.  The curve takes arrays.
    """
    t0 = Window(*theta_interval).lo
    # x', y' and z' all need zeta1 at the same t (or array), over three lattices
    z1 = YFunction(memoized(zeta1), zeta1.d, zeta1.d2, "theta",
                   zeta1.arrays and [f and memoized(f) for f in zeta1.arrays])

    def xp(t):
        return -z1.over(t) * sin(t)

    def yp(t):
        return z1.over(t) * cos(t)

    x_int = CumulativeIntegral(xp, t0, var="theta", arrays=True)
    y_int = CumulativeIntegral(yp, t0, var="theta", arrays=True)

    def zp(t):
        return (zeta2.over(t) + (z := z1.over(t)) * z
                + y_int.over(t) * xp(t) - x_int.over(t) * yp(t))

    z_int = CumulativeIntegral(zp, t0, var="theta", arrays=True)

    def xpp(t):
        return -z1.over(t, 1) * sin(t) - z1.over(t) * cos(t)

    def ypp(t):
        return z1.over(t, 1) * cos(t) - z1.over(t) * sin(t)

    def zpp(t):
        # the x'y' cross terms cancel in d/dt of z'
        return (zeta2.over(t, 1) + 2.0 * z1.over(t) * z1.over(t, 1)
                + y_int.over(t) * xpp(t) - x_int.over(t) * ypp(t))

    return GeneratingCurve([YFunction(i.over, d1, d2, "theta", True) for i, d1, d2 in
                            ((x_int, xp, xpp), (y_int, yp, ypp), (z_int, zp, zpp))],
                           interval=theta_interval)


def bernstein_plane(A: float, B: float, C: float,
                    domain=((-3.0, 3.0), (-3.0, 3.0))) -> SurfaceChart:
    """The entire graph u = Ax + By + C; its unique singular point is
    (x, y) = (-B, A), and the left translation by (B, -A, -C) maps the
    graph onto u = 0."""
    g = GraphSurface(lambda x, y: A * x + B * y + C,
                     pointwise(lambda x, y: (A, B, 0.0, 0.0, 0.0), 5), domain)
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

    def partials_at(x, y):
        w = -B * x + A * y
        d1, d2 = g.d(w), g.d2(w)
        return (-2.0 * A * B * x + (A * A - B * B) * y - B * d1,
                (A * A - B * B) * x + 2.0 * A * B * y + A * d1,
                -2.0 * A * B + B * B * d2, (A * A - B * B) - A * B * d2,
                2.0 * A * B + A * A * d2)

    gs = GraphSurface(u, pointwise(partials_at, 5), domain)
    return gs.chart("saddle", {"rotation": (A, B), "g": g})


def helicoid_chart(theta_of_t: YFunction,
                   domain=((0.25, 3.0), (-1.0, 1.0))) -> SurfaceChart:
    """X(s, t) = (s cos theta(t), s sin theta(t), t); in these coordinates
    alpha = s theta'/(s^2 theta' + 1), a = 0, and the type follows the
    sign of theta'."""
    def pt(s, t):
        th = theta_of_t.over(t)
        return HPoint(s * np.cos(th), s * np.sin(th), t)

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
        return HPoint(np.cos(s) + t * np.sin(s), np.sin(s) - t * np.cos(s), t)

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
