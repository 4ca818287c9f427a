"""Independent numerical verification: the p-minimal graph PDE residual,
alpha and H recovered from first principles on arbitrary charts, singular
set detection and classification for graphs, the characteristic-direction
go-through limits across singular curves, and Legendrian-ruling checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import expr as expr_mod
from .expr import pointwise
from .errors import EvaluationError, NewtonDivergence, PreconditionFailed, SingularPoint
from .heis import HPoint, contact_value
from .numerics import RICHARDSON_RATIO, Window, central_d1, first_where, richardson_limit

EPS_SINGULAR = 1e-10   # characteristic direction exists when D > this
NEWTON_TOL = 1e-12
NEWTON_ACCEPT = 1e-8   # a point with max |F| below this counts as a zero of F
NEWTON_MAX_ITER = 50
JACOBIAN_RANK_TOL = 1e-6   # relative |det J| below which J counts as singular
SEED_GRID = 41         # Newton seeds per axis of singular_set's window
DEDUPE_TOL = 1e-6      # zeros closer than this times the window are one point
TRACE_MAX_STEPS = 4000   # predictor-corrector steps per direction of a curve
FLIP_TOL = 1e-3        # go-through: limits opposite to within this
H_STEP = 1e-4          # numeric_H_on_chart's central-difference step
RULING_STEP = 0.1      # legendrian_line_check's second-difference step in r
BLOCK = 16384          # points per array evaluation
RANK_EPS = 2.0 * np.finfo(float).eps   # Gauss-Newton: |det J| <= this * |J|_F^2 is rank one


@dataclass
class SurfaceChart:
    """A parametrized surface (u, v) -> H1 with first partials.  point
    takes floats, or arrays of one shape and gives an HPoint of arrays.

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
    graph_u: Optional[GraphSurface] = None   # when the chart is a graph's
    extras: dict = field(default_factory=dict)


@dataclass
class GraphSurface:
    """A graph z = u(x, y) over a rectangular window.  partials(xs, ys) is
    (u_x, u_y, u_xx, u_xy, u_yy) at the points (xs[i], ys[i]) as five float
    arrays, or raises EvaluationError naming the first point, in order,
    where they cannot be evaluated."""

    u: Callable[[float, float], float]
    partials: Callable
    window: tuple = ((-3.0, 3.0), (-3.0, 3.0))

    @staticmethod
    def from_expr(src: str, window=((-3.0, 3.0), (-3.0, 3.0))) -> "GraphSurface":
        """Graph from a two-variable expression in x and y; all partials
        are symbolic.  A domain or overflow error raises EvaluationError
        naming (x, y).  partials runs the array code over any number of
        points but one, replayed point by point where it raises or is not
        finite, and the scalar code at a single point, where it is faster."""
        ast = expr_mod.parse_expr_multi(src, ("x", "y"))
        dx, dy = ast.deriv("x"), ast.deriv("y")
        nodes = (dx, dy, dx.deriv("x"), dx.deriv("y"), dy.deriv("y"))

        def at(x, y, nodes=nodes):
            try:
                return [n.eval({"x": x, "y": y}) for n in nodes]
            except (ValueError, ArithmeticError) as exc:
                raise EvaluationError(f"(x, y) = ({x}, {y})", exc) from exc

        def partials(xs, ys):
            xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
            return pointwise(at, 5, None if xs.size == 1 else lambda xs, ys: [
                n.eval_array({"x": xs, "y": ys}) for n in nodes])(xs, ys)

        return GraphSurface(lambda x, y: at(x, y, (ast,))[0], partials, window)

    def at(self, x: float, y: float) -> tuple:
        """(u_x, u_y, u_xx, u_xy, u_yy) at one point, as floats."""
        return tuple(float(c[0]) for c in self.partials([x], [y]))

    def F_jacobian(self, x: float, y: float) -> np.ndarray:
        _, _, u_xx, u_xy, u_yy = self.at(x, y)
        return np.array([[u_xx, u_xy - 1.0], [u_xy + 1.0, u_yy]])

    def chart(self, name: str = "graph", extras: Optional[dict] = None):
        u = pointwise(self.u)
        return SurfaceChart(point=lambda x, y: HPoint(x, y, u(x, y)),
                            du=lambda x, y: np.array([1.0, 0.0, self.at(x, y)[0]]),
                            dv=lambda x, y: np.array([0.0, 1.0, self.at(x, y)[1]]),
                            domain=self.window, name=name, graph_u=self,
                            extras=extras or {})


def pmge_residual(g: GraphSurface, x, y):
    """The p-minimal graph equation residual

        (u_y + x)^2 u_xx - 2 (u_y + x)(u_x - y) u_xy + (u_x - y)^2 u_yy;

    zero exactly on p-minimal graphs.  At one point, or at each point
    (x[i], y[i]) of two arrays, BLOCK points at a time."""
    xs, ys = np.reshape(x, -1).astype(float), np.reshape(y, -1).astype(float)
    out = np.empty(xs.shape)
    for i in range(0, xs.size, BLOCK):
        bx, by = xs[i:i + BLOCK], ys[i:i + BLOCK]
        u_x, u_y, u_xx, u_xy, u_yy = g.partials(bx, by)
        with np.errstate(all="ignore"):   # float arithmetic: nan and inf, as Python's
            p, q = u_x - by, u_y + bx
            out[i:i + BLOCK] = q * q * u_xx - 2.0 * q * p * u_xy + p * p * u_yy
    return out if np.ndim(x) else float(out[0])


def _frame_coords(p: HPoint, v: np.ndarray) -> np.ndarray:
    """(e1*, e2*, T)-coefficients of a coordinate tangent vector at p."""
    return np.array([v[0], v[1], contact_value(p, v)])


def chart_frame(chart, u: float, v: float):
    """(e1, e2, basepoint, Xu, Xv) at a regular chart point: e1 spans the
    horizontal tangent line, e2 = J e1, both as horizontal frame pairs
    (c1, c2); Xu and Xv are the chart partials' (e1*, e2*, T)-coefficients.

    Orientation: e1 is aligned with the chart's declared characteristic
    parameter when e1_index is set, and is otherwise the contact-weighted
    combination Theta(X_v) X_u - Theta(X_u) X_v, which on a graph chart's
    own frame is the graph convention (u_y + x, -(u_x - y)).
    """
    p = chart.point(u, v)
    Xu = _frame_coords(p, chart.du(u, v))
    Xv = _frame_coords(p, chart.dv(u, v))
    h = Xv[2] * Xu - Xu[2] * Xv  # horizontal: its T-coefficient vanishes
    nh = math.hypot(h[0], h[1])
    if nh <= EPS_SINGULAR:
        raise SingularPoint(
            f"tangent plane equals the contact plane at ({u}, {v})")
    e1 = np.array([h[0] / nh, h[1] / nh])
    if getattr(chart, "e1_index", None) is not None:
        ref = Xu if chart.e1_index == 0 else Xv
        if e1[0] * ref[0] + e1[1] * ref[1] < 0:
            e1 = -e1
    e2 = np.array([-e1[1], e1[0]])
    return e1, e2, p, Xu, Xv


def numeric_alpha_on_chart(chart, u: float, v: float) -> float:
    """alpha from first principles: the unique scalar making
    alpha e2 + T tangent to the chart, by a 3x3 linear solve in the
    left-invariant frame."""
    return _alpha_in_frame(chart_frame(chart, u, v), u, v)


def _alpha_in_frame(frame, u: float, v: float) -> float:
    _, e2, _, Xu, Xv = frame
    # E Xu + F Xv - alpha e2 = T, unknowns (E, F, alpha)
    A = np.array([
        [Xu[0], Xv[0], -e2[0]],
        [Xu[1], Xv[1], -e2[1]],
        [Xu[2], Xv[2], 0.0],
    ])
    try:
        sol = np.linalg.solve(A, np.array([0.0, 0.0, 1.0]))
    except np.linalg.LinAlgError as exc:
        raise SingularPoint(f"tangency system singular at ({u}, {v})") from exc
    return float(sol[2])


def numeric_ab_on_chart(chart, u: float, v: float):
    """(a, b) from first principles on a chart in compatible coordinates
    (e1_index set): the coefficients of the unit normal-companion field
    (alpha e2 + T)/sqrt(1 + alpha^2) in the chart partials."""
    if getattr(chart, "e1_index", None) is None:
        raise PreconditionFailed("(a, b) needs compatible chart coordinates")
    frame = chart_frame(chart, u, v)
    _, e2, _, Xu, Xv = frame
    al = _alpha_in_frame(frame, u, v)
    root = math.sqrt(1.0 + al * al)
    target = np.array([al * e2[0], al * e2[1], 1.0]) / root
    cols = (Xu, Xv) if chart.e1_index == 0 else (Xv, Xu)
    M = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(M, target, rcond=None)
    return float(coef[0]), float(coef[1])


def numeric_H_on_chart(chart, u: float, v: float) -> float:
    """The p-mean curvature from first principles: H = -<grad_{e1} e2, e1>.

    The left-invariant frame is parallel, so the covariant derivative
    reduces to the directional derivative of e2's frame coefficients
    along the characteristic flow, taken by central differences in
    parameter space along the direction pushing forward to e1.
    """
    e1, _, _, Xu, Xv = chart_frame(chart, u, v)
    # parameter direction with pushforward e1 (horizontal, so the frame
    # T-row is consistent); least squares over the 3 frame rows
    M = np.column_stack([Xu, Xv])
    d, *_ = np.linalg.lstsq(M, np.array([e1[0], e1[1], 0.0]), rcond=None)

    def e2_at(s):
        e2s = chart_frame(chart, u + s * d[0], v + s * d[1])[1]
        e1s = np.array([e2s[1], -e2s[0]])  # J^{-1} e2
        if e1s @ e1 < 0:  # keep the frame orientation continuous
            e2s = -e2s
        return e2s

    de2 = central_d1(e2_at, 0.0, H_STEP)
    return float(-(de2 @ e1))


@dataclass
class SingularFeature:
    """One connected component of the singular set."""

    kind: str                      # "IsolatedPoint" | "Curve"
    point: Optional[tuple] = None  # representative zero (x, y)
    polyline: Optional[list] = None
    residual: float = 0.0          # max |F| over reported samples

    def to_json_dict(self):
        d = {"kind": self.kind, "point": list(self.point),
             "residual": self.residual}
        if self.polyline is not None:
            d["polyline"] = [list(p) for p in self.polyline]
        return d


@dataclass
class SingularReport:
    features: list
    newton_failures: int = 0
    window: Optional[tuple] = None
    tolerance: float = NEWTON_TOL

    def to_json_dict(self):
        return {
            "features": [f.to_json_dict() for f in self.features],
            "newton_failures": self.newton_failures,
            "window": [list(w) for w in self.window] if self.window else None,
            "tolerance": self.tolerance,
            "passed": all(f.residual <= self.tolerance for f in self.features),
        }


def _pow2_scale(m):
    """The power of two at or below m, at least 1 (1 where m is not finite): J / s
    with s = _pow2_scale(max |J|) is exact, and no product of its entries overflows."""
    return np.maximum(1.0, np.ldexp(1.0, np.frexp(m)[1] - 1))


def _newton_zero(g: GraphSurface, x0, y0):
    """Gauss-Newton on F = 0 from every seed (x0[i], y0[i]) at once.

    Returns (x, y, res): each seed's last iterate and max |F| there.  A seed
    stops where max |F| <= NEWTON_TOL, or else after NEWTON_MAX_ITER steps;
    it reached a zero of F when res <= NEWTON_ACCEPT.  A seed whose F, J or
    next iterate is not finite, or whose iterate leaves u's domain, stops
    with x, y and res nan; an EvaluationError at a seed itself propagates.
    The 2x2 step is closed-form: Cramer's rule where |det J| > RANK_EPS
    |J|_F^2, else the minimum-norm step -J^T F / |J|_F^2, which is what
    lstsq gives for a J of rank one."""
    x = np.array(x0, dtype=float).reshape(-1)
    y = np.array(y0, dtype=float).reshape(-1)
    res = np.full(x.shape, np.nan)
    live = np.arange(x.size)
    for it in range(NEWTON_MAX_ITER + 1):
        xa, ya = x[live], y[live]
        u_x, u_y, a, u_xy, d = (g.partials(xa, ya) if it == 0
                                else _partials_or_nan(g, xa, ya))
        with np.errstate(all="ignore"):
            p, q = u_x - ya, u_y + xa
            r = np.maximum(np.abs(p), np.abs(q))
            b, c = u_xy - 1.0, u_xy + 1.0
            # J / s is exact (|u_xy - 1| or |u_xy + 1| is at least 1): the step
            # keeps the bits of the unscaled formulas, and no square overflows
            m = np.max(np.abs([a, b, c, d]), axis=0)
            s = _pow2_scale(m)
            a, b, c, d = a / s, b / s, c / s, d / s
            n2 = a * a + b * b + c * c + d * d
            det = a * d - b * c
            cramer = np.abs(det) > RANK_EPS * n2
            xn = xa + np.where(cramer, (b * q - d * p) / det, -(a * p + c * q) / n2) / s
            yn = ya + np.where(cramer, (c * p - a * q) / det, -(b * p + d * q) / n2) / s
        stop = r <= NEWTON_TOL if it < NEWTON_MAX_ITER else np.ones(live.size, bool)
        res[live[stop]] = r[stop]
        go = ~stop & np.isfinite(r) & np.isfinite(m) & np.isfinite(xn) & np.isfinite(yn)
        lost = live[~stop & ~go]
        x[lost] = y[lost] = np.nan
        live = live[go]
        x[live], y[live] = xn[go], yn[go]
        if not live.size:
            break
    return x, y, res


def _partials_or_nan(g: GraphSurface, xs, ys):
    """g.partials, with nan at each point where u cannot be evaluated."""
    def at(x, y):
        try:
            return g.at(x, y)
        except EvaluationError:
            return [np.nan] * 5
    return pointwise(at, 5, g.partials)(xs, ys)


def _max_abs_F(g: GraphSurface, xs, ys) -> float:
    """max |F| over the points (xs[i], ys[i])."""
    u_x, u_y = g.partials(xs, ys)[:2]
    return float(np.max(np.abs([u_x - ys, u_y + xs])))


def _kernel(J: np.ndarray) -> np.ndarray:
    """The unit kernel direction of a rank-one 2x2 Jacobian."""
    return np.linalg.svd(J)[2][-1]


def _jacobian_is_singular(J: np.ndarray) -> bool:
    """|det J| <= JACOBIAN_RANK_TOL max(1, max |J|^2), tested on J / s with
    s = _pow2_scale(max |J|)."""
    scale = float(np.max(np.abs(J)))
    s = float(_pow2_scale(scale))
    [(a, b), (c, d)], r = (J / s).tolist(), scale / s
    return abs(a * d - b * c) <= JACOBIAN_RANK_TOL * max(1.0 / (s * s), r * r)


def _trace_curve(g: GraphSurface, x0, y0, step):
    """Predictor-corrector trace of a singular curve through (x0, y0):
    predict along the kernel direction of the Jacobian, correct by
    Gauss-Newton back onto F = 0.  A direction ends where the corrected
    point leaves the window or advances less than half a step.  A step of
    0 traces the seed alone."""
    if step == 0.0:
        return [(x0, y0)]
    wx, wy = (Window(*w) for w in g.window)
    halves = []
    for sgn in (1.0, -1.0):
        pts = []
        x, y = x0, y0
        t_prev = sgn * _kernel(g.F_jacobian(x, y))
        for _ in range(TRACE_MAX_STEPS):
            t = _kernel(g.F_jacobian(x, y))
            if t @ t_prev < 0:
                t = -t
            xp, yp = x + step * t[0], y + step * t[1]
            xn, yn = (float(v[0]) for v in _newton_zero(g, [xp], [yp])[:2])
            if math.isnan(xn):
                raise NewtonDivergence(f"Gauss-Newton diverged from ({xp}, {yp})")
            if not (wx.holds(xn, step) and wy.holds(yn, step)):
                break
            if math.hypot(xn - x, yn - y) < 0.5 * step:
                break
            pts.append((xn, yn))
            t_prev = t
            x, y = xn, yn
        halves.append(pts)
    return list(reversed(halves[1])) + [(x0, y0)] + halves[0]


def singular_set(g: GraphSurface) -> SingularReport:
    """Locate and classify the zero set of F = (u_x - y, u_y + x) on the
    window: Newton from every grid seed, deduplicate the converged zeros,
    then classify each by the Jacobian rank — nonsingular Jacobian means
    an isolated singular point, singular Jacobian means a singular curve
    (traced as a polyline).  A degenerate zero, whose trace advances
    neither way from it, is an isolated point too."""
    wx, wy = (Window(*w) for w in g.window)
    # distinct seeds only, in increasing order: a zero-width window has one
    xs, ys = (np.unique(w.linspace(SEED_GRID)) for w in (wx, wy))
    step = max(wx.width, wy.width) / SEED_GRID

    ends_x, ends_y, ends_f = _newton_zero(g, np.repeat(xs, ys.size), np.tile(ys, xs.size))
    found = ends_f <= NEWTON_ACCEPT
    failures = int(np.count_nonzero(~found))
    zeros = [(x, y) for x, y in zip(ends_x[found].tolist(), ends_y[found].tolist())
             if wx.holds(x, 1e-9) and wy.holds(y, 1e-9)]

    features = []
    consumed = np.zeros(len(zeros), dtype=bool)
    scale = max(1.0, wx.width, wy.width)
    for i, (x, y) in enumerate(zeros):
        if consumed[i]:
            continue
        poly = (_trace_curve(g, x, y, step)
                if _jacobian_is_singular(g.F_jacobian(x, y)) else None)
        if poly is None or (step > 0.0 and len(poly) == 1):
            # Newton converges slowly to a degenerate zero and leaves its
            # zeros scattered about it; the trace's 2 * step takes them in
            radius = DEDUPE_TOL * scale if poly is None else 2.0 * step
            features.append(SingularFeature("IsolatedPoint", (x, y),
                                            residual=_max_abs_F(g, [x], [y])))
            for j, (xj, yj) in enumerate(zeros):
                if math.hypot(xj - x, yj - y) <= radius:
                    consumed[j] = True
        else:
            cx, cy = np.asarray(poly).T
            features.append(SingularFeature("Curve", (x, y), poly, _max_abs_F(g, cx, cy)))
            zx, zy = np.asarray(zeros).T
            rows = max(1, BLOCK // cx.size)   # zeros per block of distances
            for lo in range(0, zx.size, rows):
                d = np.hypot(cx - zx[lo:lo + rows, None], cy - zy[lo:lo + rows, None])
                consumed[lo:lo + rows] |= np.min(d, axis=1) <= 2.0 * step
        consumed[i] = True
    return SingularReport(features, failures, g.window)


@dataclass
class GoThroughResult:
    cos_limit_plus: float
    cos_limit_minus: float
    expected_plus: float
    expected_minus: float
    flip_detected: bool
    tolerance: float
    passed: bool   # flip_detected, and each limit within tolerance of its closed form


def go_through_check(g: GraphSurface, p: tuple,
                     direction: Optional[tuple] = None) -> GoThroughResult:
    """Approach a point (x0, y0) of a singular curve from both sides along
    a unit transversal d (by default normal to the curve, whose tangent is
    the kernel of J) and report the limits of cos(angle(e1, X_x)).

    The cosine is q/(D sqrt(1 + p^2)), with (p, q) = F = (u_x - y, u_y + x)
    and D = |(p, q)|, and F((x0, y0) + s d) = s J d + O(s^2), so the limits
    are the closed forms +-(J d)_2/|J d|, + on the side of +d; a d tangent
    to the curve, |J d| <= JACOBIAN_RANK_TOL max |J|, is refused.  Each is
    extrapolated by richardson_limit from the distances 0.1 RICHARDSON_RATIO^-k,
    k = 1..20; one partials call reads the 40 points, the + side first.  e1 =
    (q, -p)/D goes through the curve when its limits, each component extrapolated
    alike, are opposite within FLIP_TOL, also where e1 is perpendicular to X_x.
    """
    x0, y0 = float(p[0]), float(p[1])
    if not _max_abs_F(g, [x0], [y0]) <= NEWTON_ACCEPT:
        raise PreconditionFailed(f"({x0}, {y0}) is not a singular point")
    J = g.F_jacobian(x0, y0)
    if not np.isfinite(J).all():
        raise PreconditionFailed(f"the Jacobian of F is not finite at ({x0}, {y0})")
    if not _jacobian_is_singular(J):
        raise PreconditionFailed(
            "isolated singular point: no singular curve to go through")
    if direction is None:
        t = _kernel(J)
        direction = (-t[1], t[0])
    d = np.asarray(direction, dtype=float)
    norm = math.hypot(d[0], d[1])
    if not (math.isfinite(norm) and norm > 0.0):
        raise PreconditionFailed(f"direction {tuple(direction)} is zero or not finite")
    d /= norm
    Jd = J @ d
    size = math.hypot(Jd[0], Jd[1])
    if not size > JACOBIAN_RANK_TOL * np.max(np.abs(J)):
        raise PreconditionFailed(f"direction {tuple(direction)} is tangent to the "
                                 f"singular curve at ({x0}, {y0})")

    s = 0.1 * RICHARDSON_RATIO ** -np.arange(1.0, 21.0)
    s = np.concatenate((s, -s))
    xs, ys = x0 + s * d[0], y0 + s * d[1]
    u_x, u_y = g.partials(xs, ys)[:2]
    with np.errstate(all="ignore"):   # float arithmetic: nan and inf, as Python's
        fp, fq = u_x - ys, u_y + xs
        D = expr_mod.hypot(fp, fq)
        cos = fq / (D * np.sqrt(1.0 + fp * fp))
        e1 = np.array([fq, -fp]) / D
    if (i := first_where(D <= EPS_SINGULAR, np.arange(D.size))) is not None:
        raise SingularPoint(f"({xs[i]}, {ys[i]}) is singular")
    plus, minus = richardson_limit(cos[:20]), richardson_limit(cos[20:])
    expected = float(Jd[1] / size)
    e1_sum = [richardson_limit(c[:20]) + richardson_limit(c[20:]) for c in e1]
    flip = math.hypot(*e1_sum) <= FLIP_TOL
    passed = flip and abs(plus - expected) <= FLIP_TOL and abs(minus + expected) <= FLIP_TOL
    return GoThroughResult(plus, minus, expected, -expected, flip, FLIP_TOL, passed)


def legendrian_line_check(chart, samples):
    """Max |Theta(Y_r)| and max straightness defect (second difference of
    the ruling in r) over the sample points (r, theta)."""
    max_theta = 0.0
    max_bend = 0.0
    for r, t in samples:
        p = chart.point(r, t)
        max_theta = max(max_theta,
                        abs(contact_value(p, chart.du(r, t))))
        second = (chart.point(r + RULING_STEP, t).as_array()
                  - 2.0 * p.as_array()
                  + chart.point(r - RULING_STEP, t).as_array())
        max_bend = max(max_bend, float(np.max(np.abs(second))))
    return max_theta, max_bend
