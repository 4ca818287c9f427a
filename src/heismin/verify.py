"""Independent numerical verification: the p-minimal graph PDE residual,
alpha and H recovered from first principles on arbitrary charts, singular
set detection and classification for graphs, the characteristic-direction
go-through limits across singular curves, and Legendrian-ruling checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expr as expr_mod
from .errors import EvaluationError, NewtonDivergence, PreconditionFailed, SingularPoint
from .heis import FrameVector, HPoint, contact_value
from .numerics import Window, central_d1, richardson_limit

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


@dataclass
class GraphSurface:
    """A graph z = u(x, y) over a rectangular window, with first and
    second partials."""

    u: Callable[[float, float], float]
    u_x: Callable[[float, float], float]
    u_y: Callable[[float, float], float]
    u_xx: Callable[[float, float], float]
    u_xy: Callable[[float, float], float]
    u_yy: Callable[[float, float], float]
    window: tuple = ((-3.0, 3.0), (-3.0, 3.0))

    @staticmethod
    def from_expr(src: str, window=((-3.0, 3.0), (-3.0, 3.0))) -> "GraphSurface":
        """Graph from a two-variable expression in x and y; all partials
        are symbolic.  A domain or overflow error raises EvaluationError
        naming (x, y)."""
        ast = expr_mod.parse_expr_multi(src, ("x", "y"))
        dx = ast.deriv("x")
        dy = ast.deriv("y")

        def ev(node):
            def at(x, y):
                try:
                    return node.eval({"x": x, "y": y})
                except (ValueError, ArithmeticError) as exc:
                    raise EvaluationError(f"(x, y) = ({x}, {y})", exc) from exc
            return at

        return GraphSurface(ev(ast), ev(dx), ev(dy), ev(dx.deriv("x")),
                            ev(dx.deriv("y")), ev(dy.deriv("y")), window)

    def pq(self, x: float, y: float):
        """(p, q) = (u_x - y, u_y + x): the horizontal gradient, whose zeros
        are the singular points; e1 = (q, -p)/D with D = |(p, q)|."""
        return self.u_x(x, y) - y, self.u_y(x, y) + x

    def F(self, x: float, y: float) -> np.ndarray:
        """The singular-set defining map (p, q) as an array."""
        return np.array(self.pq(x, y))

    def F_jacobian(self, x: float, y: float) -> np.ndarray:
        return np.array([
            [self.u_xx(x, y), self.u_xy(x, y) - 1.0],
            [self.u_xy(x, y) + 1.0, self.u_yy(x, y)],
        ])

    def chart(self, name: str = "graph", extras: Optional[dict] = None):
        from .construct import SurfaceChart

        def pt(x, y):
            return HPoint(x, y, self.u(x, y))

        def dx_(x, y):
            return np.array([1.0, 0.0, self.u_x(x, y)])

        def dy_(x, y):
            return np.array([0.0, 1.0, self.u_y(x, y)])

        return SurfaceChart(point=pt, du=dx_, dv=dy_, domain=self.window,
                            name=name, graph_u=self, extras=extras or {})


def pmge_residual(g: GraphSurface, x: float, y: float) -> float:
    """The p-minimal graph equation residual

        (u_y + x)^2 u_xx - 2 (u_y + x)(u_x - y) u_xy + (u_x - y)^2 u_yy;

    zero exactly on p-minimal graphs."""
    p, q = g.pq(x, y)
    return (q * q * g.u_xx(x, y) - 2.0 * q * p * g.u_xy(x, y)
            + p * p * g.u_yy(x, y))


def characteristic_direction(g: GraphSurface, x: float, y: float):
    """The unit horizontal tangent e1 = ((u_y + x) e1* - (u_x - y) e2*)/D
    at a regular point of the graph, as a FrameVector."""
    p, q = g.pq(x, y)
    D = math.hypot(p, q)
    if D <= EPS_SINGULAR:
        raise SingularPoint(f"singular point of the graph at ({x}, {y})")
    return FrameVector(q / D, -p / D, 0.0, HPoint(x, y, g.u(x, y)))


def _frame_coords(p: HPoint, v: np.ndarray) -> np.ndarray:
    """(e1*, e2*, T)-coefficients of a coordinate tangent vector at p."""
    return np.array([v[0], v[1], contact_value(p, v)])


def chart_frame(chart, u: float, v: float):
    """(e1, e2, basepoint, Xu, Xv) at a regular chart point: e1 spans the
    horizontal tangent line, e2 = J e1, both as horizontal frame pairs
    (c1, c2); Xu and Xv are the chart partials' (e1*, e2*, T)-coefficients.

    Orientation: e1 is aligned with the chart's declared characteristic
    parameter when e1_index is set, with the graph convention
    ((u_y + x), -(u_x - y)) when the chart wraps a graph, and with the
    contact-weighted combination Theta(X_v) X_u - Theta(X_u) X_v otherwise.
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
    elif getattr(chart, "graph_u", None) is not None:
        gp, gq = chart.graph_u.pq(u, v)
        if e1 @ np.array([gq, -gp]) < 0:
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


def _gauss_newton(g: GraphSurface, x, y):
    """Gauss-Newton on F = 0 from (x, y): (x, y, converged) after at most
    NEWTON_MAX_ITER steps, the last iterate when it did not converge.
    Raises NewtonDivergence when F or J is not finite, a step fails or it
    leaves the finite plane.  The iterates are Python floats, so an
    expression raises where numpy would warn."""
    x0, y0 = x, y = float(x), float(y)
    for _ in range(NEWTON_MAX_ITER):
        Fv = g.F(x, y)
        if np.max(np.abs(Fv)) <= NEWTON_TOL:
            return x, y, True
        J = g.F_jacobian(x, y)
        if not (np.isfinite(Fv).all() and np.isfinite(J).all()):
            raise NewtonDivergence(f"F or its Jacobian is not finite at ({x}, {y})")
        try:
            dx, dy = np.linalg.lstsq(J, -Fv, rcond=None)[0].tolist()
        except np.linalg.LinAlgError:
            raise NewtonDivergence(f"linear solve failed near ({x}, {y})")
        x, y = x + dx, y + dy
        if not (math.isfinite(x) and math.isfinite(y)):
            raise NewtonDivergence(f"iterates diverged from ({x0}, {y0})")
    return x, y, False


def _newton_zero(g: GraphSurface, x0, y0):
    """The zero of F that Gauss-Newton reaches from the seed (x0, y0)."""
    x, y, converged = _gauss_newton(g, x0, y0)
    if converged or np.max(np.abs(g.F(x, y))) <= NEWTON_ACCEPT:
        return x, y
    raise NewtonDivergence(f"no convergence from ({x0}, {y0})")


def _kernel(J: np.ndarray) -> np.ndarray:
    """The unit kernel direction of a rank-one 2x2 Jacobian."""
    return np.linalg.svd(J)[2][-1]


def _jacobian_is_singular(J: np.ndarray) -> bool:
    scale = float(np.max(np.abs(J)))
    det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    return abs(det) <= JACOBIAN_RANK_TOL * max(1.0, scale * scale)


def _trace_curve(g: GraphSurface, x0, y0, step):
    """Predictor-corrector trace of a singular curve through (x0, y0):
    predict along the kernel direction of the Jacobian, correct by
    Gauss-Newton back onto F = 0.  A step of 0 traces the seed alone."""
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
            xn, yn, _ = _gauss_newton(g, x + step * t[0], y + step * t[1])
            if not (wx.holds(xn, step) and wy.holds(yn, step)):
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
    (traced as a polyline)."""
    wx, wy = (Window(*w) for w in g.window)
    # distinct seeds only, in increasing order: a zero-width window has one
    xs, ys = (np.unique(w.linspace(SEED_GRID)) for w in (wx, wy))
    step = max(wx.width, wy.width) / SEED_GRID

    zeros = []
    failures = 0
    for x0 in xs:
        for y0 in ys:
            try:
                x, y = _newton_zero(g, x0, y0)
            except NewtonDivergence:
                failures += 1
                continue
            if not (wx.holds(x, 1e-9) and wy.holds(y, 1e-9)):
                continue
            zeros.append((x, y))

    features = []
    consumed = np.zeros(len(zeros), dtype=bool)
    scale = max(1.0, wx.width, wy.width)
    for i, (x, y) in enumerate(zeros):
        if consumed[i]:
            continue
        J = g.F_jacobian(x, y)
        if not _jacobian_is_singular(J):
            res = float(np.max(np.abs(g.F(x, y))))
            features.append(SingularFeature("IsolatedPoint", (x, y),
                                            residual=res))
            for j, (xj, yj) in enumerate(zeros):
                if math.hypot(xj - x, yj - y) <= DEDUPE_TOL * scale:
                    consumed[j] = True
        else:
            poly = _trace_curve(g, x, y, step)
            res = float(max(np.max(np.abs(g.F(px, py))) for px, py in poly))
            features.append(SingularFeature("Curve", (x, y), poly, res))
            arr = np.asarray(poly)
            for j, (xj, yj) in enumerate(zeros):
                if consumed[j]:
                    continue
                d = np.min(np.hypot(arr[:, 0] - xj, arr[:, 1] - yj))
                if d <= 2.0 * step:
                    consumed[j] = True
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


def _cos_zeta(g: GraphSurface, x: float, y: float) -> float:
    """cos of the angle between e1 and the coordinate direction X_x
    = (1, 0, u_x) at a regular point, in the adapted metric."""
    p, q = g.pq(x, y)
    D = math.hypot(p, q)
    if D <= EPS_SINGULAR:
        raise SingularPoint(f"({x}, {y}) is singular")
    # X_x frame coords (1, 0, p); e1 = (q, -p)/D
    return q / (D * math.sqrt(1.0 + p * p))


def go_through_check(g: GraphSurface, p: tuple,
                     direction: Optional[tuple] = None) -> GoThroughResult:
    """Approach a point of a singular curve from both sides along a
    transversal and report the two limits of cos(angle(e1, X_x)).

    The limits are estimated by Richardson extrapolation over the
    geometric distances 0.1 * 2^{-k}, k = 1..20, and compared against the
    closed forms +-(u_xy + 1)/sqrt(u_xx^2 + (u_xy + 1)^2) at p.  The
    characteristic direction goes through the singular curve exactly when
    the two limits are opposite.
    """
    x0, y0 = float(p[0]), float(p[1])
    if not float(np.max(np.abs(g.F(x0, y0)))) <= NEWTON_ACCEPT:
        raise PreconditionFailed(f"({x0}, {y0}) is not a singular point")
    J = g.F_jacobian(x0, y0)
    if not np.isfinite(J).all():
        raise PreconditionFailed(f"the Jacobian of F is not finite at ({x0}, {y0})")
    if not _jacobian_is_singular(J):
        raise PreconditionFailed(
            "isolated singular point: no singular curve to go through")
    uxx = g.u_xx(x0, y0)
    uxy1 = g.u_xy(x0, y0) + 1.0
    if abs(uxx) <= 1e-12 and abs(uxy1) <= 1e-12:
        raise PreconditionFailed(
            "both u_xx and u_xy + 1 vanish; the limit analysis degenerates")
    if direction is None:
        # transversal: perpendicular to the curve tangent (Jacobian kernel)
        t = _kernel(J)
        direction = (-t[1], t[0])
    d = np.asarray(direction, dtype=float)
    norm = math.hypot(d[0], d[1])
    if not (math.isfinite(norm) and norm > 0.0):
        raise PreconditionFailed(f"direction {tuple(direction)} is zero or not finite")
    d /= norm

    def limit(sign):
        vals = [_cos_zeta(g, x0 + sign * 0.1 * 2.0**-k * d[0],
                          y0 + sign * 0.1 * 2.0**-k * d[1])
                for k in range(1, 21)]
        return richardson_limit(vals)

    plus = limit(+1.0)
    minus = limit(-1.0)
    expected = uxy1 / math.hypot(uxx, uxy1)
    flip = (abs(plus + minus) <= FLIP_TOL
            and min(abs(plus), abs(minus)) > FLIP_TOL)
    return GoThroughResult(plus, minus, expected, -expected, flip, FLIP_TOL)


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
