"""The Codazzi-like Lienard ODE  a'' + 6 a a' + 4 a^3 + c^2 a = 0.

Put a = w'/(2w): the ODE becomes w''' + c^2 w' = 0, the linearisation of
the modified Emden equation.  For c = 0, w is a polynomial of degree at
most 2, and its cases w = 1, (x + c1)^2, 2x + c1 and (x + c1)^2 + c2 give
the complete closed-form solution set

    0,   1/(x + c1),   1/(2x + c1),   (x + c1)/((x + c1)^2 + c2),

implemented here as tagged solution families, each written as its w,
together with a residual evaluator, a fixed-step RK4 initial-value oracle,
solution fitting from phase data, the conserved quantity of the Abel
reduction, and phase-plane sampling.  The special type II family is
parametrized as 1/(2x + c1); the equivalent form 1/(2(x + c1)) differs
only by rescaling the constant.
"""
from __future__ import annotations

import enum
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .errors import (BlowUp, DegenerateBranch, EvaluationError, MixedType,
                     SingularPoint, StepLimit)
from .expr import hypot, pointwise
from .numerics import EPS_DEN, PANELS_PER_UNIT, Window, YFunction, first_where

EPS_FIT = 1e-10   # branch tolerance in fit_solution
BLOWUP_GUARD = 1e12
MAX_RK4_STEPS = 2_000_000   # steps one sweep may take (16 MB a column)
_TINY = 2.0 ** -1022   # the least normal float


class SurfaceType(enum.Enum):
    VERTICAL = "Vertical"
    SPECIAL_I = "SpecialI"
    SPECIAL_II = "SpecialII"
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    TYPE_III = "TypeIII"


@dataclass(frozen=True)
class PhaseState:
    """A point (alpha, v) of the phase plane, v = alpha_x."""

    alpha: float
    v: float


class AlphaSolution:
    """Base class of the closed-form solution families (c = 0).  A family
    writes only _profile(x): the factor g of w that its guard tests, then
    w, h = w'/2 and k = w''/2.  alpha = h/w, alpha_x, alpha_xx, y_speed,
    metric_factor and the guard are derived here, once, for a float or an
    array of x, a square as x * x on both; the guard raises SingularPoint
    at the first x, in order, where |g| <= EPS_DEN.  y_speed(x) = sqrt(g22):
    the first fundamental form in normal coordinates is diag(1, y_speed^2),
    and metric_factor = 1/y_speed is the x-profile that the induced-metric
    coefficients a and b share.  scale is the coefficient of x next to c1,
    so x -> x + g moves c1 by scale * g.  types are the surface types a
    family member can have; each type belongs to one family."""

    scale = 1.0
    types = ()

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(c := getattr(self, f.name)):
                raise ValueError(f"{self._name} family requires a finite {f.name}, not {c}")

    @np.errstate(over="ignore")   # where w overflows, an array is inf silently, as a float is
    def _guard(self, x):
        """(w, h, k) at x; SingularPoint where the guarded factor vanishes."""
        g, w, h, k = self._profile(x)
        if (at := first_where(abs(g) <= EPS_DEN, x)) is not None:
            raise SingularPoint(f"{self._name} solution singular at x = {at}")
        return w, h, k

    def alpha(self, x):
        w, h, _ = self._guard(x)
        return self._past_square(h / w, x, 0)

    def alpha_x(self, x):
        w, h, k = self._guard(x)
        a = h / w
        return self._past_square(k / w - 2.0 * (a * a), x, 1)

    def alpha_xx(self, x):
        w, h, k = self._guard(x)   # and w''' = 0
        a = h / w
        return a * (8.0 * (a * a) - 6.0 * k / w)

    @np.errstate(over="ignore")
    def y_speed(self, x):
        """sqrt(g22) = |w| sqrt(1 + alpha^2) = hypot(w, h), as
        e^{int 2 alpha dx} = |w|.  Raises nothing: it is 0 on the special I
        singular line and |x + c1| on the general singular curves."""
        _, w, h, _ = self._profile(x)
        return self._past_square(hypot(w, h), x, 3)

    def metric_factor(self, x):
        """e^{-int 2 alpha dx} / sqrt(1 + alpha^2), where alpha exists."""
        w, h, _ = self._guard(x)   # 1/hypot(w, h): the alpha row is not needed
        return self._past_square(1.0 / hypot(w, h), x, 2)

    def _past_square(self, value, x, i):   # value, where w is finite at every finite x
        return value

    def singular_x(self):
        """The real zeros of w, where the closed form blows up (possibly none)."""
        return ()

    def surface_type(self, x_window=None) -> SurfaceType:
        """The surface type over the x-window, which only the general
        family reads."""
        return self.types[0]


@dataclass(frozen=True)
class Zero(AlphaSolution):
    """alpha = 0: w = 1, which no guard rejects."""

    types = (SurfaceType.VERTICAL,)

    def _profile(self, x):
        return 1.0, 1.0, 0.0, 0.0


class _SquareW(AlphaSolution):
    """A family whose w is X^2 + c2, X = x + c1, c2 = _c2.  Where X is finite
    and w overflows (|X| > 1.34e154 or so), h/w reads 0 and hypot(w, h) inf:
    there all forms but alpha_xx are rounded from X and c2 (_far); alpha_xx
    is already the rounded 2X(X^2 - 3 c2)/w^3, a zero with X's sign."""

    def _past_square(self, value, x, i):
        """value, with _far(X, c2, i) where X is finite and w is not."""
        if isinstance(x, np.ndarray):   # value reads 0 (y_speed inf) wherever w overflows
            if (np.isinf(value).any() if i == 3 else np.count_nonzero(value) < value.size):
                far = np.flatnonzero(value == (math.inf if i == 3 else 0.0))
                for k, t in zip(far.tolist(), np.ravel(x)[far].tolist()):
                    value.flat[k] = self._past_square(value.flat[k], t, i)
            return value
        X, c2 = float(x + self.c1), self._c2
        return _far(X, c2, i) if math.isinf(X * X + c2) and math.isfinite(X) else value


@dataclass(frozen=True)
class SpecialI(_SquareW):
    """alpha = 1/(x + c1): w = (x + c1)^2, guarded at its double root's factor."""

    c1: float
    _c2 = 0.0
    _name = "special I"
    types = (SurfaceType.SPECIAL_I,)

    def _profile(self, x):
        X = x + self.c1
        return X, X * X, X, 1.0

    def singular_x(self):
        return (-self.c1,)


@dataclass(frozen=True)
class SpecialII(AlphaSolution):
    """alpha = 1/(2x + c1): w = 2x + c1."""

    c1: float
    scale = 2.0
    _name = "special II"
    types = (SurfaceType.SPECIAL_II,)

    def _profile(self, x):
        w = self.scale * x + self.c1
        return w, w, 1.0, 0.0

    def singular_x(self):
        return (-self.c1 / self.scale,)


@dataclass(frozen=True)
class General(_SquareW):
    """alpha = (x + c1)/((x + c1)^2 + c2), c2 != 0: w = (x + c1)^2 + c2."""

    c1: float
    c2: float
    _name = "general"
    types = (SurfaceType.TYPE_I, SurfaceType.TYPE_II, SurfaceType.TYPE_III)
    _c2 = property(lambda self: self.c2)

    def __post_init__(self):
        super().__post_init__()
        if self.c2 == 0.0:
            raise ValueError("general family requires c2 != 0")

    def _profile(self, x):
        X = x + self.c1
        w = X * X + self.c2
        return w, w, X, 1.0

    def singular_x(self):
        if self.c2 > 0:
            return ()
        r = math.sqrt(-self.c2)
        return (-self.c1 - r, -self.c1 + r)

    def surface_type(self, x_window=None) -> SurfaceType:
        """Type I for c2 > 0.  For c2 < 0, type II on a window wholly below
        or wholly above the singular curves and type III on one strictly
        between them, in either endpoint order; MixedType otherwise."""
        if self.c2 > 0:
            return SurfaceType.TYPE_I
        if x_window is None:
            raise MixedType("c2 < 0 requires an x-window to separate types II and III")
        w = Window(*x_window)
        lo, hi = self.singular_x()
        if w.hi < lo or w.lo > hi:
            return SurfaceType.TYPE_II
        if lo < w.lo and w.hi < hi:
            return SurfaceType.TYPE_III
        raise MixedType(f"x-window [{w.lo}, {w.hi}] meets the singular "
                        f"curves x = {lo} and x = {hi}")


FAMILIES = (Zero, SpecialI, SpecialII, General)


def _far(X: float, c2: float, i: int) -> float:
    """Form i of (alpha, alpha_x, metric_factor, y_speed) of w = X^2 + c2 > 0, rounded
    once from the exact X = p/q and c2 = r/s by an int's true division, subnormals
    too; where X * X + c2 overflows, hypot(w, X) = w to a relative 1e-300."""
    (p, q), (r, s) = X.as_integer_ratio(), c2.as_integer_ratio()
    n, P, Q = s * q * q, p * p * s, r * q * q   # X^2 = P/n, c2 = Q/n
    num, den = ((p * q * s, P + Q), ((Q - P) * n, (P + Q) * (P + Q)), (n, P + Q), (P + Q, n))[i]
    return _quotient(num, den)   # only w can pass the float range


def _quotient(num: int, den: int) -> float:   # rounded once; inf past the float range
    try:
        return num / den
    except OverflowError:
        return math.inf


def lienard_residual(f, x: float, H_const: float = 0.0) -> float:
    """Residual f'' + 6 f f' + 4 f^3 + H_const^2 f at x.

    f is an AlphaSolution (analytic derivatives), a YFunction, or a plain
    callable, made a YFunction and so differenced by its fallback.
    """
    if isinstance(f, AlphaSolution):
        a, da, dda = f.alpha(x), f.alpha_x(x), f.alpha_xx(x)
    else:
        g = f if isinstance(f, YFunction) else YFunction(f, var="x")
        a, da, dda = g(x), g.d(x), g.d2(x)
    return dda - _rhs(a, da, H_const)[1]


def _rhs(alpha, v, H_const):
    """(alpha', v') at floats or arrays (H_const too), from + and * alone, on
    which numpy and float agree bit for bit: an array has the float calls'
    bits, and an overflow reads inf or nan, raising nothing."""
    return v, -(6.0 * alpha * v + alpha * (4.0 * (alpha * alpha) + H_const * H_const))


def _rk4_step(alpha: float, v: float, h: float, H_const: float):
    k1a, k1v = _rhs(alpha, v, H_const)
    k2a, k2v = _rhs(alpha + 0.5 * h * k1a, v + 0.5 * h * k1v, H_const)
    k3a, k3v = _rhs(alpha + 0.5 * h * k2a, v + 0.5 * h * k2v, H_const)
    k4a, k4v = _rhs(alpha + h * k3a, v + h * k3v, H_const)
    return (
        alpha + h / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a),
        v + h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
    )


def _step_count(width: float, step: float) -> int:
    """The whole number of steps nearest |width| / step, at least 1;
    StepLimit where that is more than MAX_RK4_STEPS."""
    steps = abs(width) / step
    if not steps <= MAX_RK4_STEPS:
        raise StepLimit(f"the window needs {steps:.6g} RK4 steps, more than "
                        f"the limit of {MAX_RK4_STEPS}")
    return max(1, round(steps))


def _sweep(alpha0: float, v0: float, x0: float, x1: float, step: float,
           H_const: float) -> Trajectory:
    """The RK4 states (alpha, v) at x0 + i h, i = 0..n, where h is the
    nearest step to `step` that divides [x0, x1] (n = 0 when x1 == x0);
    raises StepLimit, before the first step, when that takes more than
    MAX_RK4_STEPS steps, and BlowUp at the first non-finite state or state
    beyond BLOWUP_GUARD."""
    if x1 == x0:   # a window of zero width holds the initial state alone
        if not (abs(alpha0) <= BLOWUP_GUARD and abs(v0) <= BLOWUP_GUARD):
            raise BlowUp(x0)
        return Trajectory(x0, 0.0, array("d", [alpha0]), array("d", [v0]))
    n = _step_count(x1 - x0, step)
    h = (x1 - x0) / n
    alphas, vs = array("d", [alpha0]), array("d", [v0])
    put_a, put_v = alphas.append, vs.append
    # _rk4_step written out, _rhs in its order: 0.5 * h * k is (0.5 * h) * k
    # and h / 6.0 * s is (h / 6.0) * s, so the hoisted factors change no bit
    hh, h6, guard, low = 0.5 * h, h / 6.0, BLOWUP_GUARD, -BLOWUP_GUARD   # locals, read every step
    c2 = (H := float(H_const)) * H   # float arithmetic in the loop; inf trips the guard
    a, v = alpha0, v0
    for i in range(n):
        a2, v2 = a + hh * v, v + hh * (
            k1v := -(6.0 * a * v + a * (4.0 * (a * a) + c2)))
        a3, v3 = a + hh * v2, v + hh * (
            k2v := -(6.0 * a2 * v2 + a2 * (4.0 * (a2 * a2) + c2)))
        a4, v4 = a + h * v3, v + h * (
            k3v := -(6.0 * a3 * v3 + a3 * (4.0 * (a3 * a3) + c2)))
        k4v = -(6.0 * a4 * v4 + a4 * (4.0 * (a4 * a4) + c2))
        a, v = (a + h6 * (v + 2.0 * v2 + 2.0 * v3 + v4),
                v + h6 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))
        # false on nan and +-inf too, as the guard is finite
        if not (low <= a <= guard and low <= v <= guard):
            raise BlowUp(x0 + (i + 1) * h)
        put_a(a)
        put_v(v)
    return Trajectory(x0, h, alphas, vs)


class _Rows(Sequence):
    """A read-only sequence of rows computed on demand from columns."""

    def __getitem__(self, i):
        n = len(self)
        if isinstance(i, slice):
            return [self._row(k) for k in range(*i.indices(n))]
        k = i + n if i < 0 else i
        if not 0 <= k < n:
            raise IndexError(i)
        return self._row(k)


class Trajectory(_Rows):
    """The states of one RK4 sweep, kept as the columns alpha and v;
    [i] is (x_i, PhaseState) with x_i = x0 + i h (x0 itself at i = 0)."""

    def __init__(self, x0: float, h: float, alpha: array, v: array):
        self.x0, self.h, self.alpha, self.v = x0, h, alpha, v

    def __len__(self):
        return len(self.alpha)

    def _row(self, i):
        return (self.x0 + i * self.h if i else self.x0,
                PhaseState(self.alpha[i], self.v[i]))

    def columns(self):
        """The columns x, alpha, v."""
        xs = self.x0 + np.arange(len(self), dtype=float) * self.h   # float(i) * h, as _row
        xs[0] = self.x0
        return xs, self.alpha, self.v


def integrate_ivp(alpha0: float, v0: float, x0: float, x1: float,
                  step: float, H_const: float = 0.0) -> Trajectory:
    """Classical RK4 on (alpha' = v, v' = -(6 alpha v + 4 alpha^3 + c^2 alpha)).

    Returns the trajectory covering [x0, x1], a sequence of
    (x, PhaseState).  Raises BlowUp when |alpha| or |v| exceeds the
    overflow guard BLOWUP_GUARD, which signals approach to a singular x of
    the underlying solution, and ValueError for a step that is not positive.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    return _sweep(alpha0, v0, x0, x1, step, H_const)


class OdeSolutionCurve:
    """A smooth x -> (alpha, alpha_x) obtained by one high-resolution RK4
    sweep, evaluable anywhere in [x0, x1], at a float or an array of x.

    States are stored at the multiples k s of s = 0.5 / PANELS_PER_UNIT
    that lie in [x0, x1], the node and midpoint spacing of a quadrature
    lattice: one RK4 step reaches the first of them from x0 and the sweep
    runs on from there.  Every node and midpoint of a lattice whose base is
    a multiple of s is then a stored state and costs a read.  A window that
    holds no multiple of s stores its states at x0 + i h instead, h the
    divisor of [x0, x1] nearest s.  Any other x takes a single partial RK4
    step from the stored state below it, or from the first state where x
    lies below that, so values at nearby points share the same integration
    history and finite differencing across them is well conditioned.  Used for constant
    H != 0, whose closed form alpha = w'/(2w), w = A + B cos H(x - x0)
    + C sin H(x - x0), is not implemented yet (ROADMAP item 2).
    """

    def __init__(self, alpha0, v0, x0, x1, H_const=0.0):
        self.x0, self.x1 = float(x0), float(x1)
        self.H_const = float(H_const)
        s = 0.5 / PANELS_PER_UNIT
        try:
            first, last = math.ceil(self.x0 / s) * s, math.floor(self.x1 / s) * s
        except (OverflowError, ValueError):   # x / s is inf or nan
            first, last = math.inf, -math.inf
        if first <= last:
            _step_count(last - first, s)   # StepLimit before the first step
            start = _sweep(alpha0, v0, self.x0, first, s, H_const)
            traj = _sweep(start.alpha[-1], start.v[-1], first, last, s, H_const)
        else:
            traj = _sweep(alpha0, v0, self.x0, self.x1, s, H_const)
        self._base, self.h = traj.x0, traj.h
        self._alpha, self._v = np.frombuffer(traj.alpha), np.frombuffer(traj.v)

    def state(self, x):
        """(alpha, alpha_x) at x; over an array, one index of the stored
        states and one partial step for the points between them, with the
        float call's bits and, where that raises, its first error:
        EvaluationError at a non-finite x, BlowUp where the state is not finite."""
        return pointwise(self._state_at, 2, self._states_over)(x)

    def _state_at(self, x: float):
        t = (x - self._base) / (self.h or 1.0)   # x0 == x1 (h = 0): one node
        if not math.isfinite(t):   # x is not finite, or so far out that no step reaches it
            raise (BlowUp(x) if math.isfinite(x) else
                   EvaluationError(f"x = {x}", "not a finite point"))
        k = min(self._alpha.size - 1, max(0, math.floor(t)))
        a, v = self._alpha.item(k), self._v.item(k)
        dx = x - (self._base + k * self.h)
        if dx != 0.0:
            a, v = _rk4_step(a, v, dx, self.H_const)
            if not (math.isfinite(a) and math.isfinite(v)):
                raise BlowUp(x)
        return a, v

    def _states_over(self, xs):
        x = xs.ravel()
        t = (x - self._base) / self.h if self.h else np.zeros(x.size)
        if not np.isfinite(t).all():   # the float call's error
            raise ValueError("cannot index the stored states")
        k = np.clip(np.floor(t), 0, self._alpha.size - 1)
        k = k.astype(np.intp)
        a, v = self._alpha[k], self._v[k]
        dx = x - (self._base + k * self.h)
        if (off := dx != 0.0).any():
            a[off], v[off] = _rk4_step(a[off], v[off], dx[off], self.H_const)
        return a.reshape(xs.shape), v.reshape(xs.shape)

    def alpha(self, x):
        return self.state(x)[0]

    def alpha_x(self, x):
        return self.state(x)[1]


def fit_solution(alpha0: float, v0: float, x0: float) -> AlphaSolution:
    """The unique closed-form family member with alpha(x0) = alpha0 and
    alpha'(x0) = v0; EvaluationError off the finite phase plane and where
    alpha0^2 or a constant of the member overflows."""
    state = f"(alpha, v) = ({alpha0}, {v0})"
    if not (math.isfinite(alpha0) and math.isfinite(v0)):
        raise EvaluationError(state, "not a finite state")
    # alpha0 = 0, or so near it that special II's c1 = 1/alpha0 - 2 x0 is not finite
    if abs(v0) <= EPS_FIT and (alpha0 == 0.0 or math.isinf(1.0 / alpha0)):
        return Zero()
    try:
        a2 = alpha0**2
        s = SpecialII.scale
        den = v0 + s * a2
        if abs(den) <= EPS_FIT * max(1.0, a2):
            # alpha' = -2 alpha^2 characterizes special type II
            return SpecialII(c1=1.0 / alpha0 - s * x0)
        if alpha0 == 0.0:
            # zero crossing of a general solution: X(x0) = 0
            return General(c1=-x0, c2=1.0 / v0)
        X0 = alpha0 / den
        c1 = X0 - x0
        # X0/alpha0 simplifies to 1/den, which stays accurate when alpha0 is tiny
        c2 = 1.0 / den - X0 * X0
        if abs(c2) <= EPS_FIT * max(1.0, X0 * X0):
            return SpecialI(c1=c1)
        return General(c1=c1, c2=c2)
    except (OverflowError, ValueError) as exc:   # alpha0^2, or a constant, not finite
        raise EvaluationError(state, exc) from exc


def conserved_quantity(s: PhaseState) -> float:
    """The first integral C = w(3w + 2)/((3w + 1)^2 alpha^2), w = 2 alpha^2/(3v).

    Constant along general-family orbits; raises DegenerateBranch on the
    excluded loci w in {0, -1/3, -2/3} (the special families) and at v = 0
    or alpha = 0 where w is undefined or zero; raises EvaluationError where
    the state is not finite or C overflows.  C is the float form where alpha^2,
    w, (3w + 1)^2 alpha^2 and C are normal, else rounded once from the exact state.
    """
    if s.v == 0.0 or s.alpha == 0.0:
        raise DegenerateBranch("w = 2 alpha^2 / (3 v) undefined or zero")
    a2 = s.alpha * s.alpha
    w = 2.0 * a2 / (3.0 * s.v)
    if _TINY <= a2 and _TINY <= abs(w) < math.inf:   # w is 2 alpha^2/(3v) to an ulp or two
        _off_branches(w)
        t = 3.0 * w + 1.0
        C = w * (3.0 * w + 2.0) / (denom := t * t * a2)
        if _TINY <= denom < math.inf and _TINY <= abs(C) < math.inf:
            return C
    if math.isfinite(s.alpha) and math.isfinite(s.v):   # alpha^2 = A/n, v = B/n, n = q^2 u
        (p, q), (r, u) = s.alpha.as_integer_ratio(), s.v.as_integer_ratio()
        A, B = p * p * u, r * q * q
        _off_branches(_quotient(2 * A, 3 * B))   # w, rounded once
        if not math.isinf(C := _quotient(4 * (A + B) * q * q * u, 3 * (2 * A + B) ** 2)):
            return C
    raise EvaluationError(f"(alpha, v) = ({s.alpha}, {s.v})", "w or C is not finite")


def _off_branches(w: float) -> None:
    for bad in (-1.0 / 3.0, -2.0 / 3.0):
        if abs(w - bad) <= 1e-12:   # within 1e-12 max(1, |w|) at a finite w; never at inf
            raise DegenerateBranch(f"degenerate branch w = {bad}")


class PhaseField(_Rows):
    """The direction field on a grid: its axes alpha and v and the float64 array
    dv, dv[i, j] at (alpha[i], v[j]); [k] is row-major (PhaseState, (v, dv))."""

    def __init__(self, alpha: list, v: list, dv: np.ndarray):
        self.alpha, self.v, self.dv = alpha, v, dv

    def __len__(self):
        return len(self.alpha) * len(self.v)

    def _row(self, k):
        i, j = divmod(k, len(self.v))
        return PhaseState(self.alpha[i], self.v[j]), (self.v[j], float(self.dv[i, j]))


def phase_field(alpha_range, v_range, nx: int, nv: int) -> PhaseField:
    """Sample the phase-plane direction field V = (v, -(6 alpha v + 4 alpha^3)),
    the Lienard operator at c = 0, on a regular nx x nv grid; (0, 0) is its
    only zero.  One _rhs call evaluates the whole grid.

    Returns a row-major sequence of (PhaseState, (dalpha, dv)).  Raises
    EvaluationError, naming the first (alpha, v) in row-major order, where
    a field value is not finite.
    """
    if nx < 2 or nv < 2:
        raise ValueError("need at least a 2 x 2 grid")
    a_lo, a_hi = alpha_range
    v_lo, v_hi = v_range
    alphas = [a_lo + (a_hi - a_lo) * i / (nx - 1) for i in range(nx)]
    vs = [v_lo + (v_hi - v_lo) * j / (nv - 1) for j in range(nv)]
    with np.errstate(over="ignore", invalid="ignore"):
        dv = _rhs(*np.meshgrid(alphas, vs, indexing="ij"), 0.0)[1]
    if (bad := ~np.isfinite(dv)).any():   # where v is not finite too: 6 alpha v is inf or nan
        i, j = divmod(int(np.argmax(bad)), nv)
        raise EvaluationError(f"(alpha, v) = ({alphas[i]}, {vs[j]})",
                              "the field value is not finite")
    return PhaseField(alphas, vs, dv)
