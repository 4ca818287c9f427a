"""The Codazzi-like Lienard ODE  a'' + 6 a a' + 4 a^3 + c^2 a = 0.

For c = 0 the equation has a complete closed-form solution set,

    0,   1/(x + c1),   1/(2x + c1),   (x + c1)/((x + c1)^2 + c2),

implemented here as tagged solution families, together with a residual
evaluator, a fixed-step RK4 initial-value oracle, solution fitting from
phase data, the conserved quantity of the Abel reduction, and phase-plane
sampling.  The special type II family is parametrized as 1/(2x + c1); the
equivalent form 1/(2(x + c1)) differs only by rescaling the constant.
"""
from __future__ import annotations

import enum
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (BlowUp, DegenerateBranch, EvaluationError, MixedType,
                     SingularPoint, StepLimit)
from .numerics import EPS_DEN, Window, YFunction

EPS_FIT = 1e-10   # branch tolerance in fit_solution
BLOWUP_GUARD = 1e12
PROFILE_STEP = 1e-4   # RK4 lattice spacing of an OdeSolutionCurve
MAX_RK4_STEPS = 2_000_000   # steps one sweep may take (16 MB a column)


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
    """Base class of the closed-form solution families (c = 0).  scale is
    the coefficient of x next to c1, so x -> x + g moves c1 by scale * g.
    Each family writes its geometry once, as y_speed(x) = sqrt(g22): the
    first fundamental form in normal coordinates is diag(1, y_speed^2),
    and metric_factor = 1/y_speed is the x-profile that the
    induced-metric coefficients a and b share.  types are the surface
    types a family member can have; each type belongs to one family."""

    scale = 1.0
    types = ()

    def alpha(self, x: float) -> float:
        raise NotImplementedError

    def alpha_x(self, x: float) -> float:
        raise NotImplementedError

    def alpha_xx(self, x: float) -> float:
        raise NotImplementedError

    def y_speed(self, x: float) -> float:
        """sqrt(g22) = sqrt(1 + alpha^2) e^{int 2 alpha dx}.  Raises nothing:
        it is 0 on the special I singular line and |x + c1| on the general
        singular curves."""
        raise NotImplementedError

    def metric_factor(self, x: float) -> float:
        """e^{-int 2 alpha dx} / sqrt(1 + alpha^2), where alpha exists."""
        self.alpha(x)   # the family's guard: (a, b) exists only where alpha does
        return 1.0 / self.y_speed(x)

    def singular_x(self):
        """x-values where the closed form blows up (possibly empty)."""
        return ()

    def surface_type(self, x_window=None) -> SurfaceType:
        """The surface type over the x-window, which only the general
        family reads."""
        return self.types[0]


@dataclass(frozen=True)
class Zero(AlphaSolution):
    types = (SurfaceType.VERTICAL,)

    def alpha(self, x):
        return 0.0

    def alpha_x(self, x):
        return 0.0

    def alpha_xx(self, x):
        return 0.0

    def y_speed(self, x):
        return 1.0


@dataclass(frozen=True)
class _Special(AlphaSolution):
    """alpha = 1/(s x + c1), s = scale; characterized by alpha' = -s alpha^2."""

    c1: float

    def _den(self, x):
        d = self.scale * x + self.c1
        if abs(d) <= EPS_DEN:
            raise SingularPoint(f"special {self._roman} solution singular at x = {x}")
        return d

    def alpha(self, x):
        return 1.0 / self._den(x)

    def alpha_x(self, x):
        return -self.scale * self.alpha(x) ** 2

    def alpha_xx(self, x):
        return 2.0 * self.scale * self.scale * self.alpha(x) ** 3

    def singular_x(self):
        return (-self.c1 / self.scale,)


@dataclass(frozen=True)
class SpecialI(_Special):
    """alpha = 1/(x + c1); characterized by alpha' = -alpha^2."""

    _roman = "I"
    types = (SurfaceType.SPECIAL_I,)

    def y_speed(self, x):
        X = x + self.c1   # e^{int 2 alpha} = X^2
        return abs(X) * math.hypot(1.0, X)


@dataclass(frozen=True)
class SpecialII(_Special):
    """alpha = 1/(2x + c1); characterized by alpha' = -2 alpha^2."""

    scale = 2.0
    _roman = "II"
    types = (SurfaceType.SPECIAL_II,)

    def y_speed(self, x):
        # e^{int 2 alpha} = |2x + c1|
        return math.hypot(1.0, self.scale * x + self.c1)


@dataclass(frozen=True)
class General(AlphaSolution):
    """alpha = (x + c1)/((x + c1)^2 + c2), c2 != 0."""

    c1: float
    c2: float
    types = (SurfaceType.TYPE_I, SurfaceType.TYPE_II, SurfaceType.TYPE_III)

    def __post_init__(self):
        if self.c2 == 0.0:
            raise ValueError("general family requires c2 != 0")

    def _parts(self, x):
        X = x + self.c1
        den = X * X + self.c2
        if abs(den) <= EPS_DEN:
            raise SingularPoint(f"general solution singular at x = {x}")
        return X, den

    def alpha(self, x):
        X, den = self._parts(x)
        return X / den

    def alpha_x(self, x):
        X, den = self._parts(x)
        return (self.c2 - X * X) / den**2

    def alpha_xx(self, x):
        X, den = self._parts(x)
        return 2.0 * X * (X * X - 3.0 * self.c2) / den**3

    def y_speed(self, x):
        X = x + self.c1   # e^{int 2 alpha} = |X^2 + c2|
        return math.hypot(X, X * X + self.c2)

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


def _rhs(alpha: float, v: float, H_const: float):
    return v, -(6.0 * alpha * v + 4.0 * alpha**3 + H_const**2 * alpha)


def _rk4_step(alpha: float, v: float, h: float, H_const: float):
    k1a, k1v = _rhs(alpha, v, H_const)
    k2a, k2v = _rhs(alpha + 0.5 * h * k1a, v + 0.5 * h * k1v, H_const)
    k3a, k3v = _rhs(alpha + 0.5 * h * k2a, v + 0.5 * h * k2v, H_const)
    k4a, k4v = _rhs(alpha + h * k3a, v + h * k3v, H_const)
    return (
        alpha + h / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a),
        v + h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
    )


def _sweep(alpha0: float, v0: float, x0: float, x1: float, step: float,
           H_const: float, guard: float = BLOWUP_GUARD) -> Trajectory:
    """The RK4 states (alpha, v) at x0 + i h, i = 0..n, where h is the
    nearest step to `step` that divides [x0, x1]; raises StepLimit, before
    the first step, when that takes more than MAX_RK4_STEPS steps, and
    BlowUp at the first non-finite state or state beyond the guard."""
    steps = abs(x1 - x0) / step
    if not steps <= MAX_RK4_STEPS:
        raise StepLimit(f"the window needs {steps:.6g} RK4 steps, more than "
                        f"the limit of {MAX_RK4_STEPS}")
    n = max(1, round(steps))
    h = (x1 - x0) / n
    alphas, vs = array("d", [alpha0]), array("d", [v0])
    a, v = alpha0, v0
    try:
        for i in range(n):
            a, v = _rk4_step(a, v, h, H_const)
            if not (math.isfinite(a) and math.isfinite(v)) or abs(a) > guard or abs(v) > guard:
                raise BlowUp(x0 + (i + 1) * h)
            alphas.append(a)
            vs.append(v)
    except OverflowError:   # ** raises where * overflows quietly to inf
        raise BlowUp(x0 + (i + 1) * h) from None
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
        xs = array("d", (self.x0 + i * self.h for i in range(len(self))))
        xs[0] = self.x0
        return xs, self.alpha, self.v


def integrate_ivp(alpha0: float, v0: float, x0: float, x1: float,
                  step: float, H_const: float = 0.0,
                  guard: float = BLOWUP_GUARD) -> Trajectory:
    """Classical RK4 on (alpha' = v, v' = -(6 alpha v + 4 alpha^3 + c^2 alpha)).

    Returns the trajectory covering [x0, x1], a sequence of
    (x, PhaseState).  Raises BlowUp when |alpha| or |v| exceeds the
    overflow guard, which signals approach to a singular x of the
    underlying solution.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    return _sweep(alpha0, v0, x0, x1, step, H_const, guard)


class OdeSolutionCurve:
    """A smooth x -> (alpha, alpha_x) obtained by one high-resolution RK4
    sweep, evaluable anywhere in [x0, x1].

    States are stored on a fine lattice; an arbitrary x takes a single
    partial RK4 step from the nearest stored node, so values at nearby
    points share the same integration history and finite differencing
    across them is well conditioned.  Needed for the constant-H != 0 case
    where no closed form exists.
    """

    def __init__(self, alpha0, v0, x0, x1, H_const=0.0):
        self.x0, self.x1 = float(x0), float(x1)
        self.H_const = float(H_const)
        traj = _sweep(alpha0, v0, x0, x1, PROFILE_STEP, H_const)
        self.h, self._alpha, self._v = traj.h, traj.alpha, traj.v

    def state(self, x: float):
        t = (x - self.x0) / self.h if self.h else 0.0   # x0 == x1: one node
        k = min(len(self._alpha) - 1, max(0, math.floor(t)))
        a, v = self._alpha[k], self._v[k]
        dx = x - (self.x0 + k * self.h)
        if dx != 0.0:
            a, v = _rk4_step(a, v, dx, self.H_const)
        return a, v

    def alpha(self, x: float) -> float:
        return self.state(x)[0]

    def alpha_x(self, x: float) -> float:
        return self.state(x)[1]


def fit_solution(alpha0: float, v0: float, x0: float) -> AlphaSolution:
    """The unique closed-form family member with alpha(x0) = alpha0 and
    alpha'(x0) = v0.  Total on the phase plane; raises EvaluationError
    when alpha0^2 overflows."""
    if alpha0 == 0.0 and abs(v0) <= EPS_FIT:
        return Zero()
    try:
        a2 = alpha0**2
    except OverflowError as exc:
        raise EvaluationError(f"(alpha, v) = ({alpha0}, {v0})", exc) from exc
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


def conserved_quantity(s: PhaseState) -> float:
    """The first integral C = w(3w + 2)/((3w + 1)^2 alpha^2), w = 2 alpha^2/(3v).

    Constant along general-family orbits; raises DegenerateBranch on the
    excluded loci w in {0, -1/3, -2/3} (the special families) and at v = 0
    or alpha = 0 where w is undefined or zero.
    """
    if s.v == 0.0 or s.alpha == 0.0:
        raise DegenerateBranch("w = 2 alpha^2 / (3 v) undefined or zero")
    w = 2.0 * s.alpha**2 / (3.0 * s.v)
    for bad in (-1.0 / 3.0, -2.0 / 3.0):
        if abs(w - bad) <= 1e-12 * max(1.0, abs(w)):
            raise DegenerateBranch(f"degenerate branch w = {bad}")
    denom = (3.0 * w + 1.0) ** 2 * s.alpha**2
    if denom == 0.0:
        raise DegenerateBranch("w = -1/3 branch")
    return w * (3.0 * w + 2.0) / denom


class PhaseField(_Rows):
    """The direction field on a grid, kept as the columns alpha, v and dv;
    [k] is (PhaseState, (dalpha, dv)) with dalpha = v."""

    def __init__(self, alpha: list, v: list, dv: list):
        self.alpha, self.v, self.dv = alpha, v, dv

    def __len__(self):
        return len(self.alpha)

    def _row(self, k):
        return PhaseState(self.alpha[k], self.v[k]), (self.v[k], self.dv[k])

    def columns(self):
        """The columns alpha, v, dalpha, dv."""
        return self.alpha, self.v, self.v, self.dv


def phase_field(alpha_range, v_range, nx: int, nv: int) -> PhaseField:
    """Sample the phase-plane direction field V = (v, -(6 alpha v + 4 alpha^3)),
    the Lienard operator at c = 0, on a regular nx x nv grid; (0, 0) is its
    only zero.  One _rhs call per alpha row evaluates the whole v column.

    Returns a row-major sequence of (PhaseState, (dalpha, dv)).  Raises
    EvaluationError, naming the first (alpha, v) in row-major order, where
    a value overflows or is not finite.
    """
    if nx < 2 or nv < 2:
        raise ValueError("need at least a 2 x 2 grid")
    a_lo, a_hi = alpha_range
    v_lo, v_hi = v_range
    alphas = [a_lo + (a_hi - a_lo) * i / (nx - 1) for i in range(nx)]
    vs = [v_lo + (v_hi - v_lo) * j / (nv - 1) for j in range(nv)]
    v_column = np.array(vs)
    v_finite = np.isfinite(v_column)
    dvs = []
    for a in alphas:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                dv = _rhs(a, v_column, 0.0)[1]
        except OverflowError as exc:
            raise EvaluationError(f"(alpha, v) = ({a}, {vs[0]})", exc) from exc
        bad = ~(v_finite & np.isfinite(dv))
        if bad.any():
            j = int(np.argmax(bad))
            raise EvaluationError(f"(alpha, v) = ({a}, {vs[j]})",
                                  "the field value is not finite")
        dvs += dv.tolist()
    return PhaseField([a for a in alphas for _ in vs], vs * nx, dvs)
