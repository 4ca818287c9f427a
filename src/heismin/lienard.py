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

import math
from dataclasses import dataclass

from .errors import BlowUp, DegenerateBranch, SingularPoint
from .numerics import central_d1, central_d2

EPS_DEN = 1e-12   # singular-denominator guard
EPS_FIT = 1e-10   # branch tolerance in fit_solution
BLOWUP_GUARD = 1e12


@dataclass(frozen=True)
class PhaseState:
    """A point (alpha, v) of the phase plane, v = alpha_x."""

    alpha: float
    v: float


class AlphaSolution:
    """Base class of the closed-form solution families (c = 0)."""

    def alpha(self, x: float) -> float:
        raise NotImplementedError

    def alpha_x(self, x: float) -> float:
        raise NotImplementedError

    def alpha_xx(self, x: float) -> float:
        raise NotImplementedError

    def singular_x(self):
        """x-values where the closed form blows up (possibly empty)."""
        return ()


@dataclass(frozen=True)
class Zero(AlphaSolution):
    def alpha(self, x):
        return 0.0

    def alpha_x(self, x):
        return 0.0

    def alpha_xx(self, x):
        return 0.0


@dataclass(frozen=True)
class SpecialI(AlphaSolution):
    """alpha = 1/(x + c1); characterized by alpha' = -alpha^2."""

    c1: float

    def _den(self, x):
        d = x + self.c1
        if abs(d) <= EPS_DEN:
            raise SingularPoint(f"special I solution singular at x = {x}")
        return d

    def alpha(self, x):
        return 1.0 / self._den(x)

    def alpha_x(self, x):
        return -self.alpha(x) ** 2

    def alpha_xx(self, x):
        return 2.0 * self.alpha(x) ** 3

    def singular_x(self):
        return (-self.c1,)


@dataclass(frozen=True)
class SpecialII(AlphaSolution):
    """alpha = 1/(2x + c1); characterized by alpha' = -2 alpha^2."""

    c1: float

    def _den(self, x):
        d = 2.0 * x + self.c1
        if abs(d) <= EPS_DEN:
            raise SingularPoint(f"special II solution singular at x = {x}")
        return d

    def alpha(self, x):
        return 1.0 / self._den(x)

    def alpha_x(self, x):
        return -2.0 * self.alpha(x) ** 2

    def alpha_xx(self, x):
        return 8.0 * self.alpha(x) ** 3

    def singular_x(self):
        return (-self.c1 / 2.0,)


@dataclass(frozen=True)
class General(AlphaSolution):
    """alpha = (x + c1)/((x + c1)^2 + c2), c2 != 0."""

    c1: float
    c2: float

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

    def singular_x(self):
        if self.c2 > 0:
            return ()
        r = math.sqrt(-self.c2)
        return (-self.c1 - r, -self.c1 + r)


def lienard_residual(f, x: float, H_const: float = 0.0,
                     fd_step: float = 1e-4) -> float:
    """Residual f'' + 6 f f' + 4 f^3 + H_const^2 f at x.

    Derivatives are analytic when f is an AlphaSolution, otherwise
    central finite differences of the plain callable.
    """
    if isinstance(f, AlphaSolution):
        a, da, dda = f.alpha(x), f.alpha_x(x), f.alpha_xx(x)
    else:
        a = f(x)
        da = central_d1(f, x, fd_step)
        dda = central_d2(f, x, fd_step)
    return dda + 6.0 * a * da + 4.0 * a**3 + H_const**2 * a


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


def integrate_ivp(alpha0: float, v0: float, x0: float, x1: float,
                  step: float, H_const: float = 0.0,
                  guard: float = BLOWUP_GUARD):
    """Classical RK4 on (alpha' = v, v' = -(6 alpha v + 4 alpha^3 + c^2 alpha)).

    Returns the trajectory as a list of (x, PhaseState) covering [x0, x1].
    Raises BlowUp when |alpha| or |v| exceeds the overflow guard, which
    signals approach to a singular x of the underlying solution.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    n = max(1, round(abs(x1 - x0) / step))
    h = (x1 - x0) / n
    out = [(x0, PhaseState(alpha0, v0))]
    a, v = alpha0, v0
    for i in range(n):
        a, v = _rk4_step(a, v, h, H_const)
        x = x0 + (i + 1) * h
        if not (math.isfinite(a) and math.isfinite(v)) or abs(a) > guard or abs(v) > guard:
            raise BlowUp(x)
        out.append((x, PhaseState(a, v)))
    return out


class OdeSolutionCurve:
    """A smooth x -> (alpha, alpha_x) obtained by one high-resolution RK4
    sweep, evaluable anywhere in [x0, x1].

    States are stored on a fine lattice; an arbitrary x takes a single
    partial RK4 step from the nearest stored node, so values at nearby
    points share the same integration history and finite differencing
    across them is well conditioned.  Needed for the constant-H != 0 case
    where no closed form exists.
    """

    def __init__(self, alpha0, v0, x0, x1, H_const=0.0, substep=1e-4):
        self.x0, self.x1 = float(x0), float(x1)
        self.H_const = float(H_const)
        n = max(1, round(abs(x1 - x0) / substep))
        self.h = (x1 - x0) / n
        states = [(alpha0, v0)]
        a, v = alpha0, v0
        for _ in range(n):
            a, v = _rk4_step(a, v, self.h, H_const)
            if abs(a) > BLOWUP_GUARD or abs(v) > BLOWUP_GUARD:
                raise BlowUp(x0 + len(states) * self.h)
            states.append((a, v))
        self._states = states

    def state(self, x: float):
        t = (x - self.x0) / self.h
        k = min(len(self._states) - 1, max(0, math.floor(t)))
        a, v = self._states[k]
        dx = x - (self.x0 + k * self.h)
        if dx != 0.0:
            a, v = _rk4_step(a, v, dx, self.H_const)
        return a, v

    def alpha(self, x: float) -> float:
        return self.state(x)[0]

    def alpha_x(self, x: float) -> float:
        return self.state(x)[1]


def fit_solution(alpha0: float, v0: float, x0: float,
                 eps_fit: float = EPS_FIT) -> AlphaSolution:
    """The unique closed-form family member with alpha(x0) = alpha0 and
    alpha'(x0) = v0.  Total on the phase plane."""
    if alpha0 == 0.0 and abs(v0) <= eps_fit:
        return Zero()
    den = v0 + 2.0 * alpha0**2
    if abs(den) <= eps_fit * max(1.0, alpha0**2):
        # alpha' = -2 alpha^2 characterizes special type II
        return SpecialII(c1=1.0 / alpha0 - 2.0 * x0)
    if alpha0 == 0.0:
        # zero crossing of a general solution: X(x0) = 0
        return General(c1=-x0, c2=1.0 / v0)
    X0 = alpha0 / den
    c1 = X0 - x0
    # X0/alpha0 simplifies to 1/den, which stays accurate when alpha0 is tiny
    c2 = 1.0 / den - X0 * X0
    if abs(c2) <= eps_fit * max(1.0, X0 * X0):
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


def phase_vector(alpha: float, v: float):
    """The phase-plane direction field V = (v, -(6 alpha v + 4 alpha^3))."""
    return v, -(6.0 * alpha * v + 4.0 * alpha**3)


def phase_field(alpha_range, v_range, nx: int, nv: int):
    """Sample V on a regular nx x nv grid; (0, 0) is its only zero.

    Returns a row-major list of (PhaseState, (dalpha, dv)).
    """
    if nx < 2 or nv < 2:
        raise ValueError("need at least a 2 x 2 grid")
    a_lo, a_hi = alpha_range
    v_lo, v_hi = v_range
    out = []
    for i in range(nx):
        a = a_lo + (a_hi - a_lo) * i / (nx - 1)
        for j in range(nv):
            v = v_lo + (v_hi - v_lo) * j / (nv - 1)
            out.append((PhaseState(a, v), phase_vector(a, v)))
    return out
