"""Shared numerical utilities: the smooth function of one variable
YFunction, cumulative Simpson antiderivatives on a lattice, the sampled
interval Window, memoization, finite-difference derivatives and
monotone inversion.  Its central differences and steps are the only
finite-difference fallback: a YFunction, Field2D or MetricRep built
without a derivative gets one from here when it is built, and callers
read the derivatives they are given."""
from __future__ import annotations

import math

import numpy as np

from . import expr as expr_mod
from .errors import EvaluationError, QuadratureFailure

EPS_DEN = 1e-12      # singular-denominator guard
FD_STEP = 1e-6       # central first differences
FD_STEP_D2 = 1e-4    # second differences (lienard_residual): error ~ eps / h^2
INVERT_TOL = 1e-13   # relative Newton step at which inversion stops
INVERT_MAX_EXPAND = 60
RICHARDSON_RATIO = 2.0   # offset ratio of richardson_limit's sequences
PANELS_PER_UNIT = 512    # Simpson panels per unit length of every quadrature lattice
# nodes either side of a lattice's base (about 64 MB a side); an --alpha0
# window at the RK4 step limit needs 102,400
MAX_LATTICE_NODES = 1_000_000


def simpson_panel(f, lo: float, hi: float, f_lo: float) -> float:
    """Simpson's rule on [lo, hi], given f_lo = f(lo)."""
    mid = 0.5 * (lo + hi)
    return (hi - lo) / 6.0 * (f_lo + 4.0 * f(mid) + f(hi))


def memoized(f):
    """The one-argument callable f, evaluated once per distinct argument."""
    memo = {}

    def once(t):
        v = memo.get(t)
        if v is None:
            v = memo[t] = f(t)
        return v

    return once


class CumulativeIntegral:
    """Antiderivative F(x) = int_{x_base}^{x} f, by composite Simpson on
    the lattice x_base + n h, h = 1 / panels_per_unit.

    The lattice grows on demand, in either direction, just far enough to
    hold the node below each query.  Every new node and panel midpoint is
    evaluated exactly once and the panel sums are accumulated by
    np.cumsum.  A query on a node returns its cumulative sum; any other x
    costs one residual Simpson panel from the node below, whose integrand
    value is cached.  A query more than MAX_LATTICE_NODES nodes from
    x_base, or at a non-finite x, raises QuadratureFailure before the
    lattice grows.  Errors call the variable var, as YFunction's do.
    """

    def __init__(self, f, x_base: float, panels_per_unit: int = PANELS_PER_UNIT,
                 var: str = "x"):
        self.f = f
        self.x_base = float(x_base)
        self.var = var
        self.h = 1.0 / float(panels_per_unit)
        # node i of side 0 sits at x_base + i h, of side 1 at x_base - i h;
        # both hold F and f at their nodes, from node 0 = x_base on
        self._F = ([], [])
        self._fx = ([], [])

    def _grow(self, n: int) -> None:
        """Extend the lattice to node n (signed)."""
        if not self._F[0]:
            f0 = float(self.f(self.x_base))
            if not math.isfinite(f0):
                raise QuadratureFailure(
                    f"non-finite integrand at {self.var} = {self.x_base}")
            for side in (0, 1):
                self._F[side].append(0.0)
                self._fx[side].append(f0)
        side = 0 if n >= 0 else 1
        F, fx = self._F[side], self._fx[side]
        k, m = len(F) - 1, abs(n)
        if m <= k:
            return
        step = self.h if side == 0 else -self.h
        nodes = self.x_base + np.arange(k, m + 1) * step
        pts = np.empty(2 * (m - k))
        pts[0::2] = 0.5 * (nodes[:-1] + nodes[1:])
        pts[1::2] = nodes[1:]
        # far end first: a lattice that the integrand queries in turn then
        # grows once instead of once per point
        f = self.f
        vals = np.array([f(t) for t in reversed(pts.tolist())], dtype=float)[::-1]
        f_mid, f_node = vals[0::2], vals[1::2]
        f_near = np.concatenate(([fx[k]], f_node[:-1]))
        panels = (self.h / 6.0) * (f_near + 4.0 * f_mid + f_node)
        cum = np.cumsum(np.concatenate(([F[k]], panels if side == 0 else -panels)))
        if not np.isfinite(cum).all():
            raise QuadratureFailure(
                f"non-finite antiderivative between {self.var} = {nodes[0]} and "
                f"{self.var} = {nodes[-1]}")
        F.extend(cum[1:].tolist())
        fx.extend(f_node.tolist())

    def _past_limit(self, x: float, t: float) -> QuadratureFailure:
        return QuadratureFailure(
            f"{self.var} = {x} is {abs(t):.6g} lattice nodes from {self.var} = "
            f"{self.x_base}, more than the limit of {MAX_LATTICE_NODES}")

    def __call__(self, x: float) -> float:
        t = (x - self.x_base) / self.h
        try:
            n = math.floor(t)
        except (OverflowError, ValueError):   # t is inf or nan
            raise self._past_limit(x, t) from None
        side, i = (0, n) if n >= 0 else (1, -n)
        F = self._F[side]
        if i >= len(F):
            if i > MAX_LATTICE_NODES:
                raise self._past_limit(x, t)
            self._grow(n)
        a = self.x_base + n * self.h
        if x == a:
            return F[i]
        out = F[i] + simpson_panel(self.f, a, x, self._fx[side][i])
        if not math.isfinite(out):
            raise QuadratureFailure(f"non-finite antiderivative at {self.var} = {x}")
        return out


class Window(tuple):
    """An interval (start, stop) in the order it was given.

    Samples run from start to stop.  Membership, the width and every
    cumulative-quadrature base read the sorted bounds lo <= hi, with -0.0
    below 0.0, so swapping the ends reverses the samples and changes
    nothing else."""

    def __new__(cls, start, stop):
        w = super().__new__(cls, (start, stop))
        w.reversed = (stop, math.copysign(1.0, stop)) < (start, math.copysign(1.0, start))
        w.lo, w.hi = (stop, start) if w.reversed else (start, stop)
        w.width = w.hi - w.lo
        return w

    def holds(self, x: float, margin: float) -> bool:
        return self.lo - margin <= x <= self.hi + margin

    def linspace(self, n: int) -> list:
        """n evenly spaced samples from start to stop; [lo] when n = 1."""
        # lo + 0.0 can only turn -0.0 into 0.0, as np.linspace does anyway
        return self.inner(n, 0.0)

    def inner(self, n: int, pad: float) -> list:
        """linspace with each end moved pad, at most half the width, inward."""
        pad = min(pad, self.width / 2.0)
        xs = np.linspace(self.lo + pad, self.hi - pad, n).tolist()
        return xs[::-1] if self.reversed else xs


def central_d1(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def central_d2(f, x: float, h: float) -> float:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def fd_partial(f, axis: int):
    """The partial of f(x, y) in x (axis 0) or y (axis 1), as a central
    difference at FD_STEP."""
    if axis == 0:
        return lambda x, y: central_d1(lambda s: f(s, y), x, FD_STEP)
    return lambda x, y: central_d1(lambda s: f(x, s), y, FD_STEP)


class YFunction:
    """A smooth real function of one variable with its first and second
    derivatives, .d and .d2.

    A derivative that is not given is settled when the function is built:
    d by a central difference of f at FD_STEP; d2 by a central difference
    of d at FD_STEP when d is given, else of f at FD_STEP_D2.  A domain or
    overflow error raises EvaluationError naming the point ("y = 0.5")."""

    def __init__(self, f, df=None, d2f=None, var: str = "y"):
        self.f = f
        self.var = var
        # the fallbacks close over f and df, not self: a cycle would keep
        # each function and its lattices alive until the cyclic collector runs
        if d2f is None:
            d2f = ((lambda y: central_d1(df, y, FD_STEP)) if df is not None
                   else (lambda y: central_d2(f, y, FD_STEP_D2)))
        if df is None:
            df = lambda y: central_d1(f, y, FD_STEP)
        self.df = df
        self.d2f = d2f

    def _at(self, fn, y: float) -> float:
        try:
            return float(fn(y))
        except (ValueError, ArithmeticError) as exc:
            raise EvaluationError(f"{self.var} = {y}", exc) from exc

    def __call__(self, y: float) -> float:
        return self._at(self.f, y)

    def d(self, y: float) -> float:
        return self._at(self.df, y)

    def d2(self, y: float) -> float:
        return self._at(self.d2f, y)

    @staticmethod
    def constant(c: float) -> "YFunction":
        return YFunction(lambda y: c, lambda y: 0.0, lambda y: 0.0)

    @staticmethod
    def from_expr(src: str, var: str = "y") -> "YFunction":
        """The parsed expression, with symbolic first and second derivatives."""
        ast = expr_mod.parse_expr(src, var=var)
        dast = ast.deriv()
        return YFunction(ast.eval, dast.eval, dast.deriv().eval, var)


def invert_monotone(g, target: float, lo: float, hi: float):
    """Solve g(s) = target for strictly monotone g with derivative g.d: expand
    the bracket as needed, then take Newton steps, bisecting where one leaves it."""
    glo, ghi = g(lo), g(hi)
    increasing = ghi >= glo
    span = hi - lo
    k = 0
    while not (min(glo, ghi) <= target <= max(glo, ghi)):
        if (target > max(glo, ghi)) == increasing:
            hi += span
            ghi = g(hi)
        else:
            lo -= span
            glo = g(lo)
        span *= 2.0
        k += 1
        if k > INVERT_MAX_EXPAND:
            raise ValueError("failed to bracket monotone inverse")
    s = 0.5 * (lo + hi)
    for _ in range(200):
        gs, slope = g(s), g.d(s)
        step = (gs - target) / slope if slope else math.inf
        if abs(step) < INVERT_TOL * max(1.0, abs(s)):
            return s - step
        lo, hi = (s, hi) if (gs < target) == increasing else (lo, s)
        s = s - step if lo < s - step < hi else 0.5 * (lo + hi)
    return s


def richardson_limit(values):
    """Extrapolate the limit of a geometrically-refined sequence.

    values[k] corresponds to offsets shrinking by RICHARDSON_RATIO each
    step; one round of Richardson extrapolation per column.
    """
    tab = [np.asarray(values, dtype=float)]
    while len(tab[-1]) > 1:
        prev = tab[-1]
        tab.append((RICHARDSON_RATIO * prev[1:] - prev[:-1]) / (RICHARDSON_RATIO - 1.0))
    return float(tab[-1][0])
