"""Shared numerical utilities: the smooth function of one variable
YFunction and of two, Field2D, cumulative Simpson antiderivatives on a
lattice, the sampled interval Window, memoization, finite-difference
derivatives and monotone inversion.

A Field2D is read one y-line at a time: its x-profile at each y is a
YFunction in x, so every x-partial anywhere follows YFunction's one
finite-difference rule, and y enters as a parameter, as c1(y) and c2(y)
do in the paper.  Callers read the derivatives they are given."""
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
# nodes either side of a lattice's base (16 to 32 MB a side); an --alpha0 window
# at the RK4 step limit, 2e6 profile steps of 1/1024, needs just under it
MAX_LATTICE_NODES = 1_000_000


def simpson_panel(f, lo: float, hi: float, f_lo: float) -> float:
    """Simpson's rule on [lo, hi], given f_lo = f(lo)."""
    mid = 0.5 * (lo + hi)
    return (hi - lo) / 6.0 * (f_lo + 4.0 * f(mid) + f(hi))


def memoized(f, shared: bool = False):
    """The one-argument callable f, evaluated once per distinct argument, an
    ndarray by its dtype, shape and bits (-0.0 is not 0.0, nor [t] t), or,
    when shared, once at the first argument for every argument."""
    memo = {}

    def once(t):
        key = (None if shared else (t.dtype, t.shape, t.tobytes())
               if isinstance(t, np.ndarray) else t)
        v = memo.get(key)
        if v is None:
            v = memo[key] = f(t)
        return v

    return once


class CumulativeIntegral:
    """Antiderivative F(x) = int_{x_base}^{x} f, by composite Simpson on
    the lattice x_base + n h, h = 1 / PANELS_PER_UNIT.

    F and f at the nodes built so far sit in one pair of arrays, which
    the float call and over both read.  The lattice grows on demand, in
    either direction, just far enough to hold the node below each query.
    Every new node and panel midpoint is evaluated exactly once and the
    panel sums are accumulated by np.cumsum.  A query on a node returns
    its cumulative sum; any other x costs one residual Simpson panel from
    the node below, whose integrand value is stored.  A query more than
    MAX_LATTICE_NODES nodes from x_base, or at a non-finite x, raises
    QuadratureFailure before the lattice grows.  Errors call the variable
    var, as YFunction's do.  An integrand that takes arrays (arrays=True)
    is called once per growth.
    """

    def __init__(self, f, x_base: float, var: str = "x", arrays: bool = False):
        self.f = f
        self.x_base = float(x_base)
        self.var = var
        self._values = expr_mod.pointwise(f, None, f if arrays else None)   # f at an array
        self.h = 1.0 / PANELS_PER_UNIT
        # F and f at nodes _lo ... _lo + len - 1, node 0 at x_base, built at
        # the nodes in _built; the rest is room to grow into
        self._F = self._fx = np.empty(0)
        self._lo, self._built = 0, range(0)

    def _grow(self, n: int) -> None:
        """Extend the lattice to node n (signed)."""
        if not self._built:
            f0 = float(self.f(self.x_base))
            if not math.isfinite(f0):
                raise QuadratureFailure(
                    f"non-finite integrand at {self.var} = {self.x_base}")
            self._F, self._fx = np.array([[0.0], [f0]])
            self._built = range(1)
        if n in (b := self._built):
            return
        up = n >= b.stop
        k = b[-1] if up else b[0]   # the end node n lies beyond
        nodes = self.x_base + np.arange(abs(k), abs(n) + 1) * (self.h if up else -self.h)
        f_mid, f_node = self._pairs(0.5 * (nodes[:-1] + nodes[1:]), nodes[1:])
        f_near = np.concatenate(([self._fx[k - self._lo]], f_node[:-1]))
        panels = (self.h / 6.0) * (f_near + 4.0 * f_mid + f_node)
        cum = np.cumsum(np.concatenate(([self._F[k - self._lo]], panels if up else -panels)))
        if not np.isfinite(cum).all():
            raise QuadratureFailure(
                f"non-finite antiderivative between {self.var} = {nodes[0]} and "
                f"{self.var} = {nodes[-1]}")
        self._built = range(min(b.start, n), max(b.stop, n + 1))
        if not 0 <= n - self._lo < self._F.size:   # full: room for half as many again each end
            lo = self._built.start - len(self._built) // 2
            grown = np.empty((2, 2 * len(self._built)))
            for row, v in zip(grown, (self._F, self._fx)):
                row[b.start - lo:b.stop - lo] = v[b.start - self._lo:b.stop - self._lo]
            self._F, self._fx, self._lo = *grown, lo
        i = (k + 1 if up else n) - self._lo   # the lowest new node
        new = slice(i, i + f_node.size)
        self._F[new], self._fx[new] = (cum[1:], f_node) if up else (cum[:0:-1], f_node[::-1])

    def _pairs(self, mid, hi):   # f at mid[i], then at hi[i], for each i in turn
        pts = np.empty(2 * mid.size)
        pts[0::2], pts[1::2] = mid, hi
        vals = self._values(pts)
        return vals[0::2], vals[1::2]

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
        if n not in self._built:
            if abs(n) > MAX_LATTICE_NODES:
                raise self._past_limit(x, t)
            self._grow(n)
        i, a = n - self._lo, self.x_base + n * self.h
        if x == a:
            return self._F.item(i)
        out = self._F.item(i) + simpson_panel(self.f, a, x, self._fx.item(i))
        if not math.isfinite(out):
            raise QuadratureFailure(f"non-finite antiderivative at {self.var} = {x}")
        return out

    def over(self, xs):
        """The float call at a float, or its bits and first error over an array:
        one growth to the farthest node each side, then one residual panel."""
        if not isinstance(xs, np.ndarray):
            return self(xs)
        if not (x := xs.ravel()).size:
            return np.zeros(xs.shape)
        with np.errstate(all="ignore"):
            t = (x - self.x_base) / self.h
            n = np.floor(t)
        if (i := first_where(~(np.abs(n) <= MAX_LATTICE_NODES), np.arange(x.size))) is not None:
            raise self._past_limit(x[i].item(), t[i].item())   # past the last node, inf or nan
        for end in (n.max(), n.min()):
            self._grow(int(end))
        k = n.astype(np.intp) - self._lo
        F, a = self._F[k], self.x_base + n * self.h
        if (off := x != a).any():
            lo, hi = a[off], x[off]
            f_mid, f_hi = self._pairs(0.5 * (lo + hi), hi)
            F[off] += (hi - lo) / 6.0 * (self._fx[k[off]] + 4.0 * f_mid + f_hi)
            if (bad := first_where(~np.isfinite(F), x)) is not None:
                raise QuadratureFailure(f"non-finite antiderivative at {self.var} = {bad}")
        return F.reshape(xs.shape)


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


def first_where(bad, x):
    """The first x, in order, at which bad holds, or None; bad and x are a
    bool and a number, or arrays of one shape."""
    if isinstance(bad, np.ndarray):
        return np.ravel(x)[bad.argmax()] if bad.any() else None
    return x if bad else None


def central_d1(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def central_d2(f, x: float, h: float) -> float:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


class YFunction:
    """A smooth real function of one variable with its first and second
    derivatives, .d and .d2.

    A derivative that is not given is settled when the function is built:
    d by a central difference of f at FD_STEP; d2 by a central difference
    of d at FD_STEP when d is given, else of f at FD_STEP_D2.  A domain or
    overflow error raises EvaluationError naming the point ("y = 0.5").
    arrays, for over: True where f, df and d2f take arrays too, else their array forms."""

    def __init__(self, f, df=None, d2f=None, var: str = "y", arrays=None):
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
        self.arrays = (f, df, d2f) if arrays is True else arrays

    def _at(self, fn, y: float) -> float:
        try:
            return float(fn(y))
        except (ValueError, ArithmeticError) as exc:
            raise EvaluationError(f"{self.var} = {y}", exc) from exc

    def __call__(self, y: float) -> float:
        return self._at(self.f, y)

    def over(self, ys, order: int = 0):
        """f, d or d2 (order 0, 1 or 2) at a float, or over an array by pointwise."""
        call = (self.__call__, self.d, self.d2)[order]
        return expr_mod.pointwise(call, None, self.arrays and self.arrays[order])(ys)

    def d(self, y: float) -> float:
        return self._at(self.df, y)

    def d2(self, y: float) -> float:
        return self._at(self.d2f, y)

    @staticmethod
    def constant(c: float) -> "YFunction":
        return YFunction(lambda y: c, lambda y: 0.0, lambda y: 0.0, arrays=True)

    @staticmethod
    def from_expr(src: str, var: str = "y") -> "YFunction":
        """The parsed expression, with symbolic first and second derivatives."""
        ast = expr_mod.parse_expr(src, var=var)
        trees = (ast, (dast := ast.deriv()), dast.deriv())   # array code compiles on first use
        return YFunction(*(t.eval for t in trees), var,
                         [lambda y, t=t: t.eval_array(y) for t in trees])


class Field2D:
    """A smooth function of (x, y), read one y-line at a time: line(y) is
    the x-profile at y, a YFunction in x, built once per y, or once for
    every y when the field is y_free.

    f and its x-partials dx and dxx are the line's f, d and d2 over x, a
    float or an x-row (YFunction.over).  dy is 0.0 for a y_free field,
    else a central difference across lines at FD_STEP."""

    def __init__(self, line, y_free: bool = False):
        self.line = memoized(line, y_free)
        self.y_free = y_free

    def __call__(self, x, y: float):
        return self.line(y).over(x)

    def dx(self, x, y: float):
        return self.line(y).over(x, 1)

    def dxx(self, x, y: float):
        return self.line(y).over(x, 2)

    def dy(self, x, y: float):
        if self.y_free:
            return 0.0
        return central_d1(lambda s: self(x, s), y, FD_STEP)

    @staticmethod
    def of(f) -> "Field2D":
        """The bare f(x, y), with every partial a difference."""
        return Field2D(lambda y: YFunction(lambda x: f(x, y), var="x"))

    @staticmethod
    def constant(c: float) -> "Field2D":
        return Field2D(lambda y: YFunction.constant(c), y_free=True)

    @staticmethod
    def from_x_profile(alpha_of_x, alpha_x_of_x) -> "Field2D":
        """A y-independent field from an x-profile that takes arrays of x
        too (e.g. the RK4 solution curve of a constant H != 0), memoized
        in x, as every y reads the same x-row."""
        return Field2D(lambda y: YFunction(memoized(alpha_of_x), memoized(alpha_x_of_x),
                                           var="x", arrays=True), y_free=True)

    @staticmethod
    def from_model(m) -> "Field2D":
        """alpha of an AlphaModel, one slice_at per y, with its analytic
        x-partial (and YFunction's central difference of that); each takes
        an x-row."""
        def line(y):
            sol = m.slice_at(y)
            return YFunction(sol.alpha, sol.alpha_x, var="x", arrays=True)
        return Field2D(line)


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
    """The limit L of values[k] = L + c_1 h_k + c_2 h_k^2 + ..., where the
    offsets h_k shrink by RICHARDSON_RATIO each step.

    Standard Richardson extrapolation: column j of the table combines
    neighbours of column j - 1 with weights RICHARDSON_RATIO^j and -1 to
    remove the h^j term, so n values remove every term up to h^(n-1).
    """
    tab, r = np.asarray(values, dtype=float), 1.0
    while tab.size > 1:
        r *= RICHARDSON_RATIO
        tab = (r * tab[1:] - tab[:-1]) / (r - 1.0)
    return float(tab[0])
