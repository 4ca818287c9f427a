"""Integrability machinery: build the induced-metric representation
(a, b) from (alpha, H, k, h) by quadrature, and check the compatible-
coordinate integrability equations numerically,

    r1 = -a_x + a b_x/b - H alpha / sqrt(1 + alpha^2)
    r2 = -b_x/b - 2 alpha - alpha alpha_x / (1 + alpha^2)
    r3 = a H_x + b H_y - (alpha_xx + 6 alpha alpha_x + 4 alpha^3
                          + alpha H^2) / sqrt(1 + alpha^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import EvaluationError, QuadratureFailure, SingularPoint
from .lienard import _rhs
from .models import MetricRep, exp_of
from .numerics import CumulativeIntegral, YFunction, fd_partial, memoized


@dataclass
class Field2D:
    """A scalar field on a rectangle with its first partials and dxx, the
    second x-partial that the residual checkers read.

    A partial that is not given is set, when the field is built, to a
    central difference of the field; dxx is always a difference, by
    YFunction's rule (of dx when dx is given, else a second difference of
    the field), so the checkers never take it from a closed form.  y_free
    marks a field that does not depend on y, so quadrature along x can
    share one line.
    """

    f: Callable[[float, float], float]
    dx: Optional[Callable[[float, float], float]] = None
    dy: Optional[Callable[[float, float], float]] = None
    y_free: bool = False
    dxx: Callable[[float, float], float] = field(init=False, repr=False)

    def __post_init__(self):
        f, dx = self.f, self.dx
        self.dxx = lambda x, y: YFunction(
            lambda s: f(s, y), None if dx is None else (lambda s: dx(s, y)),
            var="x").d2(x)
        if self.dx is None:
            self.dx = fd_partial(f, 0)
        if self.dy is None:
            self.dy = fd_partial(f, 1)

    def __call__(self, x: float, y: float) -> float:
        return float(self.f(x, y))

    @staticmethod
    def constant(c: float) -> "Field2D":
        return Field2D(lambda x, y: c, dx=lambda x, y: 0.0, dy=lambda x, y: 0.0,
                       y_free=True)

    @staticmethod
    def from_model(m) -> "Field2D":
        """Field view of an AlphaModel, with analytic x-partial."""
        return Field2D(f=lambda x, y: m.slice_at(y).alpha(x),
                       dx=lambda x, y: m.slice_at(y).alpha_x(x))

    @staticmethod
    def from_x_profile(alpha_of_x, alpha_x_of_x) -> "Field2D":
        """A y-independent field from an x-profile (e.g. an RK4 solution
        curve for the constant-H case with no closed form)."""
        return Field2D(
            f=lambda x, y: alpha_of_x(x),
            dx=lambda x, y: alpha_x_of_x(x),
            dy=lambda x, y: 0.0,
            y_free=True,
        )


def metric_from_alpha_H(alpha: Field2D, H: Field2D, k: YFunction,
                        h: YFunction, x_base: float) -> MetricRep:
    """Solve the first two integrability equations by quadrature:

        b = e^{k(y)} e^{-int 2 alpha dx} / sqrt(1 + alpha^2)
        a = e^{-int 2 alpha dx} / sqrt(1 + alpha^2)
            * (h(y) - int H alpha e^{int 2 alpha dx} dx)

    with both anti-derivatives cumulative from x_base (lattice Simpson,
    one pair of lattices per y-line).  When neither alpha nor H depends on
    y, every y shares a single line.
    """
    cache = {}
    shared = alpha.y_free and H.y_free
    ek = exp_of(k)

    def line(y: float):
        """The y-line's e^{-I} / sqrt(1 + alpha^2) and J, each memoized in
        x: a and b and their x-differences revisit the same points."""
        key = None if shared else y
        if key not in cache:
            al = memoized(lambda x: alpha(x, y))
            I = CumulativeIntegral(lambda x: 2.0 * al(x), x_base)
            J = CumulativeIntegral(lambda x: H(x, y) * al(x) * math.exp(I(x)), x_base)

            def common(x):
                a = al(x)
                val = math.exp(-I(x)) / math.sqrt(1.0 + a * a)
                if not math.isfinite(val):
                    raise QuadratureFailure(f"non-finite integrand at ({x}, {y})")
                return val

            cache[key] = (memoized(common), memoized(J))
        return cache[key]

    def b_fn(x, y):
        common, _ = line(y)
        return ek(y) * common(x)

    def a_fn(x, y):
        common, J = line(y)
        return common(x) * (h(y) - J(x))

    return MetricRep(a=a_fn, b=b_fn)


def expand_grid(grid):
    """The points of the mesh grid = (xs, ys), x varying fastest."""
    xs, ys = grid
    return [(float(x), float(y)) for y in ys for x in xs]


@dataclass
class ResidualStats:
    max: dict
    mean: dict

    def overall_max(self) -> float:
        return max(self.max.values())


def integrability_residual(alpha: Field2D, H: Field2D, rep: MetricRep,
                           grid) -> ResidualStats:
    """Max and mean absolute residuals of the three integrability
    equations over the grid.  The grid must stay a couple of
    finite-difference steps away from singular loci."""
    r = {1: [], 2: [], 3: []}
    try:
        for x, y in expand_grid(grid):
            al = alpha(x, y)
            al_x = alpha.dx(x, y)
            al_xx = alpha.dxx(x, y)
            Hv = H(x, y)
            a = rep.a(x, y)
            b = rep.b(x, y)
            if b == 0.0:
                raise SingularPoint(f"metric coefficient b = 0 at (x, y) = ({x}, {y})")
            a_x = rep.a_x(x, y)
            b_x = rep.b_x(x, y)
            H_x = H.dx(x, y)
            H_y = H.dy(x, y)
            root = math.sqrt(1.0 + al * al)
            r[1].append(-a_x + a * b_x / b - Hv * al / root)
            r[2].append(-b_x / b - 2.0 * al - al * al_x / (1.0 + al * al))
            r[3].append(a * H_x + b * H_y - (al_xx - _rhs(al, al_x, Hv)[1]) / root)
    except OverflowError as exc:   # ** raises where * overflows quietly to inf
        raise EvaluationError(f"(x, y) = ({x}, {y})", exc) from exc
    return ResidualStats(
        max={i: float(np.max(np.abs(v))) for i, v in r.items()},
        mean={i: float(np.mean(np.abs(v))) for i, v in r.items()},
    )


def codazzi_residual_2d(alpha: Field2D, c: float, grid) -> ResidualStats:
    """Per-point residual of alpha_xx + 6 alpha alpha_x + 4 alpha^3
    + c^2 alpha over the grid (y enters only as a parameter)."""
    vals = []
    for x, y in expand_grid(grid):
        al = alpha(x, y)
        al_x = alpha.dx(x, y)
        vals.append(alpha.dxx(x, y) - _rhs(al, al_x, c)[1])
    return ResidualStats(
        max={1: float(np.max(np.abs(vals)))},
        mean={1: float(np.mean(np.abs(vals)))},
    )
