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
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, QuadratureFailure, SingularPoint
from .lienard import _rhs
from .models import MetricRep, exp_of
from .numerics import CumulativeIntegral, Field2D, YFunction, memoized


def metric_from_alpha_H(alpha: Field2D, H: Field2D, k: YFunction,
                        h: YFunction, x_base: float) -> MetricRep:
    """Solve the first two integrability equations by quadrature:

        b = e^{k(y)} e^{-int 2 alpha dx} / sqrt(1 + alpha^2)
        a = e^{-int 2 alpha dx} / sqrt(1 + alpha^2)
            * (h(y) - int H alpha e^{int 2 alpha dx} dx)

    with both anti-derivatives cumulative from x_base (lattice Simpson,
    one pair of lattices per y-line).  When neither alpha nor H depends on
    y, every y shares a single pair.  a and b are Field2Ds whose lines
    read h(y) and e^{k(y)} once each.
    """
    ek = exp_of(k)

    def quadrature(y: float):
        """The y-line's e^{-I} / sqrt(1 + alpha^2) and J, each memoized in
        x: a and b and their x-differences revisit the same points."""
        al, Hy = memoized(alpha.line(y)), H.line(y)
        I = CumulativeIntegral(lambda x: 2.0 * al(x), x_base)
        J = CumulativeIntegral(lambda x: Hy(x) * al(x) * math.exp(I(x)), x_base)

        def common(x):
            a = al(x)
            val = math.exp(-I(x)) / math.sqrt(1.0 + a * a)
            if not math.isfinite(val):
                raise QuadratureFailure(f"non-finite integrand at ({x}, {y})")
            return val

        return memoized(common), memoized(J)

    quad = memoized(quadrature, alpha.y_free and H.y_free)

    def b_line(y):
        common, _ = quad(y)
        eky = ek(y)
        return YFunction(lambda x: eky * common(x), var="x")

    def a_line(y):
        common, J = quad(y)
        hy = h(y)
        return YFunction(lambda x: common(x) * (hy - J(x)), var="x")

    return MetricRep(Field2D(a_line), Field2D(b_line))


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
