"""Integrability machinery: build the induced-metric representation
(a, b) from (alpha, H, k, h) by quadrature, and check the compatible-
coordinate integrability equations numerically,

    r1 = -a_x + a b_x/b - H alpha / sqrt(1 + alpha^2)
    r2 = -b_x/b - 2 alpha - alpha alpha_x / (1 + alpha^2)
    r3 = a H_x + b H_y - (alpha_xx + 6 alpha alpha_x + 4 alpha^3
                          + alpha H^2) / sqrt(1 + alpha^2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, QuadratureFailure, SingularPoint
from .expr import exp, pointwise, sqrt
from .lienard import _rhs
from .models import MetricRep, exp_of
from .numerics import CumulativeIntegral, Field2D, YFunction, first_where, memoized


def metric_from_alpha_H(alpha: Field2D, H: Field2D, k: YFunction,
                        h: YFunction, x_base: float) -> MetricRep:
    """Solve the first two integrability equations by quadrature:

        b = e^{k(y)} e^{-int 2 alpha dx} / sqrt(1 + alpha^2)
        a = e^{-int 2 alpha dx} / sqrt(1 + alpha^2)
            * (h(y) - int H alpha e^{int 2 alpha dx} dx)

    with both anti-derivatives cumulative from x_base (lattice Simpson,
    one pair of lattices per y-line, grown over arrays: J's integrand reads
    I over its nodes).  When neither alpha nor H depends on y, every y
    shares a single pair.  a and b are Field2Ds whose lines read h(y) and
    e^{k(y)} once each and take an x-row.
    """
    ek = exp_of(k)

    def quadrature(y: float):
        """The y-line's e^{-I} / sqrt(1 + alpha^2) and J, each memoized in
        x: a and b and their x-differences revisit the same points."""
        al, Hy = memoized(alpha.line(y).over), H.line(y).over
        I = CumulativeIntegral(lambda x: 2.0 * al(x), x_base, arrays=True)
        J = CumulativeIntegral(lambda x: Hy(x) * al(x) * exp(I.over(x)), x_base,
                               arrays=True)

        def common(x):
            a = al(x)
            val = exp(-I.over(x)) / sqrt(1.0 + a * a)
            if (at := first_where(~np.isfinite(val), x)) is not None:
                raise QuadratureFailure(f"non-finite integrand at ({at}, {y})")
            return val

        return memoized(common), memoized(J.over)

    quad = memoized(quadrature, alpha.y_free and H.y_free)

    def b_line(y):
        common, _ = quad(y)
        eky = ek(y)
        return YFunction(lambda x: eky * common(x), var="x", arrays=True)

    def a_line(y):
        common, J = quad(y)
        hy = h(y)
        return YFunction(lambda x: common(x) * (hy - J(x)), var="x", arrays=True)

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


def _residuals(alpha: Field2D, H: Field2D, rep: MetricRep, x, y: float):
    """(r1, r2, r3) at (x, y), x a float or an x-row, each value read in
    the point loop's order."""
    al = alpha(x, y)
    al_x = alpha.dx(x, y)
    al_xx = alpha.dxx(x, y)
    Hv = H(x, y)
    a = rep.a(x, y)
    b = rep.b(x, y)
    if (at := first_where(b == 0.0, x)) is not None:
        raise SingularPoint(f"metric coefficient b = 0 at (x, y) = ({at}, {y})")
    a_x = rep.a_x(x, y)
    b_x = rep.b_x(x, y)
    H_x = H.dx(x, y)
    H_y = H.dy(x, y)
    root = sqrt(1.0 + al * al)
    return (-a_x + a * b_x / b - Hv * al / root,
            -b_x / b - 2.0 * al - al * al_x / (1.0 + al * al),
            a * H_x + b * H_y - (al_xx - _rhs(al, al_x, Hv)[1]) / root)


def integrability_residual(alpha: Field2D, H: Field2D, rep: MetricRep,
                           grid) -> ResidualStats:
    """Max and mean absolute residuals of the three integrability
    equations over the grid.  The grid must stay a couple of
    finite-difference steps away from singular loci.

    Each y is read as one x-row; where one raises, pointwise reads every
    point again in expand_grid's order, for the point loop's first error,
    and where residuals are not finite, those points, for EvaluationError
    at the first of them."""
    def at(x, y):
        r = _residuals(alpha, H, rep, x, y)
        if not np.isfinite(r).all():
            raise EvaluationError(f"(x, y) = ({x}, {y})", "the residuals are not finite")
        return r

    def rows(x, _):   # one x-row per y, y a float
        return np.hstack([_residuals(alpha, H, rep, row, float(y))
                          for row, y in zip(x.reshape(len(grid[1]), -1), grid[1])])

    r = pointwise(at, 3, rows)(*np.array(expand_grid(grid)).reshape(-1, 2).T.copy())
    return ResidualStats(
        max={i: float(np.max(np.abs(v))) for i, v in enumerate(r, 1)},
        mean={i: float(np.mean(np.abs(v))) for i, v in enumerate(r, 1)},
    )
