"""Surface models: y-dependent solution families, type classification,
induced-metric representations, normal-coordinate normalization and the
resulting (type, zeta1, zeta2) data, the first fundamental form, the
Levi-Civita connection form, and maximal domains.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import lienard
from .errors import EvaluationError, MixedType, SingularPoint
from .lienard import SurfaceType
from .numerics import (CumulativeIntegral, Field2D, Window, YFunction,
                       invert_monotone, memoized)

Y_SAMPLES = 33   # y-samples of a model's domain on which classify reads the type


@dataclass
class AlphaModel:
    """A lienard solution family whose constants are functions of y,
    such as AlphaModel(lienard.General, c1, c2, y_domain).

    Families: Zero (the vertical model, alpha == 0), special I
    1/(x + c1(y)), special II  1/(2x + c1(y)), general
    (x + c1(y))/((x + c1(y))^2 + c2(y)) with c2(y) != 0 on the domain.
    """

    family: type
    c1: Optional[YFunction] = None
    c2: Optional[YFunction] = None
    y_domain: tuple = (0.0, 1.0)

    def slice_at(self, y: float) -> lienard.AlphaSolution:
        """The x-solution obtained by freezing y."""
        family = self.family
        if family is lienard.Zero:
            return family()
        if family is not lienard.General:
            return family(self.c1(y))
        try:
            return family(self.c1(y), self.c2(y))
        except ValueError as exc:
            raise SingularPoint(f"c2 vanishes at y = {y}: {exc}") from exc


def classify(m: AlphaModel, x_window=None) -> SurfaceType:
    """The surface type of the model over the given x-window.

    A family of one type has it.  Otherwise each of Y_SAMPLES y-slices
    inside the y-domain reads its type off the family's surface_type, and
    they must agree.  Raises MixedType, naming the y, where a slice has no
    single type over the window or two slices differ.
    """
    if len(m.family.types) == 1:
        return m.family.types[0]
    w = Window(*m.y_domain)
    first = {}   # type -> the first y that has it
    for y in w.inner(Y_SAMPLES, 1e-9 * max(1.0, abs(w.lo), abs(w.hi))):
        try:
            first.setdefault(m.slice_at(y).surface_type(x_window), y)
        except MixedType as exc:
            raise MixedType(f"{exc} at y = {y}") from None
        if len(first) > 1:
            (t0, y0), (t1, y1) = first.items()
            raise MixedType(f"the type is {t0.value} at y = {y0} "
                            f"but {t1.value} at y = {y1}")
    return next(iter(first))


class MetricRep:
    """The induced-metric representation e2^ = a d/dx + b d/dy, b > 0,
    from the Field2Ds a and b.  Their x-partials a_x and b_x are read
    once, when the rep is built."""

    def __init__(self, a: Field2D, b: Field2D):
        self.a, self.b = a, b
        self.a_x, self.b_x = a.dx, b.dx


def exp_of(k: YFunction) -> YFunction:
    """e^k as a YFunction, so an overflow names its y."""
    return YFunction(lambda y: math.exp(k(y)))


def metric_rep(m: AlphaModel, k: YFunction, h: YFunction) -> MetricRep:
    """Closed-form (a, b) = (h(y), e^{k(y)}) times the family's
    metric_factor(x), e^{-int 2 alpha dx} / sqrt(1 + alpha^2).
    Both a and b share that x-profile, so a_x and b_x follow analytically
    from -b_x/b = 2 alpha + alpha alpha_x/(1 + alpha^2).  Each y-line of
    a or b reads the slice and h(y) or e^{k(y)} once.
    """
    ek = exp_of(k)

    def coefficient(gauge: YFunction) -> Field2D:
        def line(y):
            sol, g = m.slice_at(y), gauge(y)

            def f(x):
                val = sol.metric_factor(x) * g
                if not math.isfinite(val):
                    raise EvaluationError(f"(x, y) = ({x}, {y})",
                                          "the metric coefficient is not finite")
                return val

            def log_deriv(x):
                al, dal = sol.alpha(x), sol.alpha_x(x)
                return -(2.0 * al + al * dal / (1.0 + al * al))

            return YFunction(f, lambda x: f(x) * log_deriv(x), var="x")
        return Field2D(line)

    return MetricRep(coefficient(h), coefficient(ek))


@dataclass
class CoordChange:
    """x~ = x + Gamma(y), y~ = Psi(y) with Psi' != 0.  Psi^-1 is psi_inv
    when given, else Newton from the bracket y~ -/+ 1; invert_y reads it
    once per y~."""

    gamma: YFunction
    psi: YFunction
    psi_inv: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        psi = self.psi   # not self: a closure over it would make a cycle
        self.invert_y = memoized(self.psi_inv or (
            lambda y_new: invert_monotone(psi, y_new, y_new - 1.0, y_new + 1.0)))

    def pull(self, f, df) -> YFunction:
        """f read in the new coordinate, y~ -> f(Psi^-1(y~)), with the
        chain-rule derivative df(y) / Psi'(y)."""
        inv, dpsi = self.invert_y, self.psi.d

        def d(y_new):
            y = inv(y_new)
            return df(y) / dpsi(y)

        return YFunction(lambda y_new: f(inv(y_new)), d)


@dataclass
class NormalForm:
    """zeta1 and zeta2 are functions of y~; at_y(y), where normalize sets
    it, gives (zeta1, zeta2) read at the model's own y instead, None for a
    missing c-function."""

    surface_type: SurfaceType
    zeta1: Optional[YFunction]
    zeta2: Optional[YFunction]
    at_y: Optional[Callable[[float], tuple]] = None


def apply_coord_change(rep: MetricRep, change: CoordChange) -> MetricRep:
    """Push (a, b) through the coordinate change: a~ = a + b Gamma',
    b~ = b Psi', read in the new coordinates."""

    def pull(x_new, y_new):
        y = change.invert_y(y_new)
        x = x_new - change.gamma(y)
        return x, y

    def a_new(x_new, y_new):
        x, y = pull(x_new, y_new)
        return rep.a(x, y) + rep.b(x, y) * change.gamma.d(y)

    def b_new(x_new, y_new):
        x, y = pull(x_new, y_new)
        return rep.b(x, y) * change.psi.d(y)

    return MetricRep(Field2D.of(a_new), Field2D.of(b_new))


def inverse_coord_change(change: CoordChange) -> CoordChange:
    gamma = change.gamma
    return CoordChange(change.pull(lambda y: -gamma(y), lambda y: -gamma.d(y)),
                       change.pull(lambda y: y, lambda y: 1.0),
                       psi_inv=change.psi)


def normalize(m: AlphaModel, k: YFunction, h: YFunction, x_window=None):
    """Normalize metric_rep(m, k, h) to normal coordinates: Gamma' = -a/b
    = -h e^{-k} kills a, Psi' = e^{-k} fixes the b-gauge; returns the
    (type, zeta1, zeta2) normal form and the coordinate change that
    realizes it.

    Idempotent: for k = h = 0 the change is the identity and the zetas
    coincide with the model's c-functions.
    """
    w = Window(*m.y_domain)

    gamma_int = CumulativeIntegral(lambda y: -h(y) * math.exp(-k(y)), w.lo, var="y")
    gamma = YFunction(gamma_int, lambda y: -h(y) * math.exp(-k(y)))

    psi_int = CumulativeIntegral(lambda y: math.exp(-k(y)), w.lo, var="y")
    psi = YFunction(lambda y: w.lo + psi_int(y), lambda y: math.exp(-k(y)))
    # Psi is inverted from a bracket on the y-domain, where k is read; a
    # zero-width domain keeps a bracket of width 1
    hi = w.hi if w.width else w.lo + 1.0
    change = CoordChange(gamma, psi, lambda y_new: invert_monotone(psi, y_new, w.lo, hi))

    # x -> x + Gamma moves c1 by scale * Gamma (2 Gamma for special II)
    s = m.family.scale

    def zeta1_at(y):
        return m.c1(y) - s * gamma(y)

    zeta1 = (change.pull(zeta1_at, lambda y: m.c1.d(y) - s * gamma.d(y))
             if m.c1 is not None else None)
    zeta2 = change.pull(m.c2, m.c2.d) if m.c2 is not None else None

    def at_y(y):
        return (None if m.c1 is None else zeta1_at(y),
                None if m.c2 is None else m.c2(y))

    return NormalForm(classify(m, x_window), zeta1, zeta2, at_y), change


def _normal_model(surface_type: SurfaceType, zeta1, zeta2) -> AlphaModel:
    """The model in normal coordinates: the type's family with constants
    (zeta1, zeta2)."""
    family = next(f for f in lienard.FAMILIES if surface_type in f.types)
    return AlphaModel(family, zeta1, zeta2)


def first_fundamental_form(nf: NormalForm, x: float, y: float) -> np.ndarray:
    """diag(1, 1/b^2) in normal coordinates, 1/b^2 = y_speed(x)^2 of the
    family at (zeta1(y), zeta2(y)); degenerates on the special I singular line."""
    sol = _normal_model(nf.surface_type, nf.zeta1, nf.zeta2).slice_at(y)
    return np.array([[1.0, 0.0], [0.0, sol.y_speed(x) ** 2]])


def connection_form(rep: MetricRep, x: float, y: float):
    """Coefficients (w1, w2) of the connection form w2^1 in dx, dy:

        w1 = (b a_x - a b_x)/b
        w2 = b_x/b^2 - a a_x/b + a^2 b_x/b^2
    """
    a = rep.a(x, y)
    b = rep.b(x, y)
    if b <= 0.0:
        raise SingularPoint("connection form requires b > 0")
    ax = rep.a_x(x, y)
    bx = rep.b_x(x, y)
    w1 = (b * ax - a * bx) / b
    w2 = bx / b**2 - a * ax / b + a * a * bx / b**2
    return w1, w2


@dataclass
class MaximalDomain:
    """A maximal domain: named membership predicates plus the boundary
    curves y -> x along which the family degenerates."""

    surface_type: SurfaceType
    pieces: dict
    boundaries: list = field(default_factory=list)


def maximal_domain(zeta1: Optional[YFunction],
                   zeta2: Optional[YFunction],
                   surface_type: SurfaceType) -> MaximalDomain:
    """The maximal domains per type, bounded by the family's singular
    curves: the whole strip for vertical and type I; the half-planes either
    side of x = -zeta1(y) (special I) or 2x = -zeta1(y) (special II); the
    outer/inner regions of the two singular curves for types II/III."""
    if surface_type is SurfaceType.VERTICAL or surface_type is SurfaceType.TYPE_I:
        return MaximalDomain(surface_type, {"all": lambda x, y: True}, [])
    slice_at = _normal_model(surface_type, zeta1, zeta2).slice_at

    def lo(y):
        return slice_at(y).singular_x()[0]

    def hi(y):
        return slice_at(y).singular_x()[-1]

    if surface_type is SurfaceType.TYPE_III:
        return MaximalDomain(surface_type,
                             {"between": lambda x, y: lo(y) < x < hi(y)}, [lo, hi])
    return MaximalDomain(
        surface_type,
        {"minus": lambda x, y: x < lo(y), "plus": lambda x, y: x > hi(y)},
        [lo, hi] if surface_type is SurfaceType.TYPE_II else [lo])
