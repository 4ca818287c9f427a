"""Surface models: y-dependent solution families, type classification,
induced-metric representations, normal-coordinate normalization and the
resulting (type, zeta1, zeta2) data, the first fundamental form, the
Levi-Civita connection form, and maximal domains.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import lienard
from .errors import MixedType, SingularPoint
from .lienard import SurfaceType
from .numerics import (CumulativeIntegral, Window, YFunction, fd_partial,
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


@dataclass
class MetricRep:
    """The induced-metric representation e2^ = a d/dx + b d/dy, b > 0,
    with its x-partials.  An x-partial that is not given becomes a central
    difference of a or b as the rep holds them when it is called.
    """

    a: Callable[[float, float], float]
    b: Callable[[float, float], float]
    a_x: Optional[Callable[[float, float], float]] = None
    b_x: Optional[Callable[[float, float], float]] = None

    def __post_init__(self):
        # weak, so no cycle holds the rep's lattices until the cyclic
        # collector runs; once the rep is gone, the original a, b are used
        me, a, b = weakref.ref(self), self.a, self.b
        if self.a_x is None:
            self.a_x = fd_partial(lambda x, y: getattr(me(), "a", a)(x, y), 0)
        if self.b_x is None:
            self.b_x = fd_partial(lambda x, y: getattr(me(), "b", b)(x, y), 0)


def exp_of(k: YFunction) -> YFunction:
    """e^k as a YFunction, so an overflow names its y."""
    return YFunction(lambda y: math.exp(k(y)))


def metric_rep(m: AlphaModel, k: YFunction, h: YFunction) -> MetricRep:
    """Closed-form (a, b) = (h(y), e^{k(y)}) times the family's
    metric_factor(x), e^{-int 2 alpha dx} / sqrt(1 + alpha^2).
    Both a and b share that x-profile, so a_x and b_x follow analytically
    from -b_x/b = 2 alpha + alpha alpha_x/(1 + alpha^2).
    """
    ek = exp_of(k)

    def a_fn(x, y):
        return m.slice_at(y).metric_factor(x) * h(y)

    def b_fn(x, y):
        return m.slice_at(y).metric_factor(x) * ek(y)

    def log_deriv(x, y):
        sol = m.slice_at(y)
        al, dal = sol.alpha(x), sol.alpha_x(x)
        return -(2.0 * al + al * dal / (1.0 + al * al))

    return MetricRep(
        a=a_fn,
        b=b_fn,
        a_x=lambda x, y: a_fn(x, y) * log_deriv(x, y),
        b_x=lambda x, y: b_fn(x, y) * log_deriv(x, y),
    )


@dataclass
class CoordChange:
    """x~ = x + Gamma(y), y~ = Psi(y) with Psi' != 0."""

    gamma: YFunction
    psi: YFunction
    psi_inv: Optional[Callable[[float], float]] = None

    def invert_y(self, y_new: float) -> float:
        if self.psi_inv is not None:
            return self.psi_inv(y_new)
        return invert_monotone(self.psi, y_new, y_new - 1.0, y_new + 1.0)


@dataclass
class NormalForm:
    surface_type: SurfaceType
    zeta1: Optional[YFunction]
    zeta2: Optional[YFunction]


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

    return MetricRep(a=a_new, b=b_new)


def inverse_coord_change(change: CoordChange) -> CoordChange:
    def gamma_inv(y_new):
        return -change.gamma(change.invert_y(y_new))

    def dgamma_inv(y_new):
        y = change.invert_y(y_new)
        return -change.gamma.d(y) / change.psi.d(y)

    def dpsi_inv(y_new):
        return 1.0 / change.psi.d(change.invert_y(y_new))

    return CoordChange(
        gamma=YFunction(gamma_inv, dgamma_inv),
        psi=YFunction(change.invert_y, dpsi_inv),
        psi_inv=change.psi,
    )


def normalize(m: AlphaModel, k: YFunction, h: YFunction, x_window=None):
    """Normalize metric_rep(m, k, h) to normal coordinates: Gamma' = -a/b
    = -h e^{-k} kills a, Psi' = e^{-k} fixes the b-gauge; returns the
    (type, zeta1, zeta2) normal form and the coordinate change that
    realizes it.

    Idempotent: for k = h = 0 the change is the identity and the zetas
    coincide with the model's c-functions.
    """
    y_lo = Window(*m.y_domain).lo

    gamma_int = CumulativeIntegral(lambda y: -h(y) * math.exp(-k(y)), y_lo, var="y")
    gamma = YFunction(gamma_int, lambda y: -h(y) * math.exp(-k(y)))

    psi_int = CumulativeIntegral(lambda y: math.exp(-k(y)), y_lo, var="y")
    psi = YFunction(lambda y: y_lo + psi_int(y), lambda y: math.exp(-k(y)))
    change = CoordChange(gamma=gamma, psi=psi)
    # zeta1 and zeta2 at the same y_new share one inversion of Psi
    pull_y = memoized(change.invert_y)

    # x -> x + Gamma moves c1 by scale * Gamma (2 Gamma for special II)
    s = m.family.scale

    def z1(y_new):
        y = pull_y(y_new)
        return m.c1(y) - s * gamma(y)

    def dz1(y_new):
        y = pull_y(y_new)
        return (m.c1.d(y) - s * gamma.d(y)) / psi.d(y)

    def z2(y_new):
        return m.c2(pull_y(y_new))

    def dz2(y_new):
        y = pull_y(y_new)
        return m.c2.d(y) / psi.d(y)

    zeta1 = YFunction(z1, dz1) if m.c1 is not None else None
    zeta2 = YFunction(z2, dz2) if m.c2 is not None else None
    return NormalForm(classify(m, x_window), zeta1, zeta2), change


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
