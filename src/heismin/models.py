"""Surface models: y-dependent solution families, type classification,
induced-metric representations, normal-coordinate normalization and the
resulting (type, zeta1, zeta2) data, the first fundamental form, the
Levi-Civita connection form, and maximal domains.
"""
from __future__ import annotations

import enum
import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import lienard
from .errors import MixedType, SingularPoint
from .numerics import (CumulativeIntegral, YFunction, fd_partial,
                       invert_monotone, memoized)


class SurfaceType(enum.Enum):
    VERTICAL = "Vertical"
    SPECIAL_I = "SpecialI"
    SPECIAL_II = "SpecialII"
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    TYPE_III = "TypeIII"


Y_SAMPLES = 33   # y-samples of a model's domain on which classify checks c2
# the surface type of each family whose type does not depend on the window
_FAMILY_TYPE = {lienard.Zero: SurfaceType.VERTICAL,
                lienard.SpecialI: SurfaceType.SPECIAL_I,
                lienard.SpecialII: SurfaceType.SPECIAL_II}


@dataclass
class AlphaModel:
    """A lienard solution family whose constants are functions of y.

    Families: Zero (the vertical model, alpha == 0), special I
    1/(x + c1(y)), special II  1/(2x + c1(y)), general
    (x + c1(y))/((x + c1(y))^2 + c2(y)) with c2(y) != 0 on the domain.
    """

    family: type
    c1: Optional[YFunction] = None
    c2: Optional[YFunction] = None
    y_domain: tuple = (0.0, 1.0)

    @staticmethod
    def vertical(y_domain=(0.0, 1.0)):
        return AlphaModel(lienard.Zero, y_domain=y_domain)

    @staticmethod
    def special_i(c1: YFunction, y_domain=(0.0, 1.0)):
        return AlphaModel(lienard.SpecialI, c1=c1, y_domain=y_domain)

    @staticmethod
    def special_ii(c1: YFunction, y_domain=(0.0, 1.0)):
        return AlphaModel(lienard.SpecialII, c1=c1, y_domain=y_domain)

    @staticmethod
    def general(c1: YFunction, c2: YFunction, y_domain=(0.0, 1.0)):
        return AlphaModel(lienard.General, c1=c1, c2=c2, y_domain=y_domain)

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


def eval_model(m: AlphaModel, x: float, y: float) -> float:
    return m.slice_at(y).alpha(x)


def _general_region(lo: float, hi: float, x: float) -> SurfaceType:
    """The type at x of a c2 < 0 general solution with singular curves
    x = lo < hi: type II outside them, type III between."""
    if x < lo or x > hi:
        return SurfaceType.TYPE_II
    if lo < x < hi:
        return SurfaceType.TYPE_III
    raise MixedType(f"window touches the singular curve at x = {x}")


def classify(m: AlphaModel, x_window=None) -> SurfaceType:
    """The surface type of the model over the given x-window.

    Vertical and special families pass through.  For the general family the
    sign of c2 decides type I versus II/III, and the position of the
    window relative to the singular curves decides between II and III.
    Raises MixedType when the window straddles the singular curves or c2
    vanishes or changes sign over the y-domain.
    """
    if m.family in _FAMILY_TYPE:
        return _FAMILY_TYPE[m.family]

    c, d = m.y_domain
    pad = 1e-9 * max(1.0, abs(c), abs(d))
    ys = np.linspace(c + pad, d - pad, Y_SAMPLES).tolist()
    c2s = np.array([m.c2(y) for y in ys])
    if np.any(c2s > 0) and np.any(c2s < 0):
        raise MixedType("c2(y) changes sign on the domain")
    if np.any(c2s == 0):
        raise MixedType("c2(y) vanishes on the domain")
    if np.all(c2s > 0):
        return SurfaceType.TYPE_I
    if x_window is None:
        raise MixedType("c2 < 0 requires an x-window to separate types II and III")
    x_lo, x_hi = x_window
    labels = set()
    for y in ys:
        lo, hi = m.slice_at(y).singular_x()
        lo_lab = _general_region(lo, hi, x_lo)
        hi_lab = _general_region(lo, hi, x_hi)
        if lo_lab is not hi_lab:
            raise MixedType("x-window straddles a singular curve")
        if lo_lab is SurfaceType.TYPE_II:
            # both endpoints outside: reject a window spanning the gap
            if x_lo < lo and x_hi > hi:
                raise MixedType("x-window spans the type III gap")
        labels.add(lo_lab)
    if len(labels) != 1:
        raise MixedType("type varies with y over the window")
    return labels.pop()


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
    y_lo = m.y_domain[0]

    gamma_int = CumulativeIntegral(lambda y: -h(y) * math.exp(-k(y)), y_lo)
    gamma = YFunction(gamma_int, lambda y: -h(y) * math.exp(-k(y)))

    psi_int = CumulativeIntegral(lambda y: math.exp(-k(y)), y_lo)
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
    family = next((f for f, t in _FAMILY_TYPE.items() if t is surface_type),
                  lienard.General)
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
