"""Surface models: y-dependent solution families, type classification,
induced-metric representations, normal-coordinate normalization and the
resulting (type, zeta1, zeta2) data, the first fundamental form, the
Levi-Civita connection form, and maximal domains.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import expr as expr_mod
from . import lienard
from .errors import MixedType, SingularPoint
from .numerics import CumulativeIntegral, central_d1, invert_monotone, memoized

EPS_DEN = 1e-12


class YFunction:
    """A real function of one variable with a first derivative.

    Built from closures, a parsed expression, or a constant; evaluation
    must be re-entrant (no internal mutable state beyond caches)."""

    def __init__(self, f: Callable[[float], float],
                 df: Optional[Callable[[float], float]] = None,
                 fd_step: float = 1e-6):
        self.f = f
        self.df = df if df is not None else (lambda y: central_d1(f, y, fd_step))

    def __call__(self, y: float) -> float:
        return float(self.f(y))

    def d(self, y: float) -> float:
        return float(self.df(y))

    @staticmethod
    def constant(c: float) -> "YFunction":
        return YFunction(lambda y: c, lambda y: 0.0)

    @staticmethod
    def from_expr(src: str, var: str = "y") -> "YFunction":
        ast = expr_mod.parse_expr(src, var=var)
        dast = ast.deriv()
        return YFunction(ast.eval, dast.eval)


class SurfaceType(enum.Enum):
    VERTICAL = "Vertical"
    SPECIAL_I = "SpecialI"
    SPECIAL_II = "SpecialII"
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    TYPE_III = "TypeIII"


class ModelKind(enum.Enum):
    VERTICAL = "Vertical"
    SPECIAL_I = "SpecialI"
    SPECIAL_II = "SpecialII"
    GENERAL = "General"


@dataclass
class AlphaModel:
    """A solution family whose constants are functions of y.

    Families: Vertical (alpha == 0), special I  1/(x + c1(y)),
    special II  1/(2x + c1(y)), general  (x + c1(y))/((x + c1(y))^2 + c2(y))
    with c2(y) != 0 on the domain.
    """

    kind: ModelKind
    c1: Optional[YFunction] = None
    c2: Optional[YFunction] = None
    y_domain: tuple = (0.0, 1.0)

    @staticmethod
    def vertical(y_domain=(0.0, 1.0)):
        return AlphaModel(ModelKind.VERTICAL, y_domain=y_domain)

    @staticmethod
    def special_i(c1: YFunction, y_domain=(0.0, 1.0)):
        return AlphaModel(ModelKind.SPECIAL_I, c1=c1, y_domain=y_domain)

    @staticmethod
    def special_ii(c1: YFunction, y_domain=(0.0, 1.0)):
        return AlphaModel(ModelKind.SPECIAL_II, c1=c1, y_domain=y_domain)

    @staticmethod
    def general(c1: YFunction, c2: YFunction, y_domain=(0.0, 1.0)):
        return AlphaModel(ModelKind.GENERAL, c1=c1, c2=c2, y_domain=y_domain)

    def slice_at(self, y: float) -> lienard.AlphaSolution:
        """The x-solution obtained by freezing y."""
        if self.kind is ModelKind.VERTICAL:
            return lienard.Zero()
        if self.kind is ModelKind.SPECIAL_I:
            return lienard.SpecialI(self.c1(y))
        if self.kind is ModelKind.SPECIAL_II:
            return lienard.SpecialII(self.c1(y))
        return lienard.General(self.c1(y), self.c2(y))

    def y_samples(self, n: int = 33):
        c, d = self.y_domain
        pad = 1e-9 * max(1.0, abs(c), abs(d))
        return np.linspace(c + pad, d - pad, n)


def eval_model(m: AlphaModel, x: float, y: float) -> float:
    return m.slice_at(y).alpha(x)


def _general_region(c1: float, c2: float, x: float) -> SurfaceType:
    if c2 > 0:
        return SurfaceType.TYPE_I
    r = math.sqrt(-c2)
    if x < -c1 - r or x > -c1 + r:
        return SurfaceType.TYPE_II
    if -c1 - r < x < -c1 + r:
        return SurfaceType.TYPE_III
    raise MixedType(f"window touches the singular curve at x = {x}")


def classify(m: AlphaModel, x_window=None, n_samples: int = 33) -> SurfaceType:
    """The surface type of the model over the given x-window.

    Vertical and special kinds pass through.  For the general kind the
    sign of c2 decides type I versus II/III, and the position of the
    window relative to the singular curves decides between II and III.
    Raises MixedType when the window straddles the singular curves or c2
    changes sign over the y-domain.
    """
    if m.kind is ModelKind.VERTICAL:
        return SurfaceType.VERTICAL
    if m.kind is ModelKind.SPECIAL_I:
        return SurfaceType.SPECIAL_I
    if m.kind is ModelKind.SPECIAL_II:
        return SurfaceType.SPECIAL_II

    ys = m.y_samples(n_samples)
    c2s = np.array([m.c2(y) for y in ys])
    if np.any(c2s > 0) and np.any(c2s < 0):
        raise MixedType("c2(y) changes sign on the domain")
    if np.all(c2s > 0):
        return SurfaceType.TYPE_I
    if x_window is None:
        raise MixedType("c2 < 0 requires an x-window to separate types II and III")
    x_lo, x_hi = x_window
    labels = set()
    for y in ys:
        c1, c2 = m.c1(y), m.c2(y)
        lo_lab = _general_region(c1, c2, x_lo)
        hi_lab = _general_region(c1, c2, x_hi)
        if lo_lab is not hi_lab:
            raise MixedType("x-window straddles a singular curve")
        if lo_lab is SurfaceType.TYPE_II:
            # both endpoints outside: reject a window spanning the gap
            r = math.sqrt(-c2)
            if x_lo < -c1 - r and x_hi > -c1 + r:
                raise MixedType("x-window spans the type III gap")
        labels.add(lo_lab)
    if len(labels) != 1:
        raise MixedType("type varies with y over the window")
    return labels.pop()


@dataclass
class MetricRep:
    """The induced-metric representation e2^ = a d/dx + b d/dy, b > 0.

    Carries optional analytic x-partials and the gauge functions (k, h)
    used to build it, when known.
    """

    a: Callable[[float, float], float]
    b: Callable[[float, float], float]
    orientation: int = 1
    a_x: Optional[Callable[[float, float], float]] = None
    b_x: Optional[Callable[[float, float], float]] = None
    k: Optional[YFunction] = None
    h: Optional[YFunction] = None
    model: Optional[AlphaModel] = None
    flipped: bool = False


def _family_prefactor(m: AlphaModel, x: float, y: float) -> float:
    sol = m.slice_at(y)
    alpha = sol.alpha(x)
    root = math.sqrt(1.0 + alpha * alpha)
    if m.kind is ModelKind.SPECIAL_I:
        return alpha * alpha / root
    if m.kind is ModelKind.SPECIAL_II:
        return abs(alpha) / root
    den = abs(x + m.c1(y))
    if den <= EPS_DEN:
        raise SingularPoint(f"metric prefactor singular at x = {x}")
    return abs(alpha) / (den * root)


def metric_rep(m: AlphaModel, k: YFunction, h: YFunction) -> MetricRep:
    """Closed-form (a, b) for the model, per family:

        general:     a = |alpha| h / (|x + c1| sqrt(1 + alpha^2)),  b likewise with e^k
        special I:   a = alpha^2 h / sqrt(1 + alpha^2)
        special II:  a = |alpha| h / sqrt(1 + alpha^2)

    The vertical family is the degenerate branch a = h, b = e^k.
    Both a and b share the x-profile, so a_x and b_x follow analytically
    from -b_x/b = 2 alpha + alpha alpha_x/(1 + alpha^2).
    """
    if m.kind is ModelKind.VERTICAL:
        return MetricRep(
            a=lambda x, y: h(y),
            b=lambda x, y: math.exp(k(y)),
            a_x=lambda x, y: 0.0,
            b_x=lambda x, y: 0.0,
            k=k, h=h, model=m,
        )

    def a_fn(x, y):
        return _family_prefactor(m, x, y) * h(y)

    def b_fn(x, y):
        return _family_prefactor(m, x, y) * math.exp(k(y))

    def log_deriv(x, y):
        sol = m.slice_at(y)
        al, dal = sol.alpha(x), sol.alpha_x(x)
        return -(2.0 * al + al * dal / (1.0 + al * al))

    return MetricRep(
        a=a_fn,
        b=b_fn,
        a_x=lambda x, y: a_fn(x, y) * log_deriv(x, y),
        b_x=lambda x, y: b_fn(x, y) * log_deriv(x, y),
        k=k, h=h, model=m,
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

    @staticmethod
    def identity() -> "CoordChange":
        return CoordChange(
            gamma=YFunction.constant(0.0),
            psi=YFunction(lambda y: y, lambda y: 1.0),
            psi_inv=lambda y: y,
        )


@dataclass
class NormalForm:
    surface_type: SurfaceType
    zeta1: Optional[YFunction]
    zeta2: Optional[YFunction]
    x_window: Optional[tuple] = None
    y_domain: Optional[tuple] = None


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

    return MetricRep(a=a_new, b=b_new, model=rep.model)


def inverse_coord_change(change: CoordChange) -> CoordChange:
    def gamma_inv(y_new):
        return -change.gamma(change.invert_y(y_new))

    def dgamma_inv(y_new):
        y = change.invert_y(y_new)
        return -change.gamma.d(y) / change.psi.d(y)

    def psi_inv(y_new):
        return change.invert_y(y_new)

    def dpsi_inv(y_new):
        return 1.0 / change.psi.d(change.invert_y(y_new))

    return CoordChange(
        gamma=YFunction(gamma_inv, dgamma_inv),
        psi=YFunction(psi_inv, dpsi_inv),
        psi_inv=change.psi,
    )


def normalize(m: AlphaModel, rep: MetricRep, x_window=None,
              panels_per_unit: int = 512):
    """Normalize to normal coordinates: Gamma' = -a/b = -h e^{-k} kills a,
    Psi' = e^{-k} fixes the b-gauge; returns the (type, zeta1, zeta2)
    normal form and the coordinate change that realizes it.

    Requires rep to carry its gauge functions (k, h), as metric_rep
    provides.  Idempotent: for k = h = 0 the change is the identity and
    the zetas coincide with the model's c-functions.
    """
    if rep.k is None or rep.h is None:
        raise ValueError("normalize needs the rep's gauge functions k and h")
    k, h = rep.k, rep.h
    y_lo = m.y_domain[0]

    gamma_int = CumulativeIntegral(
        lambda y: -h(y) * math.exp(-k(y)), y_lo, panels_per_unit)
    gamma = YFunction(gamma_int, lambda y: -h(y) * math.exp(-k(y)))

    psi_int = CumulativeIntegral(lambda y: math.exp(-k(y)), y_lo, panels_per_unit)
    psi = YFunction(lambda y: y_lo + psi_int(y), lambda y: math.exp(-k(y)))
    change = CoordChange(gamma=gamma, psi=psi)
    # zeta1 and zeta2 at the same y_new share one inversion of Psi
    pull_y = memoized(change.invert_y)

    if m.kind is ModelKind.VERTICAL:
        nf = NormalForm(SurfaceType.VERTICAL, None, None, x_window, m.y_domain)
        return nf, change

    if m.kind is ModelKind.SPECIAL_II:
        def z1(y_new):
            y = pull_y(y_new)
            return m.c1(y) - 2.0 * gamma(y)

        def dz1(y_new):
            y = pull_y(y_new)
            return (m.c1.d(y) - 2.0 * gamma.d(y)) / psi.d(y)

        nf = NormalForm(SurfaceType.SPECIAL_II, YFunction(z1, dz1), None,
                        x_window, m.y_domain)
        return nf, change

    def z1(y_new):
        y = pull_y(y_new)
        return m.c1(y) - gamma(y)

    def dz1(y_new):
        y = pull_y(y_new)
        return (m.c1.d(y) - gamma.d(y)) / psi.d(y)

    zeta1 = YFunction(z1, dz1)

    if m.kind is ModelKind.SPECIAL_I:
        nf = NormalForm(SurfaceType.SPECIAL_I, zeta1, None, x_window, m.y_domain)
        return nf, change

    def z2(y_new):
        return m.c2(pull_y(y_new))

    def dz2(y_new):
        y = pull_y(y_new)
        return m.c2.d(y) / psi.d(y)

    zeta2 = YFunction(z2, dz2)
    stype = classify(m, x_window)
    nf = NormalForm(stype, zeta1, zeta2, x_window, m.y_domain)
    return nf, change


def first_fundamental_form(nf: NormalForm, x: float, y: float) -> np.ndarray:
    """diag(1, 1/b^2) in normal coordinates; may degenerate on singular loci."""
    if nf.surface_type is SurfaceType.VERTICAL:
        g22 = 1.0
    elif nf.surface_type is SurfaceType.SPECIAL_I:
        X = x + nf.zeta1(y)
        g22 = X**2 + X**4
    elif nf.surface_type is SurfaceType.SPECIAL_II:
        g22 = 1.0 + (2.0 * x + nf.zeta1(y)) ** 2
    else:
        X = x + nf.zeta1(y)
        g22 = X**2 + (X**2 + nf.zeta2(y)) ** 2
    return np.array([[1.0, 0.0], [0.0, g22]])


def connection_form(rep: MetricRep, x: float, y: float,
                    fd_step: float = 1e-6):
    """Coefficients (w1, w2) of the connection form w2^1 in dx, dy:

        w1 = (b a_x - a b_x)/b
        w2 = b_x/b^2 - a a_x/b + a^2 b_x/b^2

    Analytic x-partials are used when the rep carries them, otherwise
    central differences.
    """
    a = rep.a(x, y)
    b = rep.b(x, y)
    if b <= 0.0:
        raise SingularPoint("connection form requires b > 0")
    if rep.a_x is not None:
        ax = rep.a_x(x, y)
    else:
        ax = central_d1(lambda s: rep.a(s, y), x, fd_step)
    if rep.b_x is not None:
        bx = rep.b_x(x, y)
    else:
        bx = central_d1(lambda s: rep.b(s, y), x, fd_step)
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
    y_domain: Optional[tuple] = None


def maximal_domain(zeta1: Optional[YFunction],
                   zeta2: Optional[YFunction],
                   surface_type: SurfaceType,
                   y_domain=(0.0, 1.0)) -> MaximalDomain:
    """The maximal domains per type: half-planes bounded by x = -zeta1(y)
    (special I) or 2x = -zeta1(y) (special II); the whole strip for type I;
    the outer/inner regions of the two singular curves for types II/III."""
    if surface_type is SurfaceType.VERTICAL or surface_type is SurfaceType.TYPE_I:
        return MaximalDomain(surface_type, {"all": lambda x, y: True},
                             [], y_domain)
    if surface_type is SurfaceType.SPECIAL_I:
        return MaximalDomain(
            surface_type,
            {"plus": lambda x, y: x + zeta1(y) > 0,
             "minus": lambda x, y: x + zeta1(y) < 0},
            [lambda y: -zeta1(y)], y_domain)
    if surface_type is SurfaceType.SPECIAL_II:
        return MaximalDomain(
            surface_type,
            {"plus": lambda x, y: 2.0 * x + zeta1(y) > 0,
             "minus": lambda x, y: 2.0 * x + zeta1(y) < 0},
            [lambda y: -zeta1(y) / 2.0], y_domain)

    def left(y):
        return -zeta1(y) - math.sqrt(-zeta2(y))

    def right(y):
        return -zeta1(y) + math.sqrt(-zeta2(y))

    if surface_type is SurfaceType.TYPE_II:
        return MaximalDomain(
            surface_type,
            {"minus": lambda x, y: x < left(y),
             "plus": lambda x, y: x > right(y)},
            [left, right], y_domain)
    return MaximalDomain(
        SurfaceType.TYPE_III,
        {"between": lambda x, y: left(y) < x < right(y)},
        [left, right], y_domain)
