"""Surface models: y-dependent solution families, type classification,
induced-metric representations, normal-coordinate normalization and the
resulting (type, zeta1, zeta2) data, and the first fundamental form.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from . import lienard
from .errors import EvaluationError, MixedType, SingularPoint
from .expr import exp
from .lienard import SurfaceType
from .numerics import (CumulativeIntegral, Field2D, Window, YFunction, first_where,
                       invert_monotone, memoized)

Y_SAMPLES = 33   # y-samples of a model's domain on which classify reads the type


@dataclass
class AlphaModel:
    """A lienard solution family whose constants are functions of y,
    such as AlphaModel(lienard.General, c1, c2, y_domain).  At each y,
    alpha = w'/(2w) in x, with w = 1 (Zero, the vertical model),
    (x + c1(y))^2 (special I), 2x + c1(y) (special II) or
    (x + c1(y))^2 + c2(y) (general, with c2(y) != 0 on the domain).
    """

    family: type
    c1: Optional[YFunction] = None
    c2: Optional[YFunction] = None
    y_domain: tuple = (0.0, 1.0)

    def slice_at(self, y: float) -> lienard.AlphaSolution:
        """The x-solution obtained by freezing y: the family built from
        its constants, which are its dataclass fields, at y."""
        cs = [getattr(self, f.name)(y) for f in fields(self.family)]
        try:
            return self.family(*cs)
        except ValueError as exc:   # c2 = 0, or a constant is not finite
            raise (SingularPoint(f"c2 vanishes at y = {y}: {exc}") if np.isfinite(cs).all()
                   else EvaluationError(f"y = {y}", exc)) from exc


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
    return YFunction(lambda y: exp(k(y)))


def metric_rep(m: AlphaModel, k: YFunction, h: YFunction) -> MetricRep:
    """Closed-form (a, b) = (h(y), e^{k(y)}) times the family's
    metric_factor(x), e^{-int 2 alpha dx} / sqrt(1 + alpha^2).
    a_x and b_x are YFunction's central differences, as on every line: the
    closed form's -b_x/b = 2 alpha + alpha alpha_x/(1 + alpha^2) is the second
    integrability equation, which the check must test, not be handed.  Each
    y-line reads the slice and h(y) or e^{k(y)} once, and takes an x-row.
    """
    ek = exp_of(k)

    def coefficient(gauge: YFunction) -> Field2D:
        def line(y):
            sol, g = m.slice_at(y), gauge(y)

            def f(x):
                val = sol.metric_factor(x) * g
                if (at := first_where(~np.isfinite(val), x)) is not None:
                    raise EvaluationError(f"(x, y) = ({at}, {y})",
                                          "the metric coefficient is not finite")
                return val

            return YFunction(f, var="x", arrays=(f, None, None))
        return Field2D(line)

    return MetricRep(coefficient(h), coefficient(ek))


@dataclass
class CoordChange:
    """x~ = x + Gamma(y), y~ = Psi(y) with Psi' != 0 and Psi^-1 = psi_inv;
    invert_y reads psi_inv once per y~."""

    gamma: YFunction
    psi: YFunction
    psi_inv: Callable[[float], float]

    def __post_init__(self):
        self.invert_y = memoized(self.psi_inv)

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
    it, gives (zeta1, zeta2) read at the model's own y instead, at a float
    or over an array of y, None for a missing c-function."""

    surface_type: SurfaceType
    zeta1: Optional[YFunction]
    zeta2: Optional[YFunction]
    at_y: Optional[Callable[[float], tuple]] = None


def normalize(m: AlphaModel, k: YFunction, h: YFunction, x_window=None):
    """Normalize metric_rep(m, k, h) to normal coordinates: Gamma' = -a/b
    = -h e^{-k} kills a, Psi' = e^{-k} fixes the b-gauge; returns the
    (type, zeta1, zeta2) normal form and the coordinate change that
    realizes it.

    Idempotent: for k = h = 0 the change is the identity and the zetas
    coincide with the model's c-functions.
    """
    w = Window(*m.y_domain)
    # Gamma's and Psi's lattices share their nodes: one e^{-k} a point serves both
    emk = memoized(lambda y: exp(-k.over(y)))

    gamma_int = CumulativeIntegral(lambda y: -h.over(y) * emk(y), w.lo, var="y",
                                   arrays=True)
    gamma = YFunction(gamma_int, lambda y: -h(y) * emk(y),
                      arrays=(gamma_int.over, None, None))

    psi_int = CumulativeIntegral(emk, w.lo, var="y", arrays=True)
    psi = YFunction(lambda y: w.lo + psi_int(y), emk,
                    arrays=(lambda y: w.lo + psi_int.over(y), None, None))
    # Psi is inverted from a bracket on the y-domain, where k is read; a
    # zero-width domain keeps a bracket of width 1
    hi = w.hi if w.width else w.lo + 1.0
    change = CoordChange(gamma, psi, lambda y_new: invert_monotone(psi, y_new, w.lo, hi))

    # x -> x + Gamma moves c1 by scale * Gamma (2 Gamma for special II)
    s = m.family.scale

    def zeta1_at(y):
        return m.c1.over(y) - s * gamma.over(y)

    zeta1 = (change.pull(zeta1_at, lambda y: m.c1.d(y) - s * gamma.d(y))
             if m.c1 is not None else None)
    zeta2 = change.pull(m.c2, m.c2.d) if m.c2 is not None else None

    def at_y(y):
        return (None if m.c1 is None else zeta1_at(y),
                None if m.c2 is None else m.c2.over(y))

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
    return np.array([[1.0, 0.0], [0.0, (s := sol.y_speed(x)) * s]])
