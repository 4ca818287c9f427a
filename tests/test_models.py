import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heismin import construct, integrability, lienard, models
from heismin.errors import EvaluationError, MixedType, SingularPoint
from heismin.models import AlphaModel, SurfaceType, YFunction
from heismin.numerics import Field2D
from test_lienard import EXTREMES, library_outcome


def yconst(c):
    return YFunction.constant(c)


def test_yfunction_from_expr_derivative():
    f = YFunction.from_expr("sin(2*y)")
    assert f(0.3) == pytest.approx(math.sin(0.6))
    assert f.d(0.3) == pytest.approx(2 * math.cos(0.6))


def test_classify_simple_kinds():
    assert models.classify(AlphaModel(lienard.Zero)) is SurfaceType.VERTICAL
    assert models.classify(AlphaModel(lienard.SpecialI, yconst(1.0))) \
        is SurfaceType.SPECIAL_I
    assert models.classify(AlphaModel(lienard.SpecialII, yconst(1.0))) \
        is SurfaceType.SPECIAL_II


def test_classify_general_positive_c2():
    m = AlphaModel(lienard.General, yconst(0.0), yconst(1.0))
    assert models.classify(m) is SurfaceType.TYPE_I


def test_classify_general_negative_c2():
    m = AlphaModel(lienard.General, yconst(0.0), yconst(-1.0))
    assert models.classify(m, x_window=(-0.5, 0.5)) is SurfaceType.TYPE_III
    assert models.classify(m, x_window=(1.5, 2.5)) is SurfaceType.TYPE_II
    assert models.classify(m, x_window=(-2.5, -1.5)) is SurfaceType.TYPE_II


def test_classify_mixed_type_errors():
    m = AlphaModel(lienard.General, yconst(0.0), YFunction.from_expr("y - 0.5"),
                   (0.0, 1.0))
    with pytest.raises(MixedType):
        models.classify(m)
    neg = AlphaModel(lienard.General, yconst(0.0), yconst(-1.0))
    with pytest.raises(MixedType):
        models.classify(neg, x_window=(0.5, 1.5))  # straddles x = 1
    with pytest.raises(MixedType):
        models.classify(neg, x_window=(-2.0, 2.0))  # spans the gap
    with pytest.raises(MixedType):
        models.classify(neg)  # needs a window


@pytest.mark.parametrize("t", list(SurfaceType))
def test_normal_model_family_has_the_type(t):
    assert t in models._normal_model(t, yconst(0.0), yconst(-1.0)).family.types


@pytest.mark.parametrize("c2, window, needle", [
    ("y - 0.51", (1.5, 2.5), "the type is TypeII at y = 1e-09 but TypeI at y = 0.53124999"),
    ("y - 0.5", (1.5, 2.5), "c2 vanishes at y = 0.5"),
    ("-1", (2.0, -2.0), "x-window [-2.0, 2.0] meets the singular curves x = -1.0 "
                        "and x = 1.0 at y = 1e-09"),
], ids=["sign-change", "vanishes", "reversed-window-spans-the-gap"])
def test_classify_errors_name_the_y(c2, window, needle):
    m = AlphaModel(lienard.General, yconst(0.0), YFunction.from_expr(c2))
    with pytest.raises((MixedType, SingularPoint)) as info:
        models.classify(m, x_window=window)
    assert needle in str(info.value)


@pytest.mark.parametrize("family, cs, name", [
    (lienard.General, ("0", "1e400"), "general family requires a finite c2, not inf"),
    (lienard.SpecialI, ("1e400*(y - 0.25)",), "special I family requires a finite c1, not -inf"),
])
def test_a_slice_with_a_constant_that_is_not_finite_names_it_and_the_y(family, cs, name):
    # the error names the constant and the y, not a point x of the slice
    m = AlphaModel(family, *map(YFunction.from_expr, cs))
    with pytest.raises(EvaluationError, match=f"^cannot evaluate at y = 0.0: {name}$"):
        m.slice_at(0.0)


def test_metric_rep_gauge_ratio():
    # a/b = h e^{-k} for every non-vertical family
    k = YFunction.from_expr("0.2*y")
    h = YFunction.from_expr("1 + 0.3*y")
    for m in (AlphaModel(lienard.SpecialI, yconst(0.5)),
              AlphaModel(lienard.SpecialII, yconst(0.5)),
              AlphaModel(lienard.General, yconst(0.1), yconst(2.0))):
        rep = models.metric_rep(m, k, h)
        for x in (0.5, 1.2, 2.4):
            for y in (0.1, 0.8):
                assert rep.a(x, y) / rep.b(x, y) == pytest.approx(
                    h(y) * math.exp(-k(y)), rel=1e-12)


def test_metric_rep_vertical_branch():
    rep = models.metric_rep(AlphaModel(lienard.Zero), yconst(0.3), yconst(0.7))
    assert rep.a(5.0, 0.5) == 0.7
    assert rep.b(5.0, 0.5) == pytest.approx(math.exp(0.3))
    assert rep.a_x(5.0, 0.5) == 0.0


def test_metric_rep_x_partials_check_the_closed_form(monkeypatch):
    # a_x and b_x are differences of a and b, not the second integrability
    # equation written out, so the check catches a metric that breaks it
    m = AlphaModel(lienard.General, YFunction.from_expr("0.1 + 0.2*y"),
                   YFunction.from_expr("1.5 + y"), (0.0, 1.0))
    alpha, H = Field2D.from_model(m), Field2D.constant(0.0)
    grid = (np.linspace(0.5, 2.5, 25), np.linspace(0.05, 0.95, 10))
    k, h = YFunction.from_expr("0.3*y"), YFunction.from_expr("1 + y")

    def residual():
        rep = models.metric_rep(m, k, h)
        return integrability.integrability_residual(alpha, H, rep, grid).max

    assert max(residual().values()) <= 1e-7
    metric_factor = lienard.General.metric_factor   # 1/y_speed, y_speed scaled by 1 + 0.1 x
    monkeypatch.setattr(lienard.General, "metric_factor",
                        lambda self, x: metric_factor(self, x) / (1.0 + 0.1 * x))
    assert residual()[2] > 1e-3


def test_metric_regular_where_alpha_vanishes():
    # c1 = 0, c2 = -1: alpha = 0 at x = 0, where the general factor
    # 1/(|x^2 + c2| sqrt(1 + alpha^2)) is 1
    m = AlphaModel(lienard.General, yconst(0.0), yconst(-1.0))
    rep = models.metric_rep(m, yconst(0.3), yconst(0.7))
    assert rep.a(0.0, 0.5) == 0.7
    assert rep.b(0.0, 0.5) == math.exp(0.3)


@pytest.mark.parametrize("x", [-1.0, 1.0])
def test_metric_singular_on_the_singular_curves(x):
    m = AlphaModel(lienard.General, yconst(0.0), yconst(-1.0))
    rep = models.metric_rep(m, yconst(0.0), yconst(1.0))
    with pytest.raises(SingularPoint):
        rep.a(x, 0.5)  # x^2 + c2 = 0
    with pytest.raises(SingularPoint):
        rep.b(x, 0.5)


def test_normalize_identity_gauge():
    m = AlphaModel(lienard.General, YFunction.from_expr("sin(y)"), yconst(1.0),
                   (0.0, 1.0))
    nf, change = models.normalize(m, yconst(0.0), yconst(0.0))
    assert nf.surface_type is SurfaceType.TYPE_I
    for y in (0.1, 0.5, 0.9):
        assert change.gamma(y) == pytest.approx(0.0, abs=1e-12)
        assert change.psi(y) == pytest.approx(y, abs=1e-12)
        assert nf.zeta1(y) == pytest.approx(math.sin(y), abs=1e-10)
        assert nf.zeta2(y) == pytest.approx(1.0, abs=1e-12)


def test_normalize_kills_a():
    m = AlphaModel(lienard.General, YFunction.from_expr("0.2*y"), yconst(2.0),
                   (0.0, 1.0))
    k = YFunction.from_expr("0.1*y")
    h = YFunction.from_expr("0.4 + 0.2*y")
    rep = models.metric_rep(m, k, h)
    nf, change = models.normalize(m, k, h)
    # e2^ = a d/dx + b d/dy reads a~ = a + b Gamma' in x~ = x + Gamma(y)
    for y in (0.15, 0.5, 0.85):
        a_new = rep.a(1.0, y) + rep.b(1.0, y) * change.gamma.d(y)
        assert a_new == pytest.approx(0.0, abs=1e-9)
        assert rep.b(1.0, y) * change.psi.d(y) > 0


def test_normalize_zeta_against_direct_alpha():
    # in new coordinates alpha~(x~, y~) = model with c1 replaced by zeta1
    m = AlphaModel(lienard.General, YFunction.from_expr("0.3*cos(y)"), yconst(1.2),
                   (0.0, 1.0))
    k = YFunction.from_expr("0.2*y")
    h = YFunction.from_expr("0.5")
    nf, change = models.normalize(m, k, h)
    for y in (0.2, 0.7):
        y_new = change.psi(y)
        for x in (0.6, 1.4):
            x_new = x + change.gamma(y)
            direct = m.slice_at(y).alpha(x)
            X = x_new + nf.zeta1(y_new)
            via_nf = X / (X * X + nf.zeta2(y_new))
            assert via_nf == pytest.approx(direct, abs=1e-10)


def test_inverse_coord_change_round_trip():
    m = AlphaModel(lienard.General, YFunction.from_expr("0.2*y"), yconst(2.0),
                   (0.0, 2.0))
    _, change = models.normalize(m, YFunction.from_expr("0.3*sin(y)"),
                                 YFunction.from_expr("0.5"))
    gamma_new = change.pull(change.gamma, change.gamma.d)
    for y in (0.2, 1.1):
        y_new = change.psi(y)
        assert change.invert_y(y_new) == pytest.approx(y, abs=1e-10)
        assert gamma_new(y_new) == pytest.approx(change.gamma(y), abs=1e-10)
        assert gamma_new.d(y_new) == pytest.approx(
            change.gamma.d(y) / change.psi.d(y), abs=1e-10)


def test_first_fundamental_form_shapes():
    nf1 = models.NormalForm(SurfaceType.SPECIAL_I, yconst(0.0), None)
    g = models.first_fundamental_form(nf1, 2.0, 0.0)
    assert g[0, 0] == 1.0 and g[0, 1] == 0.0
    assert g[1, 1] == pytest.approx(4.0 + 16.0)
    nf2 = models.NormalForm(SurfaceType.SPECIAL_II, yconst(1.0), None)
    g = models.first_fundamental_form(nf2, 1.0, 0.0)
    assert g[1, 1] == pytest.approx(1.0 + 9.0)
    nfg = models.NormalForm(SurfaceType.TYPE_I, yconst(0.0), yconst(1.0))
    g = models.first_fundamental_form(nfg, 1.0, 0.0)
    assert g[1, 1] == pytest.approx(1.0 + 4.0)
    nfv = models.NormalForm(SurfaceType.VERTICAL, None, None)
    assert models.first_fundamental_form(nfv, 0.0, 0.0)[1, 1] == 1.0
    # a vanishing zeta2 is singular here as everywhere else
    nf0 = models.NormalForm(SurfaceType.TYPE_I, yconst(0.0), yconst(0.0))
    with pytest.raises(SingularPoint, match="c2 vanishes"):
        models.first_fundamental_form(nf0, 1.0, 0.0)


@given(st.lists(st.sampled_from(EXTREMES) | st.floats(), min_size=6, max_size=6),
       st.sampled_from(lienard.FAMILIES))
@settings(derandomize=True, max_examples=100, deadline=None)
def test_models_integrability_construct_raise_only_library_errors(a, family):
    # the public functions of models, integrability and construct that take
    # floats, at ROADMAP item 12's extreme and at random doubles; numpy's
    # overflow warnings are silenced, as in the lienard property
    x, y, row = a[4], a[5], np.array([a[4], a[2], 0.5])
    cs = [yconst(c) for c in a[:2]][:len(dataclasses.fields(family))]
    with np.errstate(all="ignore"):
        m = AlphaModel(family, *cs, y_domain=(0.0, 1.0))
        library_outcome(None, m.slice_at, y)
        library_outcome(None, models.classify, m, (a[2], a[3]))
        rep = models.metric_rep(m, yconst(a[2]), yconst(a[3]))
        for f in (rep.a, rep.b):
            library_outcome(None, f, x, y)
            library_outcome(None, f, row, 0.5)
        out = library_outcome(None, models.normalize, m, yconst(a[2]), yconst(a[3]))
        if out is not None:
            nf, change = out
            library_outcome(None, nf.at_y, y)
            library_outcome(None, change.psi, y)
            library_outcome(None, models.first_fundamental_form, nf, x, 0.5)
        alpha, H = Field2D.from_model(m), Field2D.constant(a[3])
        rep = library_outcome(None, integrability.metric_from_alpha_H, alpha, H,
                              yconst(a[2]), yconst(0.0), a[4])
        if rep is not None:
            library_outcome(None, rep.a, 0.5, 0.5)
            library_outcome(None, integrability.integrability_residual, alpha, H, rep,
                            ([0.5, 1.0], [0.25, 0.75]))
        for chart in (lambda: construct.bernstein_plane(*a[:3]),
                      lambda: construct.bernstein_saddle(a[0], a[1], yconst(a[2])),
                      lambda: construct.helicoid_chart(yconst(a[2])),
                      lambda: construct.conicoid_chart(((a[0], a[1]), (a[2], a[3])))):
            c = library_outcome(None, chart)
            if c is not None:
                library_outcome(None, c.point, x, y)
        curve = construct.curve_from_zeta(yconst(a[0]), yconst(a[1]), (0.0, 1.0))
        library_outcome(None, curve.point, x)
        library_outcome(None, construct.curve_invariants, curve, a[2], x)
        for z in construct.zeta_from_curve(curve):
            library_outcome(None, z, x)
        library_outcome(None, construct.ruled_surface(curve, (a[2], a[3])).point, 0.5, x)
