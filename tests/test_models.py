import math

import numpy as np
import pytest

from heismin import lienard, models
from heismin.errors import MixedType, SingularPoint
from heismin.models import AlphaModel, SurfaceType, YFunction


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


def test_metric_rep_analytic_x_partials():
    m = AlphaModel(lienard.General, yconst(0.1), yconst(1.5))
    rep = models.metric_rep(m, yconst(0.0), yconst(1.0))
    h = 1e-6
    for x in (0.7, 1.9):
        fd = (rep.a(x + h, 0.5) - rep.a(x - h, 0.5)) / (2 * h)
        assert rep.a_x(x, 0.5) == pytest.approx(fd, rel=1e-7, abs=1e-9)
        fd = (rep.b(x + h, 0.5) - rep.b(x - h, 0.5)) / (2 * h)
        assert rep.b_x(x, 0.5) == pytest.approx(fd, rel=1e-7, abs=1e-9)


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
    new_rep = models.apply_coord_change(rep, change)
    for y in (0.15, 0.5, 0.85):
        y_new = change.psi(y)
        x_new = 1.0 + change.gamma(y)
        assert new_rep.a(x_new, y_new) == pytest.approx(0.0, abs=1e-9)
        assert new_rep.b(x_new, y_new) > 0


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
    change = models.CoordChange(
        gamma=YFunction.from_expr("0.3*sin(y)"),
        psi=YFunction.from_expr("2*y + 0.1*sin(y)"),
    )
    inv = models.inverse_coord_change(change)
    for y in (0.2, 1.1):
        y_new = change.psi(y)
        assert inv.psi(y_new) == pytest.approx(y, abs=1e-10)
        assert inv.gamma(y_new) == pytest.approx(-change.gamma(y), abs=1e-10)


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


def test_connection_form_matches_fd_path():
    m = AlphaModel(lienard.General, yconst(0.1), yconst(1.5))
    rep = models.metric_rep(m, yconst(0.1), yconst(0.4))
    w1a, w2a = models.connection_form(rep, 1.1, 0.5)
    bare = models.MetricRep(a=rep.a, b=rep.b)  # no analytic partials
    w1b, w2b = models.connection_form(bare, 1.1, 0.5)
    assert w1a == pytest.approx(w1b, abs=1e-6)
    assert w2a == pytest.approx(w2b, abs=1e-6)


def test_fallback_partials_difference_the_current_a():
    rep = models.MetricRep(a=lambda x, y: x * x, b=lambda x, y: 1.0)
    rep.a = lambda x, y: 3.0 * x  # replaced after the rep is built
    assert rep.a_x(1.0, 0.0) == pytest.approx(3.0)
    # the rep is gone: the fallback differences the a it was built with
    a_x = models.MetricRep(a=lambda x, y: x * x, b=lambda x, y: 1.0).a_x
    assert a_x(1.0, 0.0) == pytest.approx(2.0)


def test_connection_form_requires_positive_b():
    rep = models.MetricRep(a=lambda x, y: 0.0, b=lambda x, y: 0.0)
    with pytest.raises(SingularPoint):
        models.connection_form(rep, 0.0, 0.0)


def test_maximal_domains():
    z1 = yconst(0.5)
    d = models.maximal_domain(z1, None, SurfaceType.SPECIAL_I)
    assert d.pieces["plus"](1.0, 0.0) and not d.pieces["plus"](-1.0, 0.0)
    assert d.boundaries[0](0.0) == -0.5
    d2 = models.maximal_domain(z1, None, SurfaceType.SPECIAL_II)
    assert d2.boundaries[0](0.0) == -0.25
    d3 = models.maximal_domain(yconst(0.0), yconst(-1.0),
                               SurfaceType.TYPE_III)
    assert d3.pieces["between"](0.0, 0.0)
    assert not d3.pieces["between"](1.5, 0.0)
    d4 = models.maximal_domain(yconst(0.0), yconst(-1.0),
                               SurfaceType.TYPE_II)
    assert d4.pieces["plus"](1.5, 0.0) and d4.pieces["minus"](-1.5, 0.0)
    assert not d4.pieces["plus"](0.5, 0.0)
    d5 = models.maximal_domain(None, None, SurfaceType.TYPE_I)
    assert d5.pieces["all"](7.0, -2.0)
