"""The lattice CumulativeIntegral against the dict-extending Simpson it
replaced, against scipy's cumulative Simpson, and the callers that share
its work: memoized curve jets and the single y-line of y-free fields; and
the safeguarded Newton inversion of a monotone function."""
import math
from collections import Counter

import numpy as np
import pytest

from heismin import construct, integrability, lienard, numerics
from heismin.errors import QuadratureFailure
from heismin.integrability import Field2D
from heismin.models import YFunction
from heismin.numerics import (CumulativeIntegral, Window, YFunction,
                              invert_monotone)


class DictSimpson:
    """Reference: the earlier algorithm, one scalar Simpson panel at a time
    into a dict of cumulative sums, memoized on exact query values."""

    def __init__(self, f, x_base, panels_per_unit=512, var="x"):
        self.f = f
        self.x_base = float(x_base)
        self.h = 1.0 / float(panels_per_unit)
        self._cum = {0: 0.0}
        self._lo = 0
        self._hi = 0
        self._memo = {}

    def _panel(self, lo, hi):
        mid = 0.5 * (lo + hi)
        return (hi - lo) / 6.0 * (self.f(lo) + 4.0 * self.f(mid) + self.f(hi))

    def _extend(self, n):
        while self._hi < n:
            a = self.x_base + self._hi * self.h
            val = self._cum[self._hi] + self._panel(a, a + self.h)
            self._hi += 1
            self._cum[self._hi] = val
        while self._lo > n:
            a = self.x_base + self._lo * self.h
            val = self._cum[self._lo] - self._panel(a - self.h, a)
            self._lo -= 1
            self._cum[self._lo] = val

    def __call__(self, x):
        hit = self._memo.get(x)
        if hit is not None:
            return hit
        n = math.floor((x - self.x_base) / self.h)
        self._extend(n)
        a = self.x_base + n * self.h
        out = self._cum[n] + self._panel(a, x)
        if not math.isfinite(out):
            raise QuadratureFailure(f"non-finite antiderivative at x = {x}")
        self._memo[x] = out
        return out


def integrand(x):
    return math.exp(-0.3 * x) * math.cos(2.0 * x) + 0.5 * x * x


X_BASE = 0.3
PPU = 64


def test_lattice_matches_dict_reference_on_and_off_lattice():
    rng = np.random.default_rng(11)
    h = 1.0 / PPU
    on = [X_BASE + n * h for n in range(-150, 200, 7)]
    off = rng.uniform(X_BASE - 2.5, X_BASE + 3.0, 300).tolist()
    below = rng.uniform(X_BASE - 2.0, X_BASE, 50).tolist()
    queries = on + off + below + [X_BASE]
    lattice = CumulativeIntegral(integrand, X_BASE, PPU)
    ref = DictSimpson(integrand, X_BASE, PPU)
    for x in queries:
        assert abs(lattice(x) - ref(x)) <= 1e-12, x
    # a fresh pair queried in the opposite order agrees as well
    lattice = CumulativeIntegral(integrand, X_BASE, PPU)
    ref = DictSimpson(integrand, X_BASE, PPU)
    for x in reversed(queries):
        assert abs(lattice(x) - ref(x)) <= 1e-12, x


def test_lattice_nodes_match_scipy_cumulative_simpson():
    si = pytest.importorskip("scipy.integrate")
    h = 1.0 / PPU
    n = 3 * PPU
    for sign in (1, -1):
        samples = X_BASE + sign * np.arange(2 * n + 1) * (h / 2.0)
        ref = si.cumulative_simpson([integrand(x) for x in samples.tolist()],
                                    dx=sign * h / 2.0, initial=0.0)
        lattice = CumulativeIntegral(integrand, X_BASE, PPU)
        nodes = X_BASE + sign * np.arange(n + 1) * h
        got = np.array([lattice(x) for x in nodes.tolist()])
        assert np.max(np.abs(got - ref[0::2])) <= 1e-12


def test_each_node_and_midpoint_evaluated_once():
    calls = Counter()

    def f(x):
        calls[x] += 1
        return integrand(x)

    lattice = CumulativeIntegral(f, 0.25, PPU)  # every node exact in binary
    lattice(2.25)
    lattice(-0.75)
    lattice(1.25)  # on the lattice already built: no evaluation
    # nodes and midpoints of 128 + 64 panels, x_base counted once
    assert sum(calls.values()) == 2 * (128 + 64) + 1
    assert max(calls.values()) == 1
    before = sum(calls.values())
    lattice(0.75 + 0.3 / PPU)  # off the lattice: one residual panel
    assert sum(calls.values()) - before == 2


@pytest.mark.parametrize("f, x", [
    (lambda x: math.inf if x > 1.0 else x, 2.0),
    (lambda x: math.nan if x < -0.5 else 1.0, -1.0),
    (lambda x: math.inf if x == 0.7 else 1.0, 0.7),  # at the query only
], ids=["above", "below", "residual"])
def test_non_finite_integrand_raises(f, x):
    with pytest.raises(QuadratureFailure):
        CumulativeIntegral(f, X_BASE, PPU)(x)


def test_query_past_the_node_limit_raises_before_the_lattice_grows(monkeypatch):
    monkeypatch.setattr(numerics, "MAX_LATTICE_NODES", 128)
    calls = []
    lattice = CumulativeIntegral(lambda x: calls.append(x) or 1.0, 0.0, PPU)
    assert lattice(2.0) == 2.0 and lattice(-2.0) == -2.0   # node 128 either side
    grown = len(calls)
    for x in (2.0 + 1.0 / PPU, -2.0 - 1.0 / PPU, math.inf, math.nan):
        with pytest.raises(QuadratureFailure, match=r"lattice nodes from x = 0\.0, "
                                                    r"more than the limit of 128"):
            lattice(x)
    assert len(calls) == grown


def round_trip(rng):
    c = []
    for _ in range(3):
        a, b, d = rng.uniform(-0.5, 0.5, 3)
        c.append((lambda t, a=a, b=b, d=d: a * math.sin(t) + b * math.cos(t) + d * t,
                  lambda t, a=a, b=b, d=d: a * math.cos(t) - b * math.sin(t) + d,
                  lambda t, a=a, b=b: -a * math.sin(t) - b * math.cos(t)))
    curve = construct.GeneratingCurve(fns=[p[0] for p in c], d1=[p[1] for p in c],
                                      d2=[p[2] for p in c])
    z1, z2 = construct.zeta_from_curve(curve)
    c2 = construct.curve_from_zeta(z1, z2)
    z1b, z2b = construct.zeta_from_curve(c2)
    ts = np.linspace(0.1, 2.0 * math.pi - 0.1, 25).tolist()
    return np.array([[f(t) for t in ts] for f in (z1, z2, z1b, z2b, z1.d, z1b.d)])


def test_zeta_round_trip_matches_dict_reference(monkeypatch):
    new = round_trip(np.random.default_rng(3))
    monkeypatch.setattr(construct, "CumulativeIntegral", DictSimpson)
    old = round_trip(np.random.default_rng(3))
    assert np.max(np.abs(new - old)) <= 1e-12


def test_curve_callables_evaluated_once_per_t():
    calls = Counter()

    def counted(f):
        def g(t):
            calls[(g, t)] += 1
            return f(t)
        return g

    fns = [counted(math.sin), counted(math.cos), counted(lambda t: 0.1 * t)]
    d1 = [counted(math.cos), counted(lambda t: -math.sin(t)), counted(lambda t: 0.1)]
    curve = construct.GeneratingCurve(fns=fns, d1=d1)
    z1, z2 = construct.zeta_from_curve(curve)
    for t in np.linspace(0.2, 3.0, 9).tolist():
        z1(t), z2(t), curve.D(t), curve.Q(t), curve.contact_speed(t)
    assert max(calls.values()) == 1


def h2_metric(alpha, H):
    k = YFunction(lambda y: 0.1 * y, lambda y: 0.1)
    h = YFunction(lambda y: 0.3 + 0.1 * y, lambda y: 0.1)
    return integrability.metric_from_alpha_H(alpha, H, k, h, x_base=0.5)


def test_shared_y_line_matches_per_y_path(monkeypatch):
    built = []

    class Counted(CumulativeIntegral):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(integrability, "CumulativeIntegral", Counted)
    curve = lienard.OdeSolutionCurve(0.3, 0.1, 0.3, 2.8, H_const=2.0)
    pts = [(x, y) for x in (0.5, 0.93, 1.7, 2.5) for y in (0.1, 0.45, 0.9)]
    assert Field2D.constant(2.0).y_free and not Field2D(lambda x, y: 2.0).y_free

    shared = h2_metric(Field2D.from_x_profile(curve.alpha, curve.alpha_x),
                       Field2D.constant(2.0))
    ab_shared = np.array([[shared.a(x, y), shared.b(x, y)] for x, y in pts])
    assert len(built) == 2  # one (I, J) pair for all three y values

    per_y = h2_metric(Field2D(lambda x, y: curve.alpha(x)),
                      Field2D(lambda x, y: 2.0))
    ab_per_y = np.array([[per_y.a(x, y), per_y.b(x, y)] for x, y in pts])
    assert len(built) == 2 + 2 * 3
    assert np.max(np.abs(ab_shared - ab_per_y)) <= 1e-12


def test_shared_y_line_matches_dict_reference(monkeypatch):
    curve = lienard.OdeSolutionCurve(0.3, 0.1, 0.3, 2.8, H_const=2.0)
    pts = [(x, y) for x in (0.5, 1.3, 2.5) for y in (0.2, 0.8)]

    def values():
        rep = h2_metric(Field2D.from_x_profile(curve.alpha, curve.alpha_x),
                        Field2D.constant(2.0))
        return np.array([[rep.a(x, y), rep.b(x, y)] for x, y in pts])

    new = values()
    monkeypatch.setattr(integrability, "CumulativeIntegral", DictSimpson)
    assert np.max(np.abs(new - values())) <= 1e-12


@pytest.mark.parametrize("slope", [lambda s: 3.0 * s * s + 1.0, lambda s: 1e-6, lambda s: 0.0],
                         ids=["exact", "too-small", "zero"])
def test_invert_monotone_bisects_where_newton_leaves_the_bracket(slope):
    calls = []

    def g(s):
        calls.append(s)
        return s ** 3 + s

    root = invert_monotone(YFunction(g, slope), 5.0, 10.0, 12.0)   # expands down first
    assert abs(root ** 3 + root - 5.0) <= 1e-14
    assert all(-30.0 <= s <= 12.0 for s in calls)


def test_invert_monotone_newton_needs_few_evaluations():
    calls = []

    def g(s):
        calls.append(s)
        return s + 0.3 * math.sin(s)

    for target in (-2.0, 0.1, 0.7, 3.5):
        calls.clear()
        s = invert_monotone(YFunction(g, lambda s: 1.0 + 0.3 * math.cos(s)), target,
                            target - 1.0, target + 1.0)
        assert len(calls) <= 7   # two bracket ends, then Newton steps (bisection: ~45)
        assert abs(g(s) - target) <= 1e-15


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (1.0, 0.0), (2.0, 2.0), (0.0, 1e-10)],
                         ids=["ordered", "reversed", "zero-width", "narrower-than-the-pad"])
def test_inner_linspace_stays_inside_the_window(lo, hi):
    ts = Window(lo, hi).inner(5, 1e-9)
    assert min(lo, hi) <= min(ts) and max(ts) <= max(lo, hi)
    assert (ts[-1] - ts[0]) * (hi - lo) >= 0   # runs from lo toward hi
    assert Window(hi, lo).inner(5, 1e-9) == ts[::-1]


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-0.0, 0.0), (2.0, 2.0), (-3.0, 1e-300)])
def test_swapping_a_windows_ends_reverses_its_samples_and_nothing_else(a, b):
    w, s = Window(a, b), Window(b, a)
    assert (repr(w.lo), repr(w.hi), w.width) == (repr(s.lo), repr(s.hi), s.width)
    assert w.lo <= w.hi and (w.reversed != s.reversed) == (repr(a) != repr(b))
    for n in (1, 2, 5):
        assert list(map(repr, w.linspace(n))) == list(map(repr, s.linspace(n)[::-1]))
    assert w.linspace(1) == [w.lo] and w.holds(w.lo, 0.0) and not w.holds(w.hi + 1.0, 0.5)
