"""Span tracer for the benchmark's traced run.

The benchmark wraps the public entry points of each heismin module from
its own files (install() below); no program code changes.  A span is
(name, start, end, parent, op id), kept in memory in flat arrays and
written out when the run ends.  Counters sit at the same boundaries, so
ratios are measured where the work happens.

Busy time of a span name is inclusive and counts only outermost spans of
that name, so recursion is not counted twice.  Self time is a span's
duration minus the part its direct child spans cover.
"""
from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.outer = array("b")
        self._stack: list[int] = []
        self.op_labels: list[str] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.distinct: set = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def begin_op(self, label: str) -> None:
        """Spans from here on belong to a new op."""
        self.op_labels.append(label)
        self.op_id = len(self.op_labels) - 1

    def add(self, counter: str, n: int = 1) -> None:
        self.counts[counter] += n

    def wrap(self, name: str, fn):
        """fn with a span recorded around every call."""
        nid = self._id(name)
        depth, stack = self._depth, self._stack
        names, start, end, parent, ops, outer = (
            self.name, self.start, self.end, self.parent, self.op, self.outer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            outer.append(depth[nid] == 0)
            end.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                depth[nid] -= 1
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def counting(self, counter: str, fn):
        """fn with a call counter and no span."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def user_callable(self, fn):
        """A user-supplied scalar callable, counted per call and per
        distinct (callable, argument) pair."""
        counts, seen = self.counts, self.distinct

        def counted(t):
            counts["integrand_evals"] += 1
            seen.add((counted, t))
            return fn(t)

        return counted

    # ----------------------------------------------------------- summary

    def arrays(self):
        n = len(self.name)
        name = np.frombuffer(self.name, dtype=np.int32, count=n)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        return name, start, end, parent

    def summary(self):
        """Per span name: number of spans, busy (inclusive, outermost)
        seconds and self seconds."""
        name, start, end, parent = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(name))
        own = dur - child
        outer = np.frombuffer(self.outer, dtype=np.int8, count=len(name)).astype(bool)
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            out[label] = {"count": int(sel.sum()),
                          "busy_s": float(dur[sel & outer].sum()),
                          "self_s": float(own[sel].sum())}
        return out

    def save(self, path: str) -> None:
        name, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.array(self.names),
                            op_labels=np.array(self.op_labels), name=name,
                            start=start, end=end, parent=parent,
                            op=np.frombuffer(self.op, dtype=np.int32, count=len(name)))


# ------------------------------------------------------------ instrumenting

def _swap(old, new):
    """Replace old by new wherever a heismin module holds it."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "heismin" or modname.startswith("heismin.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def _patch(tracer, module, attr, make):
    old = getattr(module, attr)
    _swap(old, make(old))


class _TracedAst:
    """An expression AST whose eval is a span; derivatives stay traced."""

    def __init__(self, tracer, node):
        self._tracer = tracer
        self.node = node
        self.eval = tracer.wrap("expr.eval", node.eval)

    def deriv(self, var=None):
        return _TracedAst(self._tracer, self.node.deriv(var))

    def __getattr__(self, attr):
        return getattr(self.node, attr)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every heismin layer.  heis has no
    spans: only chart maps call it, so its time is inside
    construct.chart_point."""
    from heismin import cli, construct, expr, integrability, lienard, models, numerics, verify

    span = tracer.wrap

    # numerics: lattice quadrature and monotone inversion
    numerics.CumulativeIntegral.__call__ = span(
        "numerics.integral", numerics.CumulativeIntegral.__call__)
    _patch(tracer, numerics, "simpson_panel",
           lambda f: tracer.counting("simpson_panels", f))
    _patch(tracer, numerics, "invert_monotone", lambda f: span("numerics.inversion", f))

    # expr: parsing, and every evaluation of a parsed tree
    for attr in ("parse_expr", "parse_expr_multi"):
        def make(f):
            parse = span("expr.parse", f)
            return lambda *a, **k: _TracedAst(tracer, parse(*a, **k))
        _patch(tracer, expr, attr, make)

    # lienard: RK4 steps, IVP runs, fits, profile queries
    _patch(tracer, lienard, "_rk4_step", lambda f: tracer.counting("rk4_steps", f))

    def ivp(f):
        traced = span("lienard.ivp", f)

        def run(*a, **k):
            out = traced(*a, **k)
            tracer.add("ivp_steps", len(out) - 1)
            return out
        return run

    _patch(tracer, lienard, "integrate_ivp", ivp)
    _patch(tracer, lienard, "fit_solution", lambda f: span("lienard.fit", f))
    _patch(tracer, lienard, "phase_field", lambda f: span("lienard.phase_field", f))
    lienard.OdeSolutionCurve.__init__ = span("lienard.profile",
                                             lienard.OdeSolutionCurve.__init__)
    lienard.OdeSolutionCurve.state = span("lienard.curve_query",
                                          lienard.OdeSolutionCurve.state)

    # models: closed-form metric evaluations, normalization
    def rep_maker(build_span, eval_span):
        def make(f):
            build = span(build_span, f)

            def run(*a, **k):
                rep = build(*a, **k)
                rep.a = span(eval_span, rep.a)
                rep.b = span(eval_span, rep.b)
                return rep
            return run
        return make

    _patch(tracer, models, "metric_rep", rep_maker("models.metric_rep", "models.metric"))
    _patch(tracer, models, "normalize", lambda f: span("models.normalize", f))
    _patch(tracer, models, "classify", lambda f: span("models.classify", f))

    # integrability: quadrature-built metric and the residual kernel
    _patch(tracer, integrability, "metric_from_alpha_H",
           rep_maker("integrability.metric_build", "integrability.quadrature_metric"))

    def residual(f):
        traced = span("integrability.residual", f)

        def run(alpha, H, rep, grid, *a, **k):
            tracer.add("residual_points", len(integrability.expand_grid(grid)))
            return traced(alpha, H, rep, grid, *a, **k)
        return run

    _patch(tracer, integrability, "integrability_residual", residual)

    # construct: zeta queries and chart points
    def zetas(f):
        traced = span("construct.zeta_from_curve", f)

        def run(*a, **k):
            out = traced(*a, **k)
            for yf in out:
                yf.f = span("construct.zeta", yf.f)
                yf.df = span("construct.zeta", yf.df)
            return out
        return run

    _patch(tracer, construct, "zeta_from_curve", zetas)
    _patch(tracer, construct, "curve_from_zeta",
           lambda f: span("construct.curve_from_zeta", f))

    def chart(f):
        def run(*a, **k):
            c = f(*a, **k)
            c.point = span("construct.chart_point", c.point)
            return c
        return run

    for attr in ("ruled_surface", "conicoid_chart", "helicoid_chart",
                 "bernstein_plane", "bernstein_saddle"):
        _patch(tracer, construct, attr, chart)

    # verify: PDE residual, singular set and its Newton seeds
    _patch(tracer, verify, "pmge_residual", lambda f: span("verify.pmge", f))
    _patch(tracer, verify, "singular_set", lambda f: span("verify.singular_set", f))

    def newton(f):
        def run(*a, **k):
            tracer.add("newton_seeds")
            try:
                return f(*a, **k)
            except verify.NewtonDivergence:
                tracer.add("newton_failures")
                raise
        return run

    _patch(tracer, verify, "_newton_zero", newton)

    # cli: commands, formatters and writers
    _patch(tracer, cli, "main", lambda f: span("cli.main", f))
    for attr in ("_csv", "mesh_obj", "_emit_json"):
        _patch(tracer, cli, attr, lambda f: span("cli.format", f))

    def writer(f):
        traced = span("cli.format", f)

        def run(path, text):
            if path is not None:
                tracer.add("cli.rows_written", text.count("\n"))
                tracer.add("cli.bytes_written", len(text))
            return traced(path, text)
        return run

    _patch(tracer, cli, "_write_text", writer)


# per-layer metrics: (name, unit, how to read it off the summary)
def layer_metrics(tracer: Tracer, overhead_s: float):
    s = tracer.summary()
    c = tracer.counts

    def count(n):
        return s.get(n, {}).get("count", 0)

    def busy(n):
        return s.get(n, {}).get("busy_s", 0.0)

    def own(n):
        return s.get(n, {}).get("self_s", 0.0)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    evals = c["integrand_evals"]
    fmt_s = own("cli.format")
    m = [
        ("numerics.integrand_evals", "count", evals),
        ("numerics.integrand_distinct", "count", len(tracer.distinct)),
        ("numerics.integrand_useful_ratio", "ratio", rate(len(tracer.distinct), evals)),
        ("numerics.simpson_panels", "count", c["simpson_panels"]),
        ("numerics.integral_queries", "count", count("numerics.integral")),
        ("numerics.integral_s", "s", busy("numerics.integral")),
        ("numerics.integral_self_s", "s", own("numerics.integral")),
        ("numerics.inversions", "count", count("numerics.inversion")),
        ("numerics.inversion_s", "s", busy("numerics.inversion")),
        ("construct.zeta_queries", "count", count("construct.zeta")),
        ("construct.zeta_s", "s", busy("construct.zeta")),
        ("construct.chart_points", "count", count("construct.chart_point")),
        ("construct.chart_point_s", "s", busy("construct.chart_point")),
        ("integrability.residual_points", "count", c["residual_points"]),
        ("integrability.residual_s", "s", busy("integrability.residual")),
        ("integrability.residual_points_per_s", "1/s",
         rate(c["residual_points"], busy("integrability.residual"))),
        ("integrability.quadrature_metric_evals", "count",
         count("integrability.quadrature_metric")),
        ("integrability.quadrature_metric_s", "s", busy("integrability.quadrature_metric")),
        ("lienard.rk4_steps", "count", c["rk4_steps"]),
        ("lienard.ivp_s", "s", busy("lienard.ivp")),
        ("lienard.rk4_steps_per_s", "1/s", rate(c["ivp_steps"], busy("lienard.ivp"))),
        ("lienard.fits", "count", count("lienard.fit")),
        ("lienard.fit_s", "s", busy("lienard.fit")),
        ("lienard.curve_queries", "count", count("lienard.curve_query")),
        ("lienard.curve_query_s", "s", busy("lienard.curve_query")),
        ("models.metric_evals", "count", count("models.metric")),
        ("models.metric_s", "s", busy("models.metric")),
        ("models.metric_points_per_s", "1/s",
         rate(count("models.metric"), busy("models.metric"))),
        ("expr.evals", "count", count("expr.eval")),
        ("expr.eval_s", "s", busy("expr.eval")),
        ("expr.parse_s", "s", busy("expr.parse")),
        ("verify.pmge_points", "count", count("verify.pmge")),
        ("verify.pmge_s", "s", busy("verify.pmge")),
        ("verify.newton_seeds", "count", c["newton_seeds"]),
        ("verify.newton_failures", "count", c["newton_failures"]),
        ("verify.singular_set_s", "s", busy("verify.singular_set")),
        ("verify.seeds_per_s", "1/s", rate(c["newton_seeds"], busy("verify.singular_set"))),
        ("cli.rows_written", "count", c["cli.rows_written"]),
        ("cli.bytes_written", "B", c["cli.bytes_written"]),
        ("cli.format_s", "s", fmt_s),
        ("cli.format_bytes_per_s", "B/s", rate(c["cli.bytes_written"], fmt_s)),
        ("trace.overhead_s", "s", overhead_s),
    ]
    return {name: {"value": value, "unit": unit} for name, unit, value in m}
