"""Seeded inputs and operations of the three benchmark workloads.

Each workload is a closed loop: one client in one process makes its
pipeline calls back to back on one thread.  build(workload, seed, ...)
returns the workload's operations; the same seed gives the same inputs,
and the program only ever sees those generated inputs.  Every operation
has a timed run() that goes through heismin's public functions (the CLI
in-process where the workload is a CLI pipeline) and an untimed check()
that hands the result to an oracle in oracles.py.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import oracles
from heismin import cli, construct, integrability, lienard, models

WORKLOADS = ("quadrature", "grid", "ode")

# end-to-end op metrics per workload, in report order
OP_METRICS = {
    "quadrature": ("roundtrip_s", "integrability_h2_s"),
    "grid": ("metric_s", "verify_graph_s", "obj_s", "normalize_s"),
    "ode": ("ivp_s", "fit_sweep_s"),
}

TWO_PI = 2.0 * math.pi


@dataclass
class Op:
    """One pipeline call.  metric names the end-to-end metric its time
    feeds (ops sharing a metric within a pass are summed); check raises
    OracleError."""

    label: str
    metric: Optional[str]
    run: Callable[[], object]
    check: Callable[[object], None]


def _num(v: float) -> str:
    return f"({v!r})" if v < 0 else repr(v)


class Context:
    """Where CLI outputs go, plus the tracer of a traced pass (or None)."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.tracer = None

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def cli(self, argv):
        """Run the CLI in-process; returns (exit code, captured stdout)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        out = buf.getvalue()
        if self.tracer is not None:
            self.tracer.add("cli.bytes_written", len(out))
        return rc, out

    def take(self, name: str) -> str:
        """Read and delete a file the CLI wrote."""
        path = self.path(name)
        with open(path) as fh:
            text = fh.read()
        os.remove(path)
        return text


def _cli_result(rc, out):
    if rc != 0:
        raise oracles.OracleError(f"exit code {rc}")
    return json.loads(out) if out.strip() else None


# ------------------------------------------------------------ quadrature

class Curve:
    """A seeded generating curve of criterion 7's shape: each component
    is c0 sin t + c1 cos t + c2 sin 2t + c3 t/5 with c ~ U(-0.5, 0.5)."""

    def __init__(self, coeffs):
        self.c = np.asarray(coeffs, dtype=float).reshape(3, 4)

    def value(self, i, t):
        c = self.c[i]
        return c[0] * np.sin(t) + c[1] * np.cos(t) + c[2] * np.sin(2 * t) + c[3] * t / 5.0

    def deriv(self, i, t):
        c = self.c[i]
        return c[0] * np.cos(t) - c[1] * np.sin(t) + 2 * c[2] * np.cos(2 * t) + c[3] / 5.0

    def generating_curve(self, wrap=None):
        """The curve as heismin sees it: nine scalar callables.  wrap, when
        given, decorates each callable (the traced run counts calls)."""
        fns, d1, d2 = [], [], []
        for c0, c1, c2, c3 in self.c.tolist():
            fns.append(lambda t, a=c0, b=c1, c=c2, d=c3: (
                a * math.sin(t) + b * math.cos(t) + c * math.sin(2 * t) + d * t / 5.0))
            d1.append(lambda t, a=c0, b=c1, c=c2, d=c3: (
                a * math.cos(t) - b * math.sin(t) + 2 * c * math.cos(2 * t) + d / 5.0))
            d2.append(lambda t, a=c0, b=c1, c=c2: (
                -a * math.sin(t) - b * math.cos(t) - 4 * c * math.sin(2 * t)))
        if wrap is not None:
            fns, d1, d2 = ([wrap(f) for f in group] for group in (fns, d1, d2))
        return construct.GeneratingCurve(fns=fns, d1=d1, d2=d2,
                                         interval=(0.0, TWO_PI))


def _round_trip_op(ctx, curve):
    ts = np.linspace(0.1, TWO_PI - 0.1, 40)

    def run():
        wrap = ctx.tracer.user_callable if ctx.tracer is not None else None
        c = curve.generating_curve(wrap)
        z1, z2 = construct.zeta_from_curve(c)
        c2 = construct.curve_from_zeta(z1, z2, (0.0, TWO_PI))
        z1b, z2b = construct.zeta_from_curve(c2)
        return {"ts": ts,
                "z1": [z1(t) for t in ts], "z2": [z2(t) for t in ts],
                "z1b": [z1b(t) for t in ts], "z2b": [z2b(t) for t in ts]}

    return Op("zeta round trip", "roundtrip_s", run,
              lambda out: oracles.check_round_trip(curve, out))


def _h2_op(inp):
    xs = np.linspace(0.5, 2.5, 50)
    ys = np.linspace(0.05, 0.95, 20)
    samples = [(x, y) for x in (0.5, 1.0, 1.5, 2.0, 2.5) for y in ys[[0, 10, 19]]]

    def run():
        curve = lienard.OdeSolutionCurve(inp["alpha0"], inp["v0"], inp["x_lo"],
                                         inp["x_hi"], H_const=inp["H"])
        alpha = integrability.Field2D.from_x_profile(curve.alpha, curve.alpha_x)
        H = integrability.Field2D.constant(inp["H"])
        kk, (h0, h1) = inp["k"][0], inp["h"]
        k = models.YFunction(lambda y: kk * y, lambda y: kk)
        h = models.YFunction(lambda y: h0 + h1 * y, lambda y: h1)
        rep = integrability.metric_from_alpha_H(alpha, H, k, h, inp["x_base"])
        stats = integrability.integrability_residual(alpha, H, rep, (xs, ys))
        return {"residual": stats.overall_max(), "points": samples,
                "ab": [[rep.a(x, y), rep.b(x, y)] for x, y in samples]}

    return Op("integrability H=2", "integrability_h2_s", run,
              lambda out: oracles.check_h2_metric(inp, out))


def _construct_op(ctx, inp):
    (a0, a1), (b0, b1) = inp["zeta1"], inp["zeta2"]
    argv = ["construct", "--zeta1", f"{_num(a0)}+{_num(a1)}*sin(theta)",
            "--zeta2", f"{_num(b0)}+{_num(b1)}*cos(theta)",
            "--nr", str(inp["nr"]), "--ntheta", str(inp["ntheta"]),
            "--obj", ctx.path("construct.obj")]

    def check(res):
        payload = _cli_result(*res)
        oracles.check_construct(inp, payload, ctx.take("construct.obj"))

    return Op("construct --obj", None, lambda: ctx.cli(argv), check)


def quadrature_ops(ctx, rng):
    curve = Curve(rng.uniform(-0.5, 0.5, 12))
    h2 = {"alpha0": float(rng.uniform(0.2, 0.4)), "v0": float(rng.uniform(-0.1, 0.2)),
          "x_lo": 0.49, "x_hi": 2.51, "x_base": 0.5, "H": 2.0,
          "k": [float(rng.uniform(0.05, 0.2))],
          "h": [float(rng.uniform(0.2, 0.4)), float(rng.uniform(0.0, 0.2))]}
    zeta = {"zeta1": [float(rng.uniform(0.3, 0.7)), float(rng.uniform(-0.3, 0.3))],
            "zeta2": [float(rng.uniform(0.5, 1.0)), float(rng.uniform(-0.3, 0.3))],
            "nr": 16, "ntheta": 48, "r_min": 0.5, "r_max": 2.0}
    return [_round_trip_op(ctx, curve), _h2_op(h2), _construct_op(ctx, zeta)]


# ------------------------------------------------------------------- grid

def grid_ops(ctx, rng):
    u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    metric = {"c1": [u(0.1, 0.5), u(-0.1, 0.1)], "c2": [u(0.5, 1.5), u(-0.3, 0.3)],
              "k": [u(-0.5, 0.5)], "h": [u(0.2, 0.6), u(-0.2, 0.2)],
              "x_min": 0.5, "x_max": 2.5, "y_min": 0.0, "y_max": 1.0,
              "nx": 201, "ny": 101}
    plane = {"coeffs": [u(-2, 2), u(-2, 2), u(-2, 2)]}
    saddle = {"coeffs": [u(0.1, 0.3), u(-0.5, 0.5)], "window": ((-3.0, 3.0), (-3.0, 3.0))}
    conicoid = {"nu": 200, "nv": 200}
    norm = {"c1": [u(0.1, 0.5), u(-0.2, 0.2)], "c2": [u(0.5, 1.0), u(0.0, 0.5)],
            "kappa": u(0.2, 0.8), "eta": u(0.1, 0.5),
            "y_min": 0.0, "y_max": 1.0, "samples": 2000}

    def fmt(name, p):
        return f"{_num(p[0])}+{_num(p[1])}*{name}(y)"

    m_argv = ["metric", "--alpha", "general", "--c1", fmt("sin", metric["c1"]),
              "--c2", fmt("cos", metric["c2"]), "--k", f"{_num(metric['k'][0])}*y",
              "--h", f"{_num(metric['h'][0])}+{_num(metric['h'][1])}*y",
              "--nx", "201", "--ny", "101", "--out", ctx.path("metric.csv")]
    A, B, C = plane["coeffs"]
    p_argv = ["verify-graph", "--u", f"{_num(A)}*x+{_num(B)}*y+{_num(C)}",
              "--nx", "101", "--ny", "101"]
    c, d = saddle["coeffs"]
    s_argv = ["verify-graph", "--u", f"x*y+{_num(c)}*y^2+{_num(d)}*y",
              "--nx", "101", "--ny", "101"]
    k_argv = ["examples", "conicoid", "--nu", "200", "--nv", "200",
              "--obj", ctx.path("conicoid.obj")]
    n_argv = ["normalize", "--alpha", "general", "--c1", fmt("sin", norm["c1"]),
              "--c2", f"{_num(norm['c2'][0])}+{_num(norm['c2'][1])}*y",
              "--k", f"{_num(norm['kappa'])}*y", "--h", _num(norm["eta"]),
              "--samples", "2000"]

    def check_metric(res):
        _cli_result(*res)
        oracles.check_metric(metric, ctx.take("metric.csv"))

    def check_conicoid(res):
        oracles.check_conicoid(conicoid, _cli_result(*res), ctx.take("conicoid.obj"))

    return [
        Op("metric 201x101", "metric_s", lambda: ctx.cli(m_argv), check_metric),
        Op("verify-graph plane", "verify_graph_s", lambda: ctx.cli(p_argv),
           lambda res: oracles.check_verify_plane(plane, _cli_result(*res))),
        Op("verify-graph saddle", "verify_graph_s", lambda: ctx.cli(s_argv),
           lambda res: oracles.check_verify_saddle(saddle, _cli_result(*res))),
        Op("examples conicoid --obj", "obj_s", lambda: ctx.cli(k_argv), check_conicoid),
        Op("normalize 2000", "normalize_s", lambda: ctx.cli(n_argv),
           lambda res: oracles.check_normalize(norm, _cli_result(*res))),
    ]


# -------------------------------------------------------------------- ode

def _phase_point(rng, family):
    """A family member and a start x0 whose next 3 units hold no pole."""
    c1 = float(rng.uniform(-1.0, 1.0))
    gap = float(rng.uniform(0.5, 1.0))
    if family == "SpecialI":
        return "SpecialI", [c1], -c1 + gap
    if family == "SpecialII":
        return "SpecialII", [c1], -c1 / 2.0 + gap
    c2 = float(rng.uniform(0.3, 2.0))
    if family == "GeneralI":
        return "General", [c1, c2], float(rng.uniform(-1.0, 1.0))
    return "General", [c1, -c2], -c1 + math.sqrt(c2) + gap


def ode_ops(ctx, rng):
    fam, params, x0 = _phase_point(rng, "GeneralI")
    a0, v0 = (float(v) for v in oracles.family_alpha(fam, params, x0))
    traj = {"family": fam, "params": params, "x0": x0, "x1": x0 + 30.0, "step": 1e-4}
    t_argv = ["solve-lienard", "--alpha0", repr(a0), "--v0", repr(v0),
              "--x0", repr(x0), "--x1", repr(traj["x1"]), "--step", "1e-4",
              "--out", ctx.path("trajectory.csv")]
    points = []
    for i in range(40):
        fam, params, x0 = _phase_point(
            rng, ("GeneralI", "SpecialI", "SpecialII", "GeneralII")[i % 4])
        a0, v0 = (float(v) for v in oracles.family_alpha(fam, params, x0))
        points.append({"family": fam, "params": params, "x0": x0,
                       "alpha0": a0, "v0": v0})
    field = {"nx": 301, "nv": 301}
    f_argv = ["phase-field", "--nx", "301", "--nv", "301", "--out", ctx.path("field.csv")]

    def sweep():
        out = []
        for p in points:
            fit = lienard.fit_solution(p["alpha0"], p["v0"], p["x0"])
            path = lienard.integrate_ivp(p["alpha0"], p["v0"], p["x0"],
                                         p["x0"] + 3.0, 1e-3)
            out.append({"family": type(fit).__name__,
                        "params": [getattr(fit, n) for n in ("c1", "c2") if hasattr(fit, n)],
                        "end_alpha": path[-1][1].alpha})
        return out

    def check_sweep(out):
        for p, o in zip(points, out, strict=True):
            oracles.check_fit(p, o)

    def check_traj(res):
        _cli_result(*res)
        oracles.check_trajectory(traj, ctx.take("trajectory.csv"))

    def check_field(res):
        _cli_result(*res)
        oracles.check_phase_field(field, ctx.take("field.csv"))

    return [
        Op("solve-lienard 300k steps", "ivp_s", lambda: ctx.cli(t_argv), check_traj),
        Op("fit sweep x40", "fit_sweep_s", sweep, check_sweep),
        Op("phase-field 301x301", None, lambda: ctx.cli(f_argv), check_field),
    ]


def build(workload: str, seed: int, ctx: Context):
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return {"quadrature": quadrature_ops, "grid": grid_ops, "ode": ode_ops}[workload](ctx, rng)
