"""Command-line front end: expression-driven model building, one
subcommand per pipeline, and CSV / OBJ / JSON exporters.

Exit codes: 0 success, 1 usage error (including a grid size or step out
of range), 2 numeric failure (including an expression evaluated outside
its domain or beyond the float range), 3 expression parse error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import construct, integrability, lienard, models, verify
from .errors import ExprSyntaxError, HeisminError
from .models import AlphaModel, YFunction

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_PARSE = 3

INTEGRABILITY_TOL = 1e-6
PMGE_TOL = 1e-8


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _positive_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not (math.isfinite(v) and v > 0.0):
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")
    return v


def _count_at_least(lo: int):
    def count(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            v = lo - 1
        if v < lo:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {lo}, got {text!r}")
        return v
    return count


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit_json(payload):
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def mesh_obj(chart, nu: int, nv: int) -> str:
    """Wavefront OBJ of the chart: vertices in world coordinates over the
    (u, v) grid in row-major order, quad faces, no normals."""
    (u_lo, u_hi), (v_lo, v_hi) = chart.domain
    us = np.linspace(u_lo, u_hi, nu)
    vs = np.linspace(v_lo, v_hi, nv)
    lines = []
    for u in us:
        for v in vs:
            p = chart.point(float(u), float(v))
            lines.append(f"v {_fmt(p.x)} {_fmt(p.y)} {_fmt(p.z)}")
    for i in range(nu - 1):
        for j in range(nv - 1):
            a = i * nv + j + 1
            b = (i + 1) * nv + j + 1
            lines.append(f"f {a} {b} {b + 1} {a + 1}")
    return "\n".join(lines) + "\n"


def _build_model(args) -> AlphaModel:
    y_domain = (args.y_min, args.y_max)
    kind = args.alpha
    if kind == "vertical":
        return AlphaModel.vertical(y_domain)
    if args.c1 is None:
        raise _UsageError(f"--alpha {kind} requires --c1")
    c1 = YFunction.from_expr(args.c1)
    if kind == "special1":
        return AlphaModel.special_i(c1, y_domain)
    if kind == "special2":
        return AlphaModel.special_ii(c1, y_domain)
    if args.c2 is None:
        raise _UsageError("--alpha general requires --c2")
    return AlphaModel.general(c1, YFunction.from_expr(args.c2), y_domain)


def _add_model_flags(p, required=True):
    p.add_argument("--alpha", required=required,
                   choices=["vertical", "special1", "special2", "general"])
    p.add_argument("--c1", help="expression in y")
    p.add_argument("--c2", help="expression in y")
    p.add_argument("--y-min", type=float, default=0.0)
    p.add_argument("--y-max", type=float, default=1.0)


def _add_window_flag(p):
    p.add_argument("--x-window", type=float, nargs=2, metavar=("LO", "HI"))


# ---------------------------------------------------------------- commands

def cmd_solve_lienard(args):
    if args.fit:
        sol = lienard.fit_solution(args.alpha0, args.v0, args.x0)
        payload = {"family": type(sol).__name__}
        for name in ("c1", "c2"):
            if hasattr(sol, name):
                payload[name] = getattr(sol, name)
        _emit_json(payload)
        return EXIT_OK
    traj = lienard.integrate_ivp(args.alpha0, args.v0, args.x0, args.x1,
                                 args.step, H_const=args.hconst)
    rows = [(x, s.alpha, s.v) for x, s in traj]
    _write_text(args.out, _csv(["x", "alpha", "v"], rows))
    return EXIT_OK


def cmd_phase_field(args):
    samples = lienard.phase_field((args.alpha_min, args.alpha_max),
                                  (args.v_min, args.v_max),
                                  args.nx, args.nv)
    rows = [(s.alpha, s.v, dx, dv) for s, (dx, dv) in samples]
    _write_text(args.out, _csv(["x", "v", "dx", "dv"], rows))
    return EXIT_OK


def cmd_classify(args):
    m = _build_model(args)
    window = tuple(args.x_window) if args.x_window else None
    stype = models.classify(m, x_window=window)
    _emit_json({"type": stype.value})
    return EXIT_OK


def cmd_metric(args):
    m = _build_model(args)
    rep = models.metric_rep(m, YFunction.from_expr(args.k), YFunction.from_expr(args.h))
    xs = np.linspace(args.x_min, args.x_max, args.nx).tolist()
    ys = np.linspace(args.y_min, args.y_max, args.ny).tolist()
    rows = [(x, y, models.eval_model(m, x, y), rep.a(x, y), rep.b(x, y))
            for y in ys for x in xs]
    _write_text(args.out, _csv(["x", "y", "alpha", "a", "b"], rows))
    return EXIT_OK


def cmd_normalize(args):
    m = _build_model(args)
    rep = models.metric_rep(m, YFunction.from_expr(args.k), YFunction.from_expr(args.h))
    window = tuple(args.x_window) if args.x_window else None
    nf, change = models.normalize(m, rep, x_window=window)
    ys = np.linspace(args.y_min, args.y_max, args.samples)
    y_new = [float(change.psi(y)) for y in ys]
    payload = {
        "type": nf.surface_type.value,
        "zeta1": ([[yn, nf.zeta1(yn)] for yn in y_new]
                  if nf.zeta1 is not None else None),
        "zeta2": ([[yn, nf.zeta2(yn)] for yn in y_new]
                  if nf.zeta2 is not None else None),
        "panels_per_unit": 512,
    }
    _emit_json(payload)
    return EXIT_OK


def cmd_integrability(args):
    H = integrability.Field2D.constant(args.hconst)
    k, h = YFunction.from_expr(args.k), YFunction.from_expr(args.h)
    if args.alpha0 is not None:
        # no closed form for constant H != 0: integrate the profile ODE
        curve = lienard.OdeSolutionCurve(args.alpha0, args.v0,
                                         args.x_min - 0.01,
                                         args.x_max + 0.01,
                                         H_const=args.hconst)
        alpha = integrability.Field2D.from_x_profile(curve.alpha,
                                                     curve.alpha_x)
        rep = integrability.metric_from_alpha_H(alpha, H, k, h, args.x_min)
    else:
        if args.alpha is None:
            raise _UsageError("integrability requires --alpha or --alpha0")
        m = _build_model(args)
        alpha = integrability.Field2D.from_model(m)
        rep = models.metric_rep(m, k, h)
    xs = np.linspace(args.x_min, args.x_max, args.nx)
    ys = np.linspace(args.y_min, args.y_max, args.ny)
    stats = integrability.integrability_residual(alpha, H, rep, (xs, ys))
    _emit_json({
        "max": {f"r{i}": v for i, v in stats.max.items()},
        "mean": {f"r{i}": v for i, v in stats.mean.items()},
        "tolerance": INTEGRABILITY_TOL,
        "passed": stats.overall_max() <= INTEGRABILITY_TOL,
    })
    return EXIT_OK


def cmd_construct(args):
    interval = (args.theta_min, args.theta_max)
    if args.curve_x is not None:
        if args.curve_y is None or args.curve_z is None:
            raise _UsageError("--curve-x/--curve-y/--curve-z go together")
        curve = construct.GeneratingCurve.from_exprs(
            args.curve_x, args.curve_y, args.curve_z, interval=interval)
    elif args.zeta1 is not None and args.zeta2 is not None:
        curve = construct.curve_from_zeta(YFunction.from_expr(args.zeta1, "theta"),
                                          YFunction.from_expr(args.zeta2, "theta"),
                                          interval)
    else:
        raise _UsageError("give either --curve-x/y/z or --zeta1 and --zeta2")
    chart = construct.ruled_surface(curve, r_range=(args.r_min, args.r_max))
    if args.obj:
        _write_text(args.obj, mesh_obj(chart, args.nr, args.ntheta))
    z1, z2 = construct.zeta_from_curve(curve)
    ts = np.linspace(interval[0] + 1e-9, interval[1] - 1e-9, args.ntheta)
    _emit_json({
        "zeta1": [[float(t), z1(float(t))] for t in ts],
        "zeta2": [[float(t), z2(float(t))] for t in ts],
        "special_type_I": bool(max(abs(z2(float(t))) for t in ts) <= 1e-10),
        "obj": args.obj,
    })
    return EXIT_OK


def cmd_examples(args):
    if args.name == "plane":
        chart = construct.bernstein_plane(0.0, 0.0, 0.0)
        info = {"singular_point": [0.0, 0.0]}
    elif args.name == "saddle":
        chart = construct.bernstein_saddle(1.0, 0.0, YFunction.constant(0.0))
        info = {"graph": "u = x*y"}
    elif args.name == "helicoid":
        chart = construct.helicoid_chart(YFunction(lambda t: t,
                                                   lambda t: 1.0))
        info = {"alpha_at_s1": chart.extras["alpha_closed"](1.0, 0.0)}
    else:
        chart = construct.conicoid_chart()
        info = {"alpha_at_t1": chart.extras["alpha_closed"](1.0, 0.0),
                "ab_at_t1": list(chart.extras["ab_closed"](1.0, 0.0))}
    if args.obj:
        _write_text(args.obj, mesh_obj(chart, args.nu, args.nv))
    _emit_json({"name": args.name, "obj": args.obj, **info})
    return EXIT_OK


def cmd_verify_graph(args):
    window = ((args.x_min, args.x_max), (args.y_min, args.y_max))
    g = verify.GraphSurface.from_expr(args.u, window)
    xs = np.linspace(args.x_min, args.x_max, args.nx).tolist()
    ys = np.linspace(args.y_min, args.y_max, args.ny).tolist()
    residuals = [abs(verify.pmge_residual(g, x, y)) for y in ys for x in xs]
    report = verify.singular_set(g)
    max_residual = float(max(residuals))
    _emit_json({
        "max_pmge_residual": max_residual,
        "pmge_tolerance": PMGE_TOL,
        "passed": max_residual <= PMGE_TOL,
        "singular": report.to_json_dict(),
    })
    return EXIT_OK


def cmd_go_through(args):
    window = ((args.px - 2.0, args.px + 2.0), (args.py - 2.0, args.py + 2.0))
    g = verify.GraphSurface.from_expr(args.u, window)
    direction = tuple(args.direction) if args.direction else None
    result = verify.go_through_check(g, (args.px, args.py), direction)
    _emit_json(result.to_json_dict())
    return EXIT_OK


# ----------------------------------------------------------------- parser

def build_parser() -> _ArgumentParser:
    p = _ArgumentParser(prog="heismin",
                        description="Constant p-mean curvature surfaces "
                                    "in the Heisenberg group")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve-lienard", help="fit or integrate the ODE")
    s.add_argument("--alpha0", type=float, required=True)
    s.add_argument("--v0", type=float, required=True)
    s.add_argument("--x0", type=float, default=0.0)
    s.add_argument("--x1", type=float, default=3.0)
    s.add_argument("--step", type=_positive_float, default=1e-3)
    s.add_argument("--hconst", type=float, default=0.0)
    s.add_argument("--fit", action="store_true",
                   help="print the fitted closed-form family as JSON "
                        "instead of a trajectory")
    s.add_argument("--out")
    s.set_defaults(func=cmd_solve_lienard)

    s = sub.add_parser("phase-field", help="sample the phase-plane field")
    s.add_argument("--alpha-min", type=float, default=-2.0)
    s.add_argument("--alpha-max", type=float, default=2.0)
    s.add_argument("--v-min", type=float, default=-2.0)
    s.add_argument("--v-max", type=float, default=2.0)
    s.add_argument("--nx", type=_count_at_least(2), default=21)
    s.add_argument("--nv", type=_count_at_least(2), default=21)
    s.add_argument("--out")
    s.set_defaults(func=cmd_phase_field)

    s = sub.add_parser("classify", help="surface type of a model")
    _add_model_flags(s)
    _add_window_flag(s)
    s.set_defaults(func=cmd_classify)

    s = sub.add_parser("metric", help="induced-metric coefficients on a grid")
    _add_model_flags(s)
    s.add_argument("--k", default="0")
    s.add_argument("--h", default="0")
    s.add_argument("--x-min", type=float, default=0.5)
    s.add_argument("--x-max", type=float, default=2.5)
    s.add_argument("--nx", type=_count_at_least(1), default=21)
    s.add_argument("--ny", type=_count_at_least(1), default=11)
    s.add_argument("--out")
    s.set_defaults(func=cmd_metric)

    s = sub.add_parser("normalize", help="normal form (type, zeta1, zeta2)")
    _add_model_flags(s)
    _add_window_flag(s)
    s.add_argument("--k", default="0")
    s.add_argument("--h", default="0")
    s.add_argument("--samples", type=_count_at_least(1), default=9)
    s.set_defaults(func=cmd_normalize)

    s = sub.add_parser("integrability", help="integrability residual stats")
    _add_model_flags(s, required=False)
    s.add_argument("--k", default="0")
    s.add_argument("--h", default="0")
    s.add_argument("--hconst", type=float, default=0.0)
    s.add_argument("--alpha0", type=float,
                   help="integrate the profile ODE from this initial "
                        "value instead of a closed-form model; --alpha "
                        "is then not needed")
    s.add_argument("--v0", type=float, default=0.0)
    s.add_argument("--x-min", type=float, default=0.5)
    s.add_argument("--x-max", type=float, default=2.5)
    s.add_argument("--nx", type=_count_at_least(1), default=25)
    s.add_argument("--ny", type=_count_at_least(1), default=10)
    s.set_defaults(func=cmd_integrability)

    s = sub.add_parser("construct", help="ruled surface from a curve or zetas")
    s.add_argument("--curve-x", help="expression in theta")
    s.add_argument("--curve-y", help="expression in theta")
    s.add_argument("--curve-z", help="expression in theta")
    s.add_argument("--zeta1", help="expression in theta")
    s.add_argument("--zeta2", help="expression in theta")
    s.add_argument("--theta-min", type=float, default=0.0)
    s.add_argument("--theta-max", type=float, default=2.0 * math.pi)
    s.add_argument("--r-min", type=float, default=0.5)
    s.add_argument("--r-max", type=float, default=2.0)
    s.add_argument("--nr", type=_count_at_least(1), default=16)
    s.add_argument("--ntheta", type=_count_at_least(1), default=48)
    s.add_argument("--obj")
    s.set_defaults(func=cmd_construct)

    s = sub.add_parser("examples", help="built-in example surfaces")
    s.add_argument("name", choices=["plane", "saddle", "helicoid", "conicoid"])
    s.add_argument("--nu", type=_count_at_least(1), default=24)
    s.add_argument("--nv", type=_count_at_least(1), default=24)
    s.add_argument("--obj")
    s.set_defaults(func=cmd_examples)

    s = sub.add_parser("verify-graph", help="graph PDE residual + singular set")
    s.add_argument("--u", required=True, help="expression in x and y")
    s.add_argument("--x-min", type=float, default=-3.0)
    s.add_argument("--x-max", type=float, default=3.0)
    s.add_argument("--y-min", type=float, default=-3.0)
    s.add_argument("--y-max", type=float, default=3.0)
    s.add_argument("--nx", type=_count_at_least(1), default=21)
    s.add_argument("--ny", type=_count_at_least(1), default=21)
    s.set_defaults(func=cmd_verify_graph)

    s = sub.add_parser("go-through", help="characteristic go-through limits")
    s.add_argument("--u", required=True, help="expression in x and y")
    s.add_argument("--px", type=float, required=True)
    s.add_argument("--py", type=float, required=True)
    s.add_argument("--direction", type=float, nargs=2, metavar=("DX", "DY"))
    s.set_defaults(func=cmd_go_through)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except ExprSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except HeisminError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
