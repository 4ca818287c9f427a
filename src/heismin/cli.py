"""Command-line front end: expression-driven model building, one
subcommand per pipeline, and CSV / OBJ / JSON exporters.

Exit codes: 0 success, 1 usage error (including a grid size or step out
of range, a float flag that is not finite and a grid window of infinite
width), 2 numeric failure (including an expression evaluated
outside its domain or beyond the float range, a quadrature query past
the lattice's node limit and a JSON report figure that is not finite),
3 expression parse error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from itertools import chain, islice

from . import construct, integrability, lienard, models, verify
from .errors import ExprSyntaxError, HeisminError, NonFiniteResult
from .models import AlphaModel, YFunction
from .numerics import PANELS_PER_UNIT, Window

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_PARSE = 3

INTEGRABILITY_TOL = 1e-6
PMGE_TOL = 1e-8
SPECIAL_I_TOL = 1e-10   # max |zeta2| of a special type I curve
_BLOCK_ROWS = 1024   # rows per % call of the CSV/OBJ writer


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -1e-3 and -.5E+2 are values, as -0.001 is, not flags
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _float_where(what: str, ok):
    """argparse type: a finite float for which ok holds."""
    def number(text: str) -> float:
        try:
            v = float(text)
        except ValueError:
            v = math.nan
        if not (math.isfinite(v) and ok(v)):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return v
    return number


_finite_float = _float_where("a finite number", lambda v: True)
_positive_float = _float_where("a positive number", lambda v: v > 0.0)


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


def _non_finite(obj, key=""):
    """(key, value) of the first nan or infinite float in a JSON payload,
    or None; key is the path to it, such as "singular.window[0][1]"."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (key, obj)
    if isinstance(obj, dict):
        items = ((f"{key}.{k}" if key else str(k), v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        items = ((f"{key}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    return next(filter(None, (_non_finite(v, k) for k, v in items)), None)


def _emit_json(payload):
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        key, value = _non_finite(payload)
        raise NonFiniteResult(f"{key} = {value} is not finite") from None
    sys.stdout.write(text + "\n")


def _format_rows(row_format: str, rows) -> str:
    """The rows formatted by row_format, a %-format with one field per
    value and a trailing newline; each block of rows is one % call."""
    rows = iter(rows)
    parts = []
    while block := list(islice(rows, _BLOCK_ROWS)):
        parts.append((row_format * len(block)) % tuple(chain.from_iterable(block)))
    return "".join(parts)


def _csv(header, columns) -> str:
    """CSV text of equally long columns, 17 significant digits a value."""
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + _format_rows(row_format, zip(*columns))


def mesh_obj(chart, nu: int, nv: int) -> str:
    """Wavefront OBJ of the chart: vertices in world coordinates over the
    (u, v) grid in row-major order, quad faces, no normals."""
    us, vs = (Window(*d).linspace(n) for d, n in zip(chart.domain, (nu, nv)))
    points = (chart.point(u, v) for u in us for v in vs)
    faces = ((a, a + nv, a + nv + 1, a + 1)
             for a in (i * nv + j + 1 for i in range(nu - 1) for j in range(nv - 1)))
    return (_format_rows("v %.17g %.17g %.17g\n", ((p.x, p.y, p.z) for p in points))
            + _format_rows("f %d %d %d %d\n", faces))


# --alpha's names of the lienard families; a family's constants c1, c2
# are its dataclass fields
_FAMILIES = {"vertical": lienard.Zero, "special1": lienard.SpecialI,
             "special2": lienard.SpecialII, "general": lienard.General}


def _build_model(args) -> AlphaModel:
    (y_domain,) = _windows(args, "y")
    family = _FAMILIES[args.alpha]
    cs = []
    for name in (f.name for f in dataclasses.fields(family)):
        if getattr(args, name) is None:
            raise _UsageError(f"--alpha {args.alpha} requires --{name}")
        cs.append(YFunction.from_expr(getattr(args, name)))
    return AlphaModel(family, *cs, y_domain=y_domain)


def _add_model_flags(p, required=True):
    p.add_argument("--alpha", required=required, choices=list(_FAMILIES))
    p.add_argument("--c1", help="expression in y")
    p.add_argument("--c2", help="expression in y")
    p.add_argument("--y-min", type=_finite_float, default=0.0)
    p.add_argument("--y-max", type=_finite_float, default=1.0)


def _windows(args, *axes):
    """Each axis's Window --AXIS-min .. --AXIS-max, which must have a finite width."""
    windows = [Window(getattr(args, f"{a}_min"), getattr(args, f"{a}_max")) for a in axes]
    if not all(math.isfinite(w.width) for w in windows):
        raise _UsageError(f"{args.command}: the {' and '.join(axes)} window"
                          f"{'s' * (len(axes) > 1)} must have a finite width")
    return windows


def _type_fields(m: AlphaModel, stype) -> dict:
    """The JSON type of a model and y_samples, the number of y-slices
    classify read it from, or None where the family alone decides it."""
    return {"type": stype.value,
            "y_samples": models.Y_SAMPLES if len(m.family.types) > 1 else None}


def _add_window_flag(p):
    p.add_argument("--x-window", type=_finite_float, nargs=2, metavar=("LO", "HI"))


# ---------------------------------------------------------------- commands

def cmd_solve_lienard(args):
    if args.fit:
        sol = lienard.fit_solution(args.alpha0, args.v0, args.x0)
        _emit_json({"family": type(sol).__name__, **dataclasses.asdict(sol)})
        return EXIT_OK
    traj = lienard.integrate_ivp(args.alpha0, args.v0, args.x0, args.x1,
                                 args.step, H_const=args.hconst)
    _write_text(args.out, _csv(["x", "alpha", "v"], traj.columns()))
    return EXIT_OK


def cmd_phase_field(args):
    field = lienard.phase_field(*_windows(args, "alpha", "v"), args.nx, args.nv)
    _write_text(args.out, _csv(["x", "v", "dx", "dv"], field.columns()))
    return EXIT_OK


def cmd_classify(args):
    m = _build_model(args)
    _emit_json(_type_fields(m, models.classify(m, x_window=args.x_window)))
    return EXIT_OK


def cmd_metric(args):
    wx, wy = _windows(args, "x", "y")
    m = _build_model(args)
    rep = models.metric_rep(m, YFunction.from_expr(args.k), YFunction.from_expr(args.h))
    xs, ys = wx.linspace(args.nx), wy.linspace(args.ny)
    rows = [(x, y, m.slice_at(y).alpha(x), rep.a(x, y), rep.b(x, y))
            for y in ys for x in xs]
    _write_text(args.out, _csv(["x", "y", "alpha", "a", "b"], zip(*rows)))
    return EXIT_OK


def cmd_normalize(args):
    m = _build_model(args)
    nf, change = models.normalize(m, YFunction.from_expr(args.k),
                                  YFunction.from_expr(args.h), x_window=args.x_window)
    y_new = [change.psi(y) for y in m.y_domain.linspace(args.samples)]
    payload = {
        **_type_fields(m, nf.surface_type),
        "zeta1": ([[yn, nf.zeta1(yn)] for yn in y_new]
                  if nf.zeta1 is not None else None),
        "zeta2": ([[yn, nf.zeta2(yn)] for yn in y_new]
                  if nf.zeta2 is not None else None),
        "panels_per_unit": PANELS_PER_UNIT,
    }
    _emit_json(payload)
    return EXIT_OK


def cmd_integrability(args):
    wx, wy = _windows(args, "x", "y")
    H = integrability.Field2D.constant(args.hconst)
    k, h = YFunction.from_expr(args.k), YFunction.from_expr(args.h)
    if args.alpha0 is not None:
        # no closed form for constant H != 0: integrate the profile ODE
        curve = lienard.OdeSolutionCurve(args.alpha0, args.v0, wx.lo - 0.01,
                                         wx.hi + 0.01, H_const=args.hconst)
        alpha = integrability.Field2D.from_x_profile(curve.alpha,
                                                     curve.alpha_x)
        rep = integrability.metric_from_alpha_H(alpha, H, k, h, wx.lo)
    else:
        if args.alpha is None:
            raise _UsageError("integrability requires --alpha or --alpha0")
        m = _build_model(args)
        alpha = integrability.Field2D.from_model(m)
        rep = models.metric_rep(m, k, h)
    stats = integrability.integrability_residual(
        alpha, H, rep, (wx.linspace(args.nx), wy.linspace(args.ny)))
    _emit_json({
        "max": {f"r{i}": v for i, v in stats.max.items()},
        "mean": {f"r{i}": v for i, v in stats.mean.items()},
        "tolerance": INTEGRABILITY_TOL,
        "passed": stats.overall_max() <= INTEGRABILITY_TOL,
    })
    return EXIT_OK


def cmd_construct(args):
    interval, r_range = _windows(args, "theta", "r")
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
    chart = construct.ruled_surface(curve, r_range=r_range)
    if args.obj:
        _write_text(args.obj, mesh_obj(chart, args.nr, args.ntheta))
    z1, z2 = construct.zeta_from_curve(curve)
    ts = interval.inner(args.ntheta, 1e-9)
    _emit_json({
        "zeta1": [[t, z1(t)] for t in ts],
        "zeta2": [[t, z2(t)] for t in ts],
        "special_type_I": max(abs(z2(t)) for t in ts) <= SPECIAL_I_TOL,
        "special_type_I_tolerance": SPECIAL_I_TOL,
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
    wx, wy = _windows(args, "x", "y")
    g = verify.GraphSurface.from_expr(args.u, (wx, wy))
    xs, ys = wx.linspace(args.nx), wy.linspace(args.ny)
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
    result = verify.go_through_check(g, (args.px, args.py), args.direction)
    _emit_json(dataclasses.asdict(result))
    return EXIT_OK


# ----------------------------------------------------------------- parser

def build_parser() -> _ArgumentParser:
    p = _ArgumentParser(prog="heismin",
                        description="Constant p-mean curvature surfaces "
                                    "in the Heisenberg group")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve-lienard", help="fit or integrate the ODE")
    s.add_argument("--alpha0", type=_finite_float, required=True)
    s.add_argument("--v0", type=_finite_float, required=True)
    s.add_argument("--x0", type=_finite_float, default=0.0)
    s.add_argument("--x1", type=_finite_float, default=3.0)
    s.add_argument("--step", type=_positive_float, default=1e-3)
    s.add_argument("--hconst", type=_finite_float, default=0.0)
    s.add_argument("--fit", action="store_true",
                   help="print the fitted closed-form family as JSON "
                        "instead of a trajectory")
    s.add_argument("--out")
    s.set_defaults(func=cmd_solve_lienard)

    s = sub.add_parser("phase-field", help="sample the phase-plane field")
    s.add_argument("--alpha-min", type=_finite_float, default=-2.0)
    s.add_argument("--alpha-max", type=_finite_float, default=2.0)
    s.add_argument("--v-min", type=_finite_float, default=-2.0)
    s.add_argument("--v-max", type=_finite_float, default=2.0)
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
    s.add_argument("--x-min", type=_finite_float, default=0.5)
    s.add_argument("--x-max", type=_finite_float, default=2.5)
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
    s.add_argument("--hconst", type=_finite_float, default=0.0)
    s.add_argument("--alpha0", type=_finite_float,
                   help="integrate the profile ODE from this initial "
                        "value instead of a closed-form model; --alpha "
                        "is then not needed")
    s.add_argument("--v0", type=_finite_float, default=0.0)
    s.add_argument("--x-min", type=_finite_float, default=0.5)
    s.add_argument("--x-max", type=_finite_float, default=2.5)
    s.add_argument("--nx", type=_count_at_least(1), default=25)
    s.add_argument("--ny", type=_count_at_least(1), default=10)
    s.set_defaults(func=cmd_integrability)

    s = sub.add_parser("construct", help="ruled surface from a curve or zetas")
    s.add_argument("--curve-x", help="expression in theta")
    s.add_argument("--curve-y", help="expression in theta")
    s.add_argument("--curve-z", help="expression in theta")
    s.add_argument("--zeta1", help="expression in theta")
    s.add_argument("--zeta2", help="expression in theta")
    s.add_argument("--theta-min", type=_finite_float, default=0.0)
    s.add_argument("--theta-max", type=_finite_float, default=2.0 * math.pi)
    s.add_argument("--r-min", type=_finite_float, default=0.5)
    s.add_argument("--r-max", type=_finite_float, default=2.0)
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
    s.add_argument("--x-min", type=_finite_float, default=-3.0)
    s.add_argument("--x-max", type=_finite_float, default=3.0)
    s.add_argument("--y-min", type=_finite_float, default=-3.0)
    s.add_argument("--y-max", type=_finite_float, default=3.0)
    s.add_argument("--nx", type=_count_at_least(1), default=21)
    s.add_argument("--ny", type=_count_at_least(1), default=21)
    s.set_defaults(func=cmd_verify_graph)

    s = sub.add_parser("go-through", help="characteristic go-through limits")
    s.add_argument("--u", required=True, help="expression in x and y")
    s.add_argument("--px", type=_finite_float, required=True)
    s.add_argument("--py", type=_finite_float, required=True)
    s.add_argument("--direction", type=_finite_float, nargs=2, metavar=("DX", "DY"))
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
