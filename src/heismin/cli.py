"""Command-line front end: expression-driven model building, one
subcommand per pipeline, and CSV / OBJ / JSON exporters.

Exit codes: 0 success, 1 usage error (including a grid size or step out
of range, a float flag that is not finite and a grid window of infinite
width) or a reader that closed stdout early, 2 numeric failure (including
an expression evaluated outside its domain or beyond the float range, a
quadrature query past the lattice's node limit and a JSON report figure
that is not finite), 3 expression parse error.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import os
import re
import sys

import numpy as np

from . import construct, expr, g17, integrability, lienard, models, verify
from .errors import ExprSyntaxError, HeisminError, NonFiniteResult, QuadratureFailure
from .models import AlphaModel, YFunction
from .numerics import PANELS_PER_UNIT, Field2D, Window

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_PARSE = 3

INTEGRABILITY_TOL = 1e-6
PMGE_TOL = 1e-8
SPECIAL_I_TOL = 1e-10   # max |zeta2| of a special type I curve
_BLOCK_VALUES = 6144   # values a block of the CSV/OBJ writers' g17.Writer


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


def _write_text(out, text):
    """Write text to the open file out, or to sys.stdout when out is None."""
    (sys.stdout if out is None else out).write(text)


def _open(path):
    """path opened for writing, or a context of None (stdout) when path is None."""
    return contextlib.nullcontext() if path is None else open(path, "w")


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


def _floats(n, pad):
    """The %r template of a list of n floats nested at pad, as json.dumps
    lays it out with indent=2."""
    return "[" + ",".join([pad + "  %r"] * n) + pad + "]" if n else "[]"


def _indented(obj, pad="\n"):
    """json.dumps(obj, indent=2, allow_nan=False) nested at pad, a newline and
    its indent.  A list of floats, or of lists of floats, is one %r template,
    as json writes a float as float.__repr__; a dict or another list goes
    member by member, and anything else through json.dumps."""
    inner = pad + "  "
    if type(obj) in (list, tuple) and obj:
        rows = obj if set(map(type, obj)) <= {list, tuple} else [obj]
        values = list(itertools.chain.from_iterable(rows))
        if set(map(type, values)) <= {float}:
            if not all(map(math.isfinite, values)):
                raise ValueError("a float is not finite")
            if rows is not obj:
                return _floats(len(obj), pad) % tuple(values)
            row = {n: inner + _floats(n, inner) for n in set(map(len, rows))}
            return ("[" + ",".join(map(row.__getitem__, map(len, rows))) + pad + "]"
                    ) % tuple(values)
        return "[" + ",".join(inner + _indented(x, inner) for x in obj) + pad + "]"
    if type(obj) is dict and obj and set(map(type, obj)) == {str}:
        return "{" + ",".join(f"{inner}{json.dumps(k)}: {_indented(v, inner)}"
                              for k, v in obj.items()) + pad + "}"
    return json.dumps(obj, indent=2, allow_nan=False).replace("\n", pad)


def _emit_json(payload):
    try:
        text = _indented(payload)
    except ValueError:
        key, value = _non_finite(payload)
        raise NonFiniteResult(f"{key} = {value} is not finite") from None
    sys.stdout.write(text + "\n")


def _blocks(columns, seps, writer=None):
    """g17.rows of the equal-length float columns, seps as there, in texts
    of _BLOCK_VALUES values' rows, from writer (a new one when None)."""
    writer = writer or g17.Writer(min(_BLOCK_VALUES, len(columns) * len(columns[0])))
    step = max(1, writer.values // len(columns))
    for a in range(0, len(columns[0]), step):
        yield writer.rows([c[a:a + step] for c in columns], seps)


def _write_rows(out, columns, seps) -> None:
    """Write the rows of the equal-length float columns, seps as in g17.rows,
    one write a block of _BLOCK_VALUES values."""
    for text in _blocks(columns, seps):
        _write_text(out, text)


def _lines(columns, seps, writer=None):
    """The rows of the equal-length float columns, seps as in g17.rows
    (seps[-1] a newline), as a list of strings, _BLOCK_VALUES values a call."""
    return [line for text in _blocks(columns, seps, writer) for line in text.splitlines()]


def _csv(path, header, columns) -> None:
    """Write a CSV of the equal-length float columns to path (stdout when
    None), 17 significant digits a value."""
    with _open(path) as out:
        _write_text(out, ",".join(header) + "\n")
        _write_rows(out, columns, ["", *[","] * (len(columns) - 1), "\n"])


def _grid_csv(path, header, cell, outer, inner, values) -> None:
    """Write a CSV over the outer x inner grid, inner fastest, to path (stdout
    when None); cell is a row's format with {inner}, one {outer} and
    {values}, the cell's values, and values[k] the kth outer row's value
    columns.  Each coordinate is formatted once.  The values of as many
    outer rows as hold at most _BLOCK_VALUES values are one block of one
    g17.Writer (a wider row takes several), and each outer row is one % call
    and one write."""
    pieces = _row_pieces(cell, _lines([inner], ["", "\n"]))
    n, m = len(inner), len(values[0])
    step, seps = max(1, _BLOCK_VALUES // (n * m)), ["", *[","] * (m - 1), "\n"]
    outer = _lines([outer], ["", "\n"])
    writer = g17.Writer(min(_BLOCK_VALUES, n * m * len(outer)))   # for every block
    with _open(path) as out:
        _write_text(out, ",".join(header) + "\n")
        for a in range(0, len(outer), step):
            cells = _lines([np.concatenate(c) for c in zip(*values[a:a + step])], seps, writer)
            for k, o in enumerate(outer[a:a + step]):
                _write_text(out, o.join(pieces) % tuple(cells[k * n:(k + 1) * n]))


def _row_pieces(cell, inner):
    """The texts between a grid row's outer coordinates, for the row format
    cell of _grid_csv and the inner coordinates' texts: the row of outer
    text o is o.join(pieces) % its cells' texts."""
    left, right = cell.split("{outer}")
    return [left.format(inner=inner[0], values="%s"),
            *(right.format(inner=a, values="%s") + left.format(inner=b, values="%s")
              for a, b in zip(inner, inner[1:])),
            right.format(inner=inner[-1], values="%s")]


def mesh_obj(path, chart, nu: int, nv: int) -> None:
    """Write the Wavefront OBJ of the chart to path (stdout when None): the
    vertices over the (u, v) grid in row-major order, from one chart.point
    call on the flattened grid before path is opened, then quad faces, one
    % call and one write a mesh row; no normals."""
    us, vs = (Window(*d).linspace(n) for d, n in zip(chart.domain, (nu, nv)))
    with np.errstate(all="ignore"):   # overflow is inf, as in float arithmetic
        p = chart.point(np.repeat(us, nv), np.tile(vs, nu))
    first = (np.arange(1, nv)[:, None] + [0, nv, nv + 1, 1]).ravel()   # mesh row 0's faces
    with _open(path) as out:
        _write_rows(out, [p.x, p.y, p.z], ["v ", " ", " ", "\n"])
        for i in range(nu - 1):
            _write_text(out, "f %d %d %d %d\n" * (nv - 1) % tuple((first + i * nv).tolist()))


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
    _add_window_flags(p, "y", 0.0, 1.0)


def _add_window_flags(p, axis: str, lo: float, hi: float):
    """--AXIS-min and --AXIS-max, finite floats with defaults lo and hi."""
    p.add_argument(f"--{axis}-min", type=_finite_float, default=lo)
    p.add_argument(f"--{axis}-max", type=_finite_float, default=hi)


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


def _add_x_window_flag(p):
    p.add_argument("--x-window", type=_finite_float, nargs=2, metavar=("LO", "HI"))


# ---------------------------------------------------------------- commands

def cmd_solve_lienard(args):
    if args.fit:
        sol = lienard.fit_solution(args.alpha0, args.v0, args.x0)
        return {"family": type(sol).__name__, **dataclasses.asdict(sol)}
    traj = lienard.integrate_ivp(args.alpha0, args.v0, args.x0, args.x1,
                                 args.step, H_const=args.hconst)
    _csv(args.out, ["x", "alpha", "v"], traj.columns())


def cmd_phase_field(args):
    field = lienard.phase_field(*_windows(args, "alpha", "v"), args.nx, args.nv)
    _grid_csv(args.out, ["x", "v", "dx", "dv"], "{outer},{inner},{inner},{values}\n",
              field.alpha, field.v, [[dv] for dv in field.dv])


def cmd_classify(args):
    m = _build_model(args)
    return _type_fields(m, models.classify(m, x_window=args.x_window))


def cmd_metric(args):
    wx, wy = _windows(args, "x", "y")
    m = _build_model(args)
    rep = models.metric_rep(m, YFunction.from_expr(args.k), YFunction.from_expr(args.h))
    xs, ys = wx.linspace(args.nx), wy.linspace(args.ny)
    alpha, row = Field2D.from_model(m), np.array(xs)

    def line(y):
        return expr.pointwise(lambda x: (alpha(x, y), rep.a(x, y), rep.b(x, y)), 3,
                              lambda row: [f(row, y) for f in (alpha, rep.a, rep.b)])(row)

    _grid_csv(args.out, ["x", "y", "alpha", "a", "b"], "{inner},{outer},{values}\n",
              ys, xs, [line(y) for y in ys])


def cmd_normalize(args):
    m = _build_model(args)
    nf, change = models.normalize(m, YFunction.from_expr(args.k),
                                  YFunction.from_expr(args.h), x_window=args.x_window)
    ys = m.y_domain.linspace(args.samples)
    y_new = change.psi.over(row := np.array(ys)).tolist()   # a loop's values and first error
    try:   # zeta1 and zeta2, each over the samples in one call
        with np.errstate(all="ignore"):   # an overflow is inf, as in float arithmetic
            zs = list(zip(*(z.tolist() if z is not None else [None] * len(ys)
                            for z in nf.at_y(row))))
    except (ValueError, ArithmeticError, HeisminError):
        zs = [nf.at_y(y) for y in ys]   # sample by sample, for the first error in that order
    # a steep gauge makes Psi flat to the last bit: samples with different
    # zetas that share a y~ cannot be told apart in normal coordinates
    for y0, y1, yn0, yn1, z0, z1 in zip(ys, ys[1:], y_new, y_new[1:], zs, zs[1:]):
        if yn0 == yn1 and y0 != y1 and z0 != z1:
            raise QuadratureFailure(f"Psi does not resolve y = {y1} from y = {y0}: "
                                    f"both map to y~ = {yn1}")
    return {
        **_type_fields(m, nf.surface_type),
        "zeta1": ([[yn, z[0]] for yn, z in zip(y_new, zs)]
                  if nf.zeta1 is not None else None),
        "zeta2": ([[yn, z[1]] for yn, z in zip(y_new, zs)]
                  if nf.zeta2 is not None else None),
        "panels_per_unit": PANELS_PER_UNIT,
    }


def cmd_integrability(args):
    wx, wy = _windows(args, "x", "y")
    H = Field2D.constant(args.hconst)
    k, h = YFunction.from_expr(args.k), YFunction.from_expr(args.h)
    if args.alpha0 is not None:
        # constant H != 0: the profile is integrated by RK4 (its closed
        # form alpha = w'/(2w) is ROADMAP item 2), its states stored on the
        # multiples of 1/1024: where lo is one (0, 0.5, 1, ...), every node
        # and midpoint of the lattices from lo reads a stored state
        curve = lienard.OdeSolutionCurve(args.alpha0, args.v0, wx.lo - 0.01,
                                         wx.hi + 0.01, H_const=args.hconst)
        alpha = Field2D.from_x_profile(curve.alpha, curve.alpha_x)
        rep = integrability.metric_from_alpha_H(alpha, H, k, h, wx.lo)
    else:
        if args.alpha is None:
            raise _UsageError("integrability requires --alpha or --alpha0")
        m = _build_model(args)
        alpha = Field2D.from_model(m)
        rep = models.metric_rep(m, k, h)
    stats = integrability.integrability_residual(
        alpha, H, rep, (wx.linspace(args.nx), wy.linspace(args.ny)))
    return {
        "max": {f"r{i}": v for i, v in stats.max.items()},
        "mean": {f"r{i}": v for i, v in stats.mean.items()},
        "tolerance": INTEGRABILITY_TOL,
        "passed": stats.overall_max() <= INTEGRABILITY_TOL,
    }


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
        mesh_obj(args.obj, chart, args.nr, args.ntheta)
    ts = interval.inner(args.ntheta, 1e-9)
    z1s, z2s = (z.over(np.array(ts)).tolist() for z in construct.zeta_from_curve(curve))
    return {
        "zeta1": [[t, z] for t, z in zip(ts, z1s)],
        "zeta2": [[t, z] for t, z in zip(ts, z2s)],
        "special_type_I": max(map(abs, z2s)) <= SPECIAL_I_TOL,
        "special_type_I_tolerance": SPECIAL_I_TOL,
        "obj": args.obj,
    }


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
        mesh_obj(args.obj, chart, args.nu, args.nv)
    return {"name": args.name, "obj": args.obj, **info}


def cmd_verify_graph(args):
    wx, wy = _windows(args, "x", "y")
    g = verify.GraphSurface.from_expr(args.u, (wx, wy))
    xs, ys = wx.linspace(args.nx), wy.linspace(args.ny)
    # rows of y, x within a row: the order in which an evaluation error names its
    # first point; np.max, unlike Python's max over a list, is nan if any residual is
    residuals = verify.pmge_residual(g, np.tile(xs, len(ys)), np.repeat(ys, len(xs)))
    max_residual = float(np.max(np.abs(residuals)))
    return {
        "max_pmge_residual": max_residual,
        "pmge_tolerance": PMGE_TOL,
        "passed": max_residual <= PMGE_TOL,
        "singular": verify.singular_set(g).to_json_dict(),
    }


def cmd_go_through(args):
    window = ((args.px - 2.0, args.px + 2.0), (args.py - 2.0, args.py + 2.0))
    g = verify.GraphSurface.from_expr(args.u, window)
    result = verify.go_through_check(g, (args.px, args.py), args.direction)
    return dataclasses.asdict(result)


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
    _add_window_flags(s, "alpha", -2.0, 2.0)
    _add_window_flags(s, "v", -2.0, 2.0)
    s.add_argument("--nx", type=_count_at_least(2), default=21)
    s.add_argument("--nv", type=_count_at_least(2), default=21)
    s.add_argument("--out")
    s.set_defaults(func=cmd_phase_field)

    s = sub.add_parser("classify", help="surface type of a model")
    _add_model_flags(s)
    _add_x_window_flag(s)
    s.set_defaults(func=cmd_classify)

    s = sub.add_parser("metric", help="induced-metric coefficients on a grid")
    _add_model_flags(s)
    s.add_argument("--k", default="0")
    s.add_argument("--h", default="0")
    _add_window_flags(s, "x", 0.5, 2.5)
    s.add_argument("--nx", type=_count_at_least(1), default=21)
    s.add_argument("--ny", type=_count_at_least(1), default=11)
    s.add_argument("--out")
    s.set_defaults(func=cmd_metric)

    s = sub.add_parser("normalize", help="normal form (type, zeta1, zeta2)")
    _add_model_flags(s)
    _add_x_window_flag(s)
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
    _add_window_flags(s, "x", 0.5, 2.5)
    s.add_argument("--nx", type=_count_at_least(1), default=25)
    s.add_argument("--ny", type=_count_at_least(1), default=10)
    s.set_defaults(func=cmd_integrability)

    s = sub.add_parser("construct", help="ruled surface from a curve or zetas")
    s.add_argument("--curve-x", help="expression in theta")
    s.add_argument("--curve-y", help="expression in theta")
    s.add_argument("--curve-z", help="expression in theta")
    s.add_argument("--zeta1", help="expression in theta")
    s.add_argument("--zeta2", help="expression in theta")
    _add_window_flags(s, "theta", 0.0, 2.0 * math.pi)
    _add_window_flags(s, "r", 0.5, 2.0)
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
    _add_window_flags(s, "x", -3.0, 3.0)
    _add_window_flags(s, "y", -3.0, 3.0)
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
    try:
        args = build_parser().parse_args(argv)
        payload = args.func(args)
        if payload is not None:
            _emit_json(payload)
        sys.stdout.flush()   # a reader that closed early raises here, not at exit
    except BrokenPipeError:
        # the reader closed early: stdout to devnull, so that the flush at
        # exit raises nothing (the SIGPIPE note of the Python documentation)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except HeisminError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE if isinstance(exc, ExprSyntaxError) else EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
