import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from heismin import expr, verify
from heismin.errors import EvaluationError, ExprSyntaxError
from heismin.numerics import FD_STEP_D2, YFunction, central_d1, central_d2


def ev(src, x):
    return expr.parse_expr(src).eval(x)


def test_basic_values():
    assert ev("1/(x+1)", 1.0) == 0.5
    assert abs(ev("sin(pi)", 0.0)) <= 1e-15
    assert ev("2+3*4^2", 0.0) == 50.0
    assert ev("2^3^2", 0.0) == 512.0  # right associative
    assert ev("-x^2", 3.0) == -9.0
    assert ev("abs(-3)", 0.0) == 3.0
    assert ev("e", 0.0) == math.e
    assert ev("1.5e2", 0.0) == 150.0


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as ei:
        expr.parse_expr("2*^3")
    assert ei.value.offset == 2
    with pytest.raises(ExprSyntaxError):
        expr.parse_expr("sin x")
    with pytest.raises(ExprSyntaxError):
        expr.parse_expr("(1+2")
    with pytest.raises(ExprSyntaxError):
        expr.parse_expr("1+q")  # unknown name


SOURCES = [
    "x^3 - 2*x + 1",
    "sin(x)*cos(x) + exp(-x)",
    "1/(x^2 + 1)",
    "sqrt(x^2 + 1)",
    "log(x + 3) * tan(x/4)",
    "abs(x) + pi*x",
    "-(x - 2)^2 / (x + 5)",
]


@pytest.mark.parametrize("src", SOURCES)
def test_pretty_round_trip(src):
    ast = expr.parse_expr(src)
    again = expr.parse_expr(ast.pretty())
    for x in (-1.5, -0.3, 0.7, 2.0):
        assert again.eval(x) == ast.eval(x)


@pytest.mark.parametrize("ast", [expr.parse_expr("1e999"),
                                 expr.parse_expr("x^1e999").deriv()],
                         ids=["1e999", "d/dx x^1e999"])
def test_pretty_round_trip_of_infinity(ast):
    # +inf prints as 1e999, which parses back to +inf
    again = expr.parse_expr(ast.pretty())
    assert "1e999" in ast.pretty() and again.pretty() == ast.pretty()
    for x in (-1.5, -0.3, 0.7, 2.0):
        assert repr(again.eval(x)) == repr(ast.eval(x))


@pytest.mark.parametrize("src", SOURCES)
def test_symbolic_derivative_matches_fd(src):
    ast = expr.parse_expr(src)
    dast = ast.deriv()
    fn = YFunction.from_expr(src, "x")
    for x in (-1.1, 0.4, 1.3, 2.2):
        fd = central_d1(ast.eval, x, 1e-6)
        assert dast.eval(x) == pytest.approx(fd, rel=1e-6, abs=1e-6)
        fd2 = central_d2(ast.eval, x, FD_STEP_D2)
        assert fn.d2(x) == pytest.approx(fd2, rel=1e-5, abs=1e-5)


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.5, 3))
@settings(max_examples=50)
def test_polynomial_identity(a, b, x):
    src = f"({a!r}) * x^2 + ({b!r}) * x"
    assert ev(src, x) == pytest.approx(a * x * x + b * x, rel=1e-12)


def test_abs_derivative_sign_convention():
    d = expr.parse_expr("abs(x)").deriv()
    assert d.eval(2.0) == 1.0
    assert d.eval(-2.0) == -1.0
    assert d.eval(0.0) == 0.0


def test_power_rule_with_negative_base():
    # constant exponents keep the plain power rule, valid for x < 0
    d = expr.parse_expr("x^3").deriv()
    assert d.eval(-2.0) == pytest.approx(12.0)


def test_multi_variable_parse_and_partials():
    ast = expr.parse_expr_multi("x*y + sin(x)", ("x", "y"))
    env = {"x": 0.5, "y": 2.0}
    assert ast.eval(env) == pytest.approx(1.0 + math.sin(0.5))
    assert ast.deriv("x").eval(env) == pytest.approx(2.0 + math.cos(0.5))
    assert ast.deriv("y").eval(env) == pytest.approx(0.5)


def test_unknown_variable_in_multi():
    with pytest.raises(ExprSyntaxError):
        expr.parse_expr_multi("x + z", ("x", "y"))


def test_abs_derivative_of_numpy_scalars_is_an_int_sign():
    # grid and Newton points are numpy scalars; np.bool_ - np.bool_ raises
    d = expr.parse_expr_multi("abs(x-y)").deriv("x")
    for x, sign in ((np.float64(2.0), 1.0), (np.float64(-2.0), -1.0), (np.float64(0.0), 0.0)):
        assert d.eval({"x": x, "y": np.float64(0.0)}) == sign
    assert expr.parse_expr("abs(x)").deriv().eval(np.float64(-0.5)) == -1.0


# ------------------------------------------------- the tree walk as reference

# tan, exp, log and ^ are the library's one definition on numpy, whose
# outcomes test_shared_definitions_raise_as_math_does holds to math's
REF_FUNCS = {"sin": math.sin, "cos": math.cos, "tan": expr.tan, "exp": expr.exp,
             "log": expr.log, "sqrt": math.sqrt, "abs": abs}


def walk(node, x):
    """Reference: the recursive tree walk that eval was before expressions
    compiled, one Python call per node (Sign on Python floats only)."""
    if isinstance(node, expr.Num):
        return node.value
    if isinstance(node, expr.Var):
        return x[node.name] if isinstance(x, dict) else x
    if isinstance(node, expr.Const):
        return expr.CONSTS[node.name]
    if isinstance(node, expr.Neg):
        return -walk(node.arg, x)
    if isinstance(node, expr.BinOp):
        a, b = walk(node.left, x), walk(node.right, x)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return a / b
        return expr.power(a, b)
    if isinstance(node, expr.Call):
        return REF_FUNCS[node.func](walk(node.arg, x))
    v = walk(node.arg, x)
    return (v > 0) - (v < 0)


def rderiv(node, var=None):
    """Reference: the recursive derivative that deriv was before it walked
    the tree iteratively."""
    Num, BinOp, Call, Neg = expr.Num, expr.BinOp, expr.Call, expr.Neg
    if isinstance(node, (Num, expr.Const, expr.Sign)):
        return Num(0.0)
    if isinstance(node, expr.Var):
        return Num(1.0) if var is None or var == node.name else Num(0.0)
    if isinstance(node, Neg):
        return Neg(rderiv(node.arg, var))
    if isinstance(node, BinOp):
        f, g = node.left, node.right
        df, dg = rderiv(f, var), rderiv(g, var)
        if node.op in "+-":
            return BinOp(node.op, df, dg)
        if node.op == "*":
            return BinOp("+", BinOp("*", df, g), BinOp("*", f, dg))
        if node.op == "/":
            num = BinOp("-", BinOp("*", df, g), BinOp("*", f, dg))
            return BinOp("/", num, BinOp("^", g, Num(2.0)))
        if isinstance(g, Num):
            return BinOp("*", BinOp("*", g, BinOp("^", f, Num(g.value - 1.0))), df)
        inner = BinOp("+", BinOp("*", dg, Call("log", f)),
                      BinOp("/", BinOp("*", g, df), f))
        return BinOp("*", BinOp("^", f, g), inner)
    u, du = node.arg, rderiv(node.arg, var)
    outer = {"sin": lambda: Call("cos", u), "cos": lambda: Neg(Call("sin", u)),
             "tan": lambda: BinOp("/", Num(1.0), BinOp("^", Call("cos", u), Num(2.0))),
             "exp": lambda: Call("exp", u), "log": lambda: BinOp("/", Num(1.0), u),
             "sqrt": lambda: BinOp("/", Num(1.0), BinOp("*", Num(2.0), Call("sqrt", u))),
             "abs": lambda: expr.Sign(u)}[node.func]()
    return BinOp("*", outer, du)


def outcome(fn, x):
    """The value's type and bits (the sign of a zero included), or the class
    of the exception raised.  Every nan is one outcome: the sign CPython
    gives nan * -nan changes once the multiplication is specialized, so a
    nan's bits differ between two calls of one function."""
    try:
        v = fn(x)
    except Exception as exc:   # the class is the outcome compared
        return ("raises", type(exc))
    if isinstance(v, float):
        return (float, "nan" if math.isnan(v) else struct.pack("<d", v))
    return (type(v), v)


SPECIALS = [0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 3.0, math.inf, -math.inf, math.nan,
            1e308, 5e-324, 710.0]
LEAVES = st.one_of(
    st.sampled_from(SPECIALS).map(expr.Num),
    st.floats(-1e3, 1e3).map(expr.Num),
    st.sampled_from(["x", "y"]).map(expr.Var),
    st.sampled_from(["pi", "e"]).map(expr.Const),
)


def _grow(kids):
    return st.one_of(
        kids.map(expr.Neg),
        st.builds(expr.BinOp, st.sampled_from("+-*/^"), kids, kids),
        st.builds(expr.Call, st.sampled_from(sorted(REF_FUNCS)), kids),
        kids.map(expr.Sign),
    )


TREES = st.recursive(LEAVES, _grow, max_leaves=10)
POINTS = st.one_of(st.sampled_from(SPECIALS), st.floats(allow_nan=True))


N, V, B, C = expr.Num, expr.Var, expr.BinOp, expr.Call


@given(TREES, POINTS, POINTS, st.sampled_from([None, "x", "y"]))
@example(N(-0.0), 1.0, 1.0, None)
@example(B("+", B("*", N(-0.0), V("x")), B("*", N(0.0), V("x"))), 2.0, 1.0, "x")
@example(B("-", N(math.inf), V("y")), -0.0, math.inf, "y")
@example(B("*", N(math.nan), C("sin", V("x"))), math.nan, 0.0, "x")
@example(C("log", N(-1.0)), 0.0, 0.0, None)
@example(B("/", N(1.0), B("-", V("x"), V("x"))), 3.0, 3.0, "x")
@example(B("^", V("x"), N(400.0)), 1e3, 0.0, "x")
@example(C("abs", B("-", V("x"), V("y"))), 0.5, -0.5, "y")
@settings(max_examples=400, deadline=None)
def test_compiled_eval_matches_tree_walk(tree, x, y, var):
    # a derivative shares subtrees between its terms, which the compiled
    # code computes once; a point given as a float feeds every variable
    d = tree.deriv(var)
    assert repr(d) == repr(rderiv(tree, var))
    for node in (tree, d, d.deriv("x")):
        for point in (x, {"x": x, "y": y}):
            assert outcome(node.eval, point) == outcome(lambda p: walk(node, p), point)


@pytest.mark.parametrize("src, x, error", [
    ("log(x-5)", 1.0, ValueError),           # math domain error
    ("10^1000 + x", 0.5, OverflowError),     # math.pow overflow
    ("exp(1000*x)", 1.0, OverflowError),
    ("(0-1)^0.5", 0.0, ValueError),          # negative base, fractional power
    ("1/(x-2) + log(x-5)", 2.0, ZeroDivisionError),   # the first error raised
    ("log(x-5) + 1/(x-2)", 2.0, ValueError),
    ("1/0", 0.0, ZeroDivisionError),
])
def test_compiled_eval_raises_the_walks_first_error(src, x, error):
    ast = expr.parse_expr(src)
    with pytest.raises(error) as got:
        ast.eval(x)
    with pytest.raises(error) as want:
        walk(ast, x)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("src, y, which, message", [
    ("log(y-5)", 1.0, "f", "cannot evaluate at y = 1.0: math domain error"),
    ("10^1000", 0.5, "d", "cannot evaluate at y = 0.5: math range error"),
    ("(0-1)^0.5", 0.5, "d2", "cannot evaluate at y = 0.5: math domain error"),
    ("exp(1000*y)", 1.0, "d2", "cannot evaluate at y = 1.0: math range error"),
    ("1/(y-2)", 2.0, "d", "cannot evaluate at y = 2.0: float division by zero"),
    ("(y-1)^(-1)", 1.0, "f", "cannot evaluate at y = 1.0: math domain error"),
])
def test_evaluation_error_messages(src, y, which, message):
    fn = YFunction.from_expr(src)
    with pytest.raises(EvaluationError) as got:
        {"f": fn, "d": fn.d, "d2": fn.d2}[which](y)
    assert str(got.value) == message


def test_graph_evaluation_error_messages():
    g = verify.GraphSurface.from_expr("1/(x-y) + log(x)")
    with pytest.raises(EvaluationError, match=r"^cannot evaluate at \(x, y\) = "
                       r"\(1\.0, 1\.0\): float division by zero$"):
        g.at(1.0, 1.0)
    with pytest.raises(EvaluationError, match=r"^cannot evaluate at \(x, y\) = "
                       r"\(-1\.0, 0\.0\): math domain error$"):
        g.u(-1.0, 0.0)


# ------------------------------------------------------------- array form

EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
         -1e-310, 1.0, -1.0, 1e308, -1e308]


def _bits(v):
    return "nan" if math.isnan(v) else struct.pack("<d", v)


def _random_doubles(rng, n):
    """n uniform values in [-10, 10] and n finite doubles of every exponent."""
    wide = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    return np.concatenate([rng.uniform(-10.0, 10.0, n), wide[np.isfinite(wide)]])


UNARY = {"sin": (np.sin, math.sin), "cos": (np.cos, math.cos),
         "sqrt": (np.sqrt, math.sqrt), "abs": (np.abs, abs), "neg": (np.negative, lambda v: -v)}
BINARY = {"+": (np.add, lambda a, b: a + b), "-": (np.subtract, lambda a, b: a - b),
          "*": (np.multiply, lambda a, b: a * b), "/": (expr._ARRAY_CALLS["div"], lambda a, b: a / b)}


def _array_outcome(fn, *args):
    with np.errstate(divide="raise", invalid="raise", over="ignore", under="ignore"):
        try:
            return _bits(float(fn(*(np.array([a]) for a in args))[0]))
        except (ValueError, ArithmeticError):
            return "raises"


def _math_outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except (ValueError, ArithmeticError):
        return "raises"


@pytest.mark.parametrize("name", sorted(UNARY))
def test_array_ufuncs_keep_maths_bits(name):
    # the array form calls these ufuncs in place of math's functions, so a
    # host whose numpy rounds one of them differently must fail here
    ufunc, fn = UNARY[name]
    xs = _random_doubles(np.random.default_rng(7), 50_000)
    if name == "sqrt":
        xs = np.abs(xs)
    with np.errstate(invalid="ignore"):
        got = ufunc(xs)
    want = [fn(v) for v in xs.tolist()]
    assert [_bits(v) for v in got.tolist()] == [_bits(v) for v in want]
    for v in EDGES:
        # where math raises the ufunc must raise; elsewhere it may only
        # raise (the closures then run) or agree
        want, got = _math_outcome(fn, v), _array_outcome(ufunc, v)
        assert got == want or (got == "raises" and name != "neg"), (v, got, want)


# name -> (the library's one definition, the numpy call it makes, math's function)
SHARED = {"exp": (expr.exp, np.exp, math.exp), "log": (expr.log, np.log, math.log),
          "tan": (expr.tan, np.tan, math.tan),
          "power": (expr.power, lambda a, b: expr._power(a, b, float), math.pow),
          "hypot": (expr.hypot, np.hypot, math.hypot)}


def _arity(name):
    return 2 if name in ("power", "hypot") else 1


@pytest.mark.parametrize("name", sorted(SHARED))
def test_numpy_gives_a_float_an_arrays_bits(name):
    # a float and an array share one definition of each of these, so its
    # numpy call on floats must round as on a contiguous array, a strided
    # one and one of one element, with an array of exponents as with one
    call = SHARED[name][1]
    rng = np.random.default_rng(9)
    xs = _random_doubles(rng, 50_000)
    if _arity(name) == 1:
        args = [(xs,)]
    else:
        ys = rng.uniform(-10.0, 10.0, xs.size)
        ys[::2] = rng.choice([2.0, -1.0, 0.5, 0.0, 1.0, 3.0, -2.0], ys[::2].size)
        args = [(xs, ys), (rng.permutation(xs), xs)] + [(xs, c) for c in (2.0, 0.5, -1.0, 3.0)]
    with np.errstate(all="ignore"):
        for arg in args:
            each = [_bits(call(*p)) for p in zip(*(np.broadcast_to(a, xs.shape).tolist()
                                                    for a in arg))]
            assert [_bits(v) for v in call(*arg).tolist()] == each
            strided = call(*(a[::3] if np.ndim(a) else a for a in arg))
            assert [_bits(v) for v in strided.tolist()] == each[::3]
        points = zip(EDGES) if _arity(name) == 1 else ((x, y) for x in EDGES for y in EDGES)
        for p in points:
            assert _bits(call(*p)) == _bits(call(*(np.array([v]) for v in p))[0]), p


def test_a_power_over_arrays_of_exponents_has_the_float_calls_bits():
    # numpy rounds x^2, x^-1 and x^0.5 one way for a single exponent and
    # another for an array of them; sqrt(-0.0) is -0.0 and sqrt(-inf) nan
    rng = np.random.default_rng(10)
    ys = rng.choice([2.0, -1.0, 0.5], 3_000)
    xs = rng.uniform(-10.0, 10.0, ys.size)
    xs = np.concatenate([np.where(ys == 0.5, np.abs(xs), xs), [-0.0, 5e-324, math.inf]])
    ys = np.concatenate([ys, [0.5, 0.5, 0.5]])
    node = expr.parse_expr_multi("x^y")
    got = node.eval_array({"x": xs, "y": ys})
    assert [_bits(v) for v in got.tolist()] == \
        [_bits(node.eval({"x": x, "y": y})) for x, y in zip(xs.tolist(), ys.tolist())]
    with pytest.raises(ValueError, match="^math domain error$"):
        node.eval_array({"x": np.array([4.0, -math.inf]), "y": np.array([0.5, 0.5])})


@pytest.mark.parametrize("exponent", [2.0, 1.0, 0.0])
def test_a_float_power_at_a_small_exponent_is_numpys_scalar_power(exponent):
    # power answers these without numpy: a * a, a and 1.0 must be np.power's
    # bits at a float base, and raise exactly where its square overflows
    rng = np.random.default_rng(11)
    xs = _random_doubles(rng, 20_000).tolist() + EDGES + [1.4e154, -1.4e154, 1.35e154]
    for x in xs:
        with np.errstate(all="ignore"):
            want = float(np.power(x, exponent))
        if math.isinf(want) and math.isfinite(x):
            with pytest.raises(OverflowError, match="^math range error$"):
                expr.power(x, exponent)
        else:
            assert _bits(expr.power(x, exponent)) == _bits(want), x
            assert type(expr.power(x, exponent)) is float


def test_equal_sources_parse_to_one_tree():
    src = "x*y + 0.25*x^2 - sin(y)"
    tree = expr.parse_expr_multi(src, ("x", "y"))
    assert expr.parse_expr_multi(src, ["x", "y"]) is tree
    assert expr.parse_expr_multi(src, ("y", "x")) is not tree
    assert expr.parse_expr("x^2 + 1") is expr.parse_expr("x^2 + 1", "x")
    assert expr.parse_expr("x^2 + 1") is not expr.parse_expr_multi("x^2 + 1", ("x", "y"))
    # so a function built again from its source reuses the compiled code
    a, b = (YFunction.from_expr("0.3*y + sin(y)") for _ in range(2))
    assert all(p is q for p, q in zip((a.f, a.df, a.d2f), (b.f, b.df, b.d2f)))


def test_a_syntax_error_is_raised_on_every_call():
    offsets = []
    for _ in range(3):
        with pytest.raises(ExprSyntaxError) as info:
            expr.parse_expr_multi("x*(y + 1", ("x", "y"))
        offsets.append(info.value.offset)
    assert offsets == [8, 8, 8]


def test_a_derivative_is_kept_on_its_node_and_nowhere_visible():
    tree = expr.parse_expr_multi("x^3*y + cos(x)", ("x", "y"))
    fresh = expr._Parser("x^3*y + cos(x)", ("x", "y")).parse()
    kids, text = tree.children(), tree.pretty()
    dx, dy = tree.deriv("x"), tree.deriv("y")
    assert tree.deriv("x") is dx and tree.deriv("y") is dy and dx is not dy
    assert dx.deriv("y") is dx.deriv("y")
    assert dx == fresh.deriv("x") and dy == fresh.deriv("y")
    assert tree.children() == kids and tree.pretty() == text
    assert tree == fresh and hash(tree) == hash(fresh)


def test_the_parse_cache_is_bounded():
    first = expr.parse_expr("x + 0")
    for i in range(1, expr.CACHE_SIZE + 1):
        expr.parse_expr(f"x + {i}")
    again = expr.parse_expr("x + 0")
    assert again is not first and again == first


def _outcome_class(fn, *args):
    """The class and message of the error raised, or the class returned."""
    try:
        return type(fn(*args))
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


# (name, arguments) where the outcome is not math's: numpy's power(-inf, 0.5)
# is sqrt(-inf) = nan, on which power raises, where math.pow gives inf
DIFFERS_FROM_MATH = {("power", -math.inf, 0.5)}


@pytest.mark.parametrize("name", sorted(SHARED))
def test_shared_definitions_raise_as_math_does(name):
    # math's error and message where it raises, a float where it returns
    fn, _, math_fn = SHARED[name]
    points = zip(SPECIALS) if _arity(name) == 1 else ((x, y) for x in SPECIALS for y in SPECIALS)
    differ = {p for p in points if _outcome_class(fn, *p) != _outcome_class(math_fn, *p)}
    assert differ == {p[1:] for p in DIFFERS_FROM_MATH if p[0] == name}
    assert _outcome_class(fn, *[0.5] * _arity(name)) is float


@pytest.mark.parametrize("op", sorted(BINARY))
def test_array_arithmetic_keeps_pythons_bits_and_errors(op):
    ufunc, fn = BINARY[op]
    rng = np.random.default_rng(8)
    a, b = _random_doubles(rng, 20_000), _random_doubles(rng, 20_000)
    n = min(a.size, b.size)
    a, b = a[:n], b[:n]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got = ufunc(a, b)
    assert [_bits(v) for v in got.tolist()] == [_bits(fn(x, y)) for x, y in zip(a.tolist(), b.tolist())]
    for x in EDGES:
        for y in EDGES:
            want, got = _math_outcome(fn, x, y), _array_outcome(ufunc, x, y)
            assert got == want or got == "raises", (x, y, got, want)
            if want == "raises":
                assert got == "raises", (x, y)


GRAMMAR = st.recursive(LEAVES, lambda kids: st.one_of(
    kids.map(expr.Neg),
    st.builds(expr.BinOp, st.sampled_from("+-*/^"), kids, kids),
    st.builds(expr.Call, st.sampled_from(sorted(REF_FUNCS)), kids)), max_leaves=10)


@given(GRAMMAR, st.lists(st.tuples(POINTS, POINTS), min_size=1, max_size=5),
       st.sampled_from([None, "x", "y"]))
@example(B("+", B("/", N(1.0), B("-", V("x"), V("y"))), C("log", V("x"))),
         [(2.0, 0.5), (1.0, 1.0)], "y")
@example(B("^", V("y"), N(2.0)), [(0.0, -0.0), (1.0, math.nan)], "y")
@example(C("abs", B("-", V("x"), V("y"))), [(0.5, -0.5), (0.0, 0.0), (-1.0, 2.0)], "x")
@settings(max_examples=250, deadline=None, derandomize=True)
def test_array_eval_gives_evals_bits_or_raises(tree, points, var):
    # a tree as parse and deriv build it (Sign only as deriv makes it):
    # eval_array has eval's bits at every point, and raises if eval raises
    # at any one of them
    xs, ys = (np.array(c, dtype=float) for c in zip(*points))
    d = tree.deriv(var)
    for node in (tree, d, d.deriv("x")):
        want = [outcome(node.eval, {"x": x, "y": y}) for x, y in points]
        try:
            got = np.broadcast_to(node.eval_array({"x": xs, "y": ys}), xs.shape)
        except (ValueError, ArithmeticError):
            continue
        assert all(w[0] != "raises" for w in want)
        assert [_bits(v) for v in got.tolist()] == \
            [w[1] if w[0] is float else _bits(float(w[1])) for w in want]


# ----------------------------------------------------------- sympy oracle

SAFE = st.recursive(
    st.one_of(st.floats(0.25, 3.0).map(expr.Num), st.sampled_from(["x", "y"]).map(expr.Var),
              st.just(expr.Const("pi")), st.just(expr.Const("e"))),
    lambda kids: st.one_of(
        kids.map(expr.Neg),
        st.builds(expr.BinOp, st.sampled_from("+-*/"), kids, kids),
        st.builds(expr.BinOp, st.just("^"), kids, st.sampled_from([2.0, 3.0, -1.0, 0.5]).map(expr.Num)),
        st.builds(expr.Call, st.sampled_from(["sin", "cos", "exp", "abs", "tan"]), kids),
    ),
    max_leaves=8)


@given(SAFE, st.floats(0.3, 2.0), st.floats(0.3, 2.0), st.sampled_from(["x", "y"]))
@settings(max_examples=60, deadline=None)
def test_derivative_matches_sympy(tree, x, y, var):
    sympy = pytest.importorskip("sympy")
    sx, sy = sympy.symbols("x y", real=True)
    # pi and e as the floats the program reads: sin(pi) is 1.2e-16, not 0,
    # so a tree dividing by it has a finite derivative on both sides
    consts = {name: sympy.Float(value, 30) for name, value in expr.CONSTS.items()}
    want_expr = sympy.diff(sympy.sympify(tree.pretty(), locals={"x": sx, "y": sy, **consts}),
                           {"x": sx, "y": sy}[var])
    try:
        got = tree.deriv(var).eval({"x": x, "y": y})
        want = complex(want_expr.evalf(30, subs={sx: x, sy: y}))
    except (ValueError, ArithmeticError, TypeError):
        assume(False)
    assume(math.isfinite(got) and math.isfinite(want.real) and abs(want.real) < 1e12)
    assert want.imag == 0.0
    assert got == pytest.approx(want.real, rel=1e-8, abs=1e-8)


# ------------------------------------------------------------- tree depth

def _sum(n):
    return "x*y" + "+0.001*y" * (n - 2)   # a left-deep sum n levels deep


def test_deepest_accepted_tree_compiles_and_differentiates():
    ast = expr.parse_expr_multi(_sum(expr.MAX_DEPTH))
    dxy = ast.deriv("y").deriv("y")
    assert dxy.eval({"x": 1.0, "y": 2.0}) == 0.0
    assert ast.deriv("x").eval({"x": 1.0, "y": 2.0}) == 2.0
    assert ast.eval({"x": 2.0, "y": 1.0}) == pytest.approx(2.0 + 0.001 * (expr.MAX_DEPTH - 2))


def test_deeper_tree_is_a_syntax_error_with_its_offset():
    src = _sum(expr.MAX_DEPTH + 200)
    with pytest.raises(ExprSyntaxError) as ei:
        expr.parse_expr_multi(src)
    # the term that made the tree one level too deep ends here
    assert ei.value.offset == len(_sum(expr.MAX_DEPTH + 1))
    assert "1000 levels deep" in str(ei.value)


def test_nesting_beyond_the_parser_is_a_syntax_error():
    src = "(" * 400 + "x" + ")" * 400
    with pytest.raises(ExprSyntaxError):
        expr.parse_expr(src)
    assert expr.parse_expr("(" * 100 + "x" + ")" * 100).eval(3.0) == 3.0


@pytest.mark.parametrize("fails", [[], [7], [2, 7, 11], list(range(12))])
def test_pointwise_replays_only_the_points_whose_array_values_are_not_finite(fails):
    # fn raises at some points, where array_fn gives nan, and returns inf at
    # point 5: the values and the first error are the full replay's, from fn
    # called at those points only
    calls = []

    def fn(x, y):
        calls.append(x)
        if x in fails:
            raise ZeroDivisionError(f"at {x}")
        return (x + y, math.inf if x == 5 else x * y)

    def array_fn(x, y):
        bad = np.isin(x, fails)
        return np.where(bad, np.nan, x + y), np.where(bad | (x == 5), np.inf, x * y)

    xs, ys = np.arange(12.0).reshape(3, 4), np.full((3, 4), 0.5)
    replayed = sorted({5, *fails})

    def outcome(array):
        calls.clear()
        try:
            return expr.pointwise(fn, 2, array)(xs, ys)
        except ZeroDivisionError as exc:
            return str(exc)
    full = outcome(None)
    assert calls == (list(range(fails[0] + 1)) if fails else list(range(12)))
    got = outcome(array_fn)
    assert calls == [x for x in replayed if not fails or x <= fails[0]]
    if fails:
        assert got == full == f"at {fails[0]}.0"
    else:
        assert all(np.array_equal(a, b) for a, b in zip(got, full))
