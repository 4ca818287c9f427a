import math

import pytest
from hypothesis import given, settings, strategies as st

from heismin import expr
from heismin.errors import ExprSyntaxError
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
