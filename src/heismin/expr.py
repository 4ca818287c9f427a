"""Expression mini-language for one-variable functions.

Grammar (whitespace insignificant):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?          # right associative
    atom   := NUMBER | VARIABLE | "pi" | "e"
            | FUNC "(" expr ")" | "(" expr ")"

with FUNC in {sin, cos, tan, exp, log, sqrt, abs}.  ASTs evaluate
numerically, differentiate symbolically (forward mode on the tree), and
pretty-print back to parseable source.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ExprSyntaxError

FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
}

CONSTS = {"pi": math.pi, "e": math.e}


class Node:
    """AST node.  eval accepts either a plain number (single-variable
    expressions) or a dict name -> value (multi-variable); deriv(var)
    differentiates with respect to the named variable, defaulting to the
    unique variable of a single-variable expression."""

    def eval(self, x) -> float:
        raise NotImplementedError

    def deriv(self, var=None) -> "Node":
        raise NotImplementedError

    def pretty(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Node):
    value: float

    def eval(self, x):
        return self.value

    def deriv(self, var=None):
        return Num(0.0)

    def pretty(self):
        if self.value == int(self.value) and abs(self.value) < 1e16:
            return str(int(self.value))
        return repr(self.value)


@dataclass(frozen=True)
class Var(Node):
    name: str

    def eval(self, x):
        if isinstance(x, dict):
            return x[self.name]
        return x

    def deriv(self, var=None):
        if var is None or var == self.name:
            return Num(1.0)
        return Num(0.0)

    def pretty(self):
        return self.name


@dataclass(frozen=True)
class Const(Node):
    name: str

    def eval(self, x):
        return CONSTS[self.name]

    def deriv(self, var=None):
        return Num(0.0)

    def pretty(self):
        return self.name


@dataclass(frozen=True)
class Neg(Node):
    arg: Node

    def eval(self, x):
        return -self.arg.eval(x)

    def deriv(self, var=None):
        return Neg(self.arg.deriv(var))

    def pretty(self):
        return f"(-{self.arg.pretty()})"


@dataclass(frozen=True)
class BinOp(Node):
    op: str
    left: Node
    right: Node

    def eval(self, x):
        a, b = self.left.eval(x), self.right.eval(x)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            return a / b
        if self.op == "^":
            # a negative base with a non-integer exponent raises ValueError
            # here, where a**b would return a complex number
            return math.pow(a, b)
        raise AssertionError(self.op)

    def deriv(self, var=None):
        f, g = self.left, self.right
        df, dg = f.deriv(var), g.deriv(var)
        if self.op in "+-":
            return BinOp(self.op, df, dg)
        if self.op == "*":
            return BinOp("+", BinOp("*", df, g), BinOp("*", f, dg))
        if self.op == "/":
            num = BinOp("-", BinOp("*", df, g), BinOp("*", f, dg))
            return BinOp("/", num, BinOp("^", g, Num(2.0)))
        if self.op == "^":
            # General case d(f^g) = f^g * (dg*log f + g*df/f); the common
            # constant-exponent case keeps the simpler power-rule form so
            # it stays valid for negative bases.
            if isinstance(g, Num):
                return BinOp(
                    "*",
                    BinOp("*", g, BinOp("^", f, Num(g.value - 1.0))),
                    df,
                )
            inner = BinOp(
                "+",
                BinOp("*", dg, Call("log", f)),
                BinOp("/", BinOp("*", g, df), f),
            )
            return BinOp("*", BinOp("^", f, g), inner)
        raise AssertionError(self.op)

    def pretty(self):
        return f"({self.left.pretty()} {self.op} {self.right.pretty()})"


@dataclass(frozen=True)
class Call(Node):
    func: str
    arg: Node

    def eval(self, x):
        return FUNCS[self.func](self.arg.eval(x))

    def deriv(self, var=None):
        u, du = self.arg, self.arg.deriv(var)
        if self.func == "sin":
            outer = Call("cos", u)
        elif self.func == "cos":
            outer = Neg(Call("sin", u))
        elif self.func == "tan":
            outer = BinOp("/", Num(1.0), BinOp("^", Call("cos", u), Num(2.0)))
        elif self.func == "exp":
            outer = Call("exp", u)
        elif self.func == "log":
            outer = BinOp("/", Num(1.0), u)
        elif self.func == "sqrt":
            outer = BinOp("/", Num(1.0), BinOp("*", Num(2.0), Call("sqrt", u)))
        elif self.func == "abs":
            # d|u|/du = sign(u), with sign(0) = 0 by convention
            outer = Sign(u)
        else:
            raise AssertionError(self.func)
        return BinOp("*", outer, du)

    def pretty(self):
        return f"{self.func}({self.arg.pretty()})"


@dataclass(frozen=True)
class Sign(Node):
    """sign(u); appears only as the derivative of abs."""

    arg: Node

    def eval(self, x):
        v = self.arg.eval(x)
        return (v > 0) - (v < 0)

    def deriv(self, var=None):
        return Num(0.0)

    def pretty(self):
        # printed as a subtraction of step functions is overkill; keep a
        # dedicated spelling that parse_expr does not need to accept
        return f"sign({self.arg.pretty()})"


class _Parser:
    def __init__(self, src: str, variables):
        self.src = src
        self.variables = tuple(variables)
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def _fail(self, expected):
        self._skip_ws()
        raise ExprSyntaxError(self.pos, expected)

    def parse(self) -> Node:
        node = self.expr()
        self._skip_ws()
        if self.pos != len(self.src):
            self._fail("end of input")
        return node

    def expr(self) -> Node:
        node = self.term()
        while self._peek() in ("+", "-"):
            op = self.src[self.pos]
            self.pos += 1
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self._peek() in ("*", "/"):
            op = self.src[self.pos]
            self.pos += 1
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Node:
        if self._peek() == "-":
            self.pos += 1
            return Neg(self.factor())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self._peek() == "^":
            self.pos += 1
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Node:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            node = self.expr()
            if self._peek() != ")":
                self._fail("')'")
            self.pos += 1
            return node
        if ch.isdigit() or ch == ".":
            return self._number()
        if ch.isalpha() or ch == "_":
            return self._word()
        self._fail("number, name or '('")

    def _number(self) -> Node:
        start = self.pos
        s = self.src
        while self.pos < len(s) and (s[self.pos].isdigit() or s[self.pos] == "."):
            self.pos += 1
        if self.pos < len(s) and s[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(s) and s[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(s) and s[self.pos].isdigit():
                while self.pos < len(s) and s[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark
        try:
            return Num(float(s[start:self.pos]))
        except ValueError:
            self.pos = start
            self._fail("number")

    def _word(self) -> Node:
        start = self.pos
        s = self.src
        while self.pos < len(s) and (s[self.pos].isalnum() or s[self.pos] == "_"):
            self.pos += 1
        name = s[start:self.pos]
        if name in CONSTS:
            return Const(name)
        if name in FUNCS:
            if self._peek() != "(":
                self._fail("'(' after function name")
            self.pos += 1
            arg = self.expr()
            if self._peek() != ")":
                self._fail("')'")
            self.pos += 1
            return Call(name, arg)
        if name in self.variables:
            return Var(name)
        self.pos = start
        names = ", ".join(f"'{v}'" for v in self.variables)
        self._fail(f"variable {names}, function or constant")


def parse_expr(src: str, var: str = "x") -> Node:
    """Parse single-variable source text into an AST; raises
    ExprSyntaxError with the byte offset on malformed input."""
    return _Parser(src, (var,)).parse()


def parse_expr_multi(src: str, variables=("x", "y")) -> Node:
    """Parse source text over several variables; the AST then evaluates
    against a dict name -> value and differentiates via deriv(name)."""
    return _Parser(src, variables).parse()
