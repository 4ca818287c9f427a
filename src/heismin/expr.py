"""Expression mini-language for one-variable functions.

Grammar (whitespace insignificant):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?          # right associative
    atom   := NUMBER | VARIABLE | "pi" | "e"
            | FUNC "(" expr ")" | "(" expr ")"

with FUNC in {sin, cos, tan, exp, log, sqrt, abs}, and trees at most
MAX_DEPTH deep.  An AST compiles to straight-line Python on its first eval
(and to the same code over numpy arrays on its first eval_array),
differentiates symbolically (forward mode), and pretty-prints back to source.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ExprSyntaxError, HeisminError


def _numpy(ufunc, raises=True):
    """ufunc at numbers (a float) or arrays with the same bits, warnings off;
    if raises, with math's errors: a nan from arguments that are not nan, or
    an inf from finite ones at a zero one (a pole: log(0), 0^-1), is a domain
    error, and any other inf from finite arguments a range error."""
    def call(*args):
        with np.errstate(all="ignore"):
            out, a, b = ufunc(*args, dtype=float), args[0], args[-1]   # b is a for one argument
            out = out if out.ndim else float(out)
            if raises and not (math.isfinite(out) if type(out) is float   # 50 times faster
                               else np.isfinite(out).all()):
                inf = np.isinf(out) & np.isfinite(a) & np.isfinite(b)
                if (inf & ((a == 0.0) | (b == 0.0))
                        | np.isnan(out) & ~np.isnan(a) & ~np.isnan(b)).any():
                    raise ValueError("math domain error")
                if inf.any():
                    raise OverflowError("math range error")
        return out
    return call


def _by_type(scalar, array):   # math's call on a float is the faster where the bits agree
    return lambda v: array(v) if isinstance(v, np.ndarray) else scalar(v)


def _power(a, b, dtype):
    """np.power, with an array of exponents as with each alone: where the
    exponent is one number, numpy gives x^2, x^-1 and x^0.5 as x*x, 1/x and
    sqrt(x), which round otherwise than its pow."""
    out = np.power(a, b, dtype=dtype)
    if isinstance(b, np.ndarray) and b.ndim:
        a, b = np.broadcast_arrays(a, b)
        for c, short in ((2.0, np.square), (-1.0, np.reciprocal), (0.5, np.sqrt)):
            out[b == c] = short(a[b == c], dtype=dtype)
    return out


exp, log, tan, power = map(_numpy, (np.exp, np.log, np.tan, _power))
hypot = _numpy(np.hypot, raises=False)
sin, cos, sqrt = (_by_type(getattr(math, f), getattr(np, f)) for f in ("sin", "cos", "sqrt"))

# FUNC name -> (the function, its derivative d func(u)/du as a tree in u)
FUNCS = {
    "sin": (sin, lambda u: Call("cos", u)),
    "cos": (cos, lambda u: Neg(Call("sin", u))),
    "tan": (tan, lambda u: BinOp("/", Num(1.0), BinOp("^", Call("cos", u), Num(2.0)))),
    "exp": (exp, lambda u: Call("exp", u)),
    "log": (log, lambda u: BinOp("/", Num(1.0), u)),
    "sqrt": (sqrt, lambda u: BinOp("/", Num(1.0), BinOp("*", Num(2.0), Call("sqrt", u)))),
    "abs": (abs, lambda u: Sign(u)),   # sign(0) = 0 by convention
}

CONSTS = {"pi": math.pi, "e": math.e}
MAX_DEPTH = 1000   # deepest tree that parse_expr accepts

# names compiled code calls: power raises ValueError for a negative base and a
# fractional power, where ** gives a complex; sign is an int for numpy scalars too
_CALLS = {"pow": power, "sign": lambda v: int(v > 0) - int(v < 0),
          **{name: fn for name, (fn, _) in FUNCS.items()}}


def pointwise(fn, arity=None, array_fn=None):
    """fn over the elements of its (broadcast) array arguments, point by
    point in order, so that each value has fn's own bits and the first
    error is fn's own at the first point where it raises; array_fn, fn over
    arrays, runs first and stands where it raises nothing, fn replaying, in
    order, only the points where one of its values is not finite (each
    array_fn gives a finite value only where fn returns that value).
    Tuples of arity numbers give arity arrays, over no points too; numbers
    alone give fn's own value."""
    def mapped(*args):
        if all(isinstance(a, (int, float)) for a in args):
            return fn(*args)
        cols = np.broadcast_arrays(*args) if args[1:] else [np.asarray(args[0])]
        out, replay = None, slice(None)   # no array values: every point
        if array_fn is not None:
            try:
                with np.errstate(all="ignore"):
                    vals = array_fn(*cols)
                    out = [np.full(cols[0].shape, v, dtype=float)
                           for v in (vals if arity else [vals])]
                if all(np.isfinite(v).all() for v in out):
                    return tuple(out) if arity else out[0]
                replay = np.flatnonzero(~np.logical_and.reduce([np.isfinite(v) for v in out]))
            except (ValueError, ArithmeticError, HeisminError):
                out = None
        vals = np.array(list(map(fn, *(c.ravel()[replay].tolist() for c in cols))), dtype=float)
        vals = vals.reshape(-1, arity or 1).T
        if out is None:
            out = vals.reshape(len(vals), *cols[0].shape)
        else:   # only the points whose values are not finite
            for o, v in zip(out, vals):
                o.reshape(-1)[replay] = v
        return tuple(out) if arity else out[0]
    return mapped


def _divide(a, b):
    # Python's float division raises on every zero divisor; IEEE's inf/0 and
    # nan/0 raise nothing, so numpy's errstate alone would miss them
    if np.any(b == 0.0):
        raise ZeroDivisionError("float division by zero")
    return a / b


# names compiled array code calls: _CALLS, which take arrays too, but / and sign
_ARRAY_CALLS = {**_CALLS, "div": _divide, "sign": lambda v: (v > 0.0) * 1.0 - (v < 0.0) * 1.0}


class Node:
    """AST node.  eval, compiled on first use and kept on the node, takes a
    number (one variable) or a dict name -> value; deriv(var) differentiates
    in the named variable, by default the only one."""

    @cached_property
    def eval(self):
        return _compile(self)

    @cached_property
    def eval_array(self):
        """eval over numpy arrays of equal shape: eval's bits at every
        element, or an error wherever eval raises at some element (and
        possibly where it returns a nan or an inf).  A value that does not
        depend on the variables is a scalar."""
        f = _compile(self, array=True)

        def over_arrays(arg):
            with np.errstate(divide="raise", invalid="raise", over="ignore", under="ignore"):
                return f(arg)
        return over_arrays

    def deriv(self, var=None) -> "Node":
        d = {}
        for node in _postorder(self):
            d[id(node)] = node._d(var, *(d[id(k)] for k in node.children()))
        return d[id(self)]

    def _d(self, var, *dkids) -> "Node":
        """The derivative of this node, given those of its children."""
        return Num(0.0)

    def children(self) -> list:
        return [v for v in vars(self).values() if isinstance(v, Node)]


@dataclass(frozen=True)
class Num(Node):
    value: float

    def pretty(self):
        if self.value == math.inf:   # the only non-finite Num parse and deriv make
            return "1e999"
        if self.value == int(self.value) and abs(self.value) < 1e16:
            return str(int(self.value))
        return repr(self.value)


@dataclass(frozen=True)
class Var(Node):
    name: str

    def _d(self, var):
        return Num(1.0 if var is None or var == self.name else 0.0)

    def pretty(self):
        return self.name


@dataclass(frozen=True)
class Const(Node):
    name: str
    pretty = Var.pretty


@dataclass(frozen=True)
class Neg(Node):
    arg: Node

    def _d(self, var, da):
        return Neg(da)

    def pretty(self):
        return f"(-{self.arg.pretty()})"


@dataclass(frozen=True)
class BinOp(Node):
    op: str
    left: Node
    right: Node

    def _d(self, var, df, dg):
        f, g = self.left, self.right
        if self.op in "+-":
            return BinOp(self.op, df, dg)
        if self.op == "*":
            return BinOp("+", BinOp("*", df, g), BinOp("*", f, dg))
        if self.op == "/":
            num = BinOp("-", BinOp("*", df, g), BinOp("*", f, dg))
            return BinOp("/", num, BinOp("^", g, Num(2.0)))
        if isinstance(g, Num):
            # a constant exponent keeps the power rule, valid for negative bases
            return BinOp("*", BinOp("*", g, BinOp("^", f, Num(g.value - 1.0))), df)
        # d(f^g) = f^g * (dg*log f + g*df/f)
        inner = BinOp("+", BinOp("*", dg, Call("log", f)), BinOp("/", BinOp("*", g, df), f))
        return BinOp("*", BinOp("^", f, g), inner)

    def pretty(self):
        return f"({self.left.pretty()} {self.op} {self.right.pretty()})"


@dataclass(frozen=True)
class Call(Node):
    func: str
    arg: Node

    def _d(self, var, du):
        return BinOp("*", FUNCS[self.func][1](self.arg), du)

    def pretty(self):
        return f"{self.func}({self.arg.pretty()})"


@dataclass(frozen=True)
class Sign(Node):
    """sign(u); appears only as the derivative of abs."""

    arg: Node
    func = "sign"   # printed and compiled as sign(u), which parse_expr need not accept
    pretty = Call.pretty


def _postorder(root: Node) -> list:
    """The distinct nodes under root, children first and left before right,
    as a recursive walk finishes them; iterative, so any depth is safe."""
    done, stack = {}, [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in done:
            continue
        kids = node.children()
        if expanded or not kids:
            done[id(node)] = node
        else:
            stack += [(node, True)] + [(k, False) for k in reversed(kids)]
    return list(done.values())


def _compile(root: Node, array: bool = False):
    """root as a function of a number or a dict name -> value: one assignment
    per distinct subtree in _postorder's order, so it computes the walk's values
    and raises its first error; no line nests parentheses, so any size is safe.
    The array form calls _ARRAY_CALLS, divides through div and deletes each
    temporary after its last reader, so that it holds only the arrays still
    needed."""
    env = dict(_ARRAY_CALLS if array else _CALLS)
    variables, names, assigned, operands = {}, {}, {}, {}
    for node in _postorder(root):
        a = [names[id(k)] for k in node.children()]
        if isinstance(node, Var):
            text = variables.setdefault(node.name, f"v{len(variables)}")
        elif isinstance(node, (Num, Const)):
            value = node.value if isinstance(node, Num) else CONSTS[node.name]
            text = repr(value)   # keeps the sign of -0.0
            if not (type(value) is float and math.isfinite(value)):
                text = f"k{len(env)}"
                env[text] = value
        else:
            if isinstance(node, BinOp):
                rhs = (f"pow({a[0]}, {a[1]})" if node.op == "^" else
                       f"div({a[0]}, {a[1]})" if array and node.op == "/" else
                       f"{a[0]} {node.op} {a[1]}")
            else:
                rhs = f"-{a[0]}" if isinstance(node, Neg) else f"{node.func}({a[0]})"
            text = assigned.setdefault(rhs, f"t{len(assigned)}")
            operands.setdefault(text, a + [text])
        names[id(node)] = text
    src = ["def f(arg):"]
    if variables:
        src += ["    if isinstance(arg, dict):",
                *(f"        {v} = arg[{n!r}]" for n, v in variables.items()),
                f"    else:\n        {' = '.join(variables.values())} = arg"]
    result = names[id(root)]
    last = {k: i for i, t in enumerate(assigned.values()) for k in operands[t] if k in operands}
    for i, (rhs, t) in enumerate(assigned.items()):
        src.append(f"    {t} = {rhs}")
        dead = sorted({k for k in operands[t] if last.get(k) == i} - {result})
        if array and dead:
            src.append(f"    del {', '.join(dead)}")
    exec("\n".join(src + [f"    return {result}"]), env)
    return env["f"]


class _Parser:
    def __init__(self, src: str, variables):
        self.src = src
        self.variables = tuple(variables)
        self.pos = 0
        self.depth = {}   # id(node) -> depth of its tree, leaves 1

    def _skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def _fail(self, expected):
        self._skip_ws()
        raise ExprSyntaxError(self.pos, expected)

    def _shallow(self, node: Node) -> Node:
        depth = 1 + max(self.depth.get(id(k), 1) for k in node.children())
        if depth > MAX_DEPTH:
            self._fail(f"an expression at most {MAX_DEPTH} levels deep")
        self.depth[id(node)] = depth
        return node

    def parse(self) -> Node:
        try:
            node = self.expr()
        except RecursionError:
            self._fail("fewer nested parentheses, signs or powers")
        self._skip_ws()
        if self.pos != len(self.src):
            self._fail("end of input")
        return node

    def expr(self) -> Node:
        node = self.term()
        while self._peek() in ("+", "-"):
            op = self.src[self.pos]
            self.pos += 1
            node = self._shallow(BinOp(op, node, self.term()))
        return node

    def term(self) -> Node:
        node = self.factor()
        while self._peek() in ("*", "/"):
            op = self.src[self.pos]
            self.pos += 1
            node = self._shallow(BinOp(op, node, self.factor()))
        return node

    def factor(self) -> Node:
        if self._peek() == "-":
            self.pos += 1
            return self._shallow(Neg(self.factor()))
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self._peek() == "^":
            self.pos += 1
            return self._shallow(BinOp("^", base, self.factor()))
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
            return self._shallow(Call(name, arg))
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
