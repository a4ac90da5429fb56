"""Scalar expressions in the time variable and matrix-valued grids of them.

Coefficient matrices are entered as text, one expression per entry, in the
grammar

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ['-'] atom
    atom   := number | 't' | 'pi' | func '(' expr ')' | '(' expr ')'
    func   := 'sin' | 'cos' | 'exp' | 'sqrt'

The node set is closed under differentiation, so a system matrix and every
time derivative the observability recursions ask for live in the same
representation.  ``MatrixExpr.bind`` compiles a grid once to numpy source
that evaluates it on a whole array of times per call; every loop in the
package batches over time, so no code path walks the tree per sample.
"""

import math

import numpy as np

from .errors import ExprError, NumericalError

__all__ = [
    "Expr",
    "Num",
    "Time",
    "Neg",
    "Bin",
    "Call",
    "parse",
    "MatrixExpr",
]

_FUNCTIONS = ("sin", "cos", "exp", "sqrt")


class Expr:
    """Base class for scalar expression nodes."""

    __slots__ = ()

    def derivative(self):
        """Symbolic time derivative, as another :class:`Expr`."""
        raise NotImplementedError

    # Precedence levels for printing: 1 additive, 2 multiplicative, 3 unary.
    _prec = 4

    def __repr__(self):
        return f"{type(self).__name__}({str(self)!r})"


class Num(Expr):
    """Floating-point literal."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def derivative(self):
        return Num(0.0)

    def __str__(self):
        return repr(self.value)


class Time(Expr):
    """The independent variable ``t``."""

    __slots__ = ()

    def derivative(self):
        return Num(1.0)

    def __str__(self):
        return "t"


class Neg(Expr):
    """Unary minus."""

    __slots__ = ("arg",)
    _prec = 3

    def __init__(self, arg):
        self.arg = arg

    def derivative(self):
        return _neg(self.arg.derivative())

    def __str__(self):
        return "-" + _paren(self.arg, 3)


class Bin(Expr):
    """Binary arithmetic node: one of ``+ - * /``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right

    @property
    def _prec(self):
        return 1 if self.op in "+-" else 2

    def derivative(self):
        u, v = self.left, self.right
        du, dv = u.derivative(), v.derivative()
        if self.op == "+":
            return _add(du, dv)
        if self.op == "-":
            return _sub(du, dv)
        if self.op == "*":
            return _add(_mul(du, v), _mul(u, dv))
        # (u/v)' = (u'v - uv') / v^2
        return _div(_sub(_mul(du, v), _mul(u, dv)), _mul(v, v))

    def __str__(self):
        p = self._prec
        left = _paren(self.left, p)
        # right operand of - or / must bind tighter than the node itself
        right = _paren(self.right, p + 1 if self.op in "-/" else p)
        return f"{left} {self.op} {right}"


class Call(Expr):
    """Function application: sin, cos, exp or sqrt."""

    __slots__ = ("name", "arg")

    def __init__(self, name, arg):
        if name not in _FUNCTIONS:
            raise ExprError(f"unknown function {name!r}")
        self.name = name
        self.arg = arg

    def derivative(self):
        u = self.arg
        du = u.derivative()
        if self.name == "sin":
            outer = Call("cos", u)
        elif self.name == "cos":
            outer = _neg(Call("sin", u))
        elif self.name == "exp":
            outer = Call("exp", u)
        else:  # sqrt' = 1 / (2 sqrt)
            return _div(du, _mul(Num(2.0), Call("sqrt", u)))
        return _mul(outer, du)

    def __str__(self):
        return f"{self.name}({self.arg})"


def _paren(e, minimum):
    s = str(e)
    return f"({s})" if e._prec < minimum else s


def _is_num(e, value=None):
    return isinstance(e, Num) and (value is None or e.value == value)


# Smart constructors: fold constants and drop additive/multiplicative
# identities so that derivatives stay small.

def _add(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return Bin("+", a, b)


def _sub(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    return Bin("-", a, b)


def _mul(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return Bin("*", a, b)


def _div(a, b):
    if _is_num(b) and b.value != 0.0:
        if _is_num(a):
            return Num(a.value / b.value)
        if b.value == 1.0:
            return a
    return Bin("/", a, b)


def _neg(a):
    if _is_num(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_OPS = set("+-*/()")


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lexeme = text[i:j]
            try:
                value = float(lexeme)
            except ValueError:
                raise ExprError(f"bad number {lexeme!r} at position {i}", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExprError(f"unexpected character {ch!r} at position {i}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ExprError(
                f"expected {kind!r} at position {tok[2]}, found {tok[1]!r}", tok[2]
            )
        return tok

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprError(f"trailing input at position {tok[2]}", tok[2])
        return e

    def expr(self):
        e = self.term()
        while self.peek()[0] in "+-":
            op = self.advance()[0]
            rhs = self.term()
            e = _add(e, rhs) if op == "+" else _sub(e, rhs)
        return e

    def term(self):
        e = self.factor()
        while self.peek()[0] in "*/":
            op = self.advance()[0]
            rhs = self.factor()
            e = _mul(e, rhs) if op == "*" else _div(e, rhs)
        return e

    def factor(self):
        if self.peek()[0] == "-":
            self.advance()
            return _neg(self.atom())
        return self.atom()

    def atom(self):
        tok = self.advance()
        kind, value, pos = tok
        if kind == "num":
            return Num(value)
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "name":
            if value == "t":
                return Time()
            if value == "pi":
                return Num(math.pi)
            if value in _FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(value, arg)
            raise ExprError(f"unknown identifier {value!r} at position {pos}", pos)
        if kind == "end":
            raise ExprError("unexpected end of expression", pos)
        raise ExprError(f"unexpected token {value!r} at position {pos}", pos)


def parse(text):
    """Parse expression text into an :class:`Expr`.

    An :class:`Expr` is returned as is and a number becomes a :class:`Num`.
    Raises :class:`ExprError` (with ``position`` set) on malformed input or
    identifiers outside the grammar, and without it on nesting too deep
    for the parser's recursion.
    """
    if isinstance(text, Expr):
        return text
    if not isinstance(text, str):
        return Num(text)
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise ExprError("expression is nested too deeply to parse") from None


# ---------------------------------------------------------------------------
# python code generation for the compiled evaluator

def _pysrc(e):
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Time):
        return "t"
    if isinstance(e, Neg):
        return f"(-{_pysrc(e.arg)})"
    if isinstance(e, Bin):
        return f"({_pysrc(e.left)} {e.op} {_pysrc(e.right)})"
    if isinstance(e, Call):
        return f"{e.name}({_pysrc(e.arg)})"
    raise TypeError(f"cannot compile {e!r}")


class MatrixExpr:
    """Matrix whose entries are scalar expressions of time.

    Supports evaluation on time arrays and entrywise differentiation; the
    observability recursions multiply evaluated values, not expressions.
    """

    __slots__ = ("entries", "rows", "cols", "_fn")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise ValueError("matrix must have at least one row and column")
        cols = len(entries[0])
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix rows")
            for e in row:
                if not isinstance(e, Expr):
                    raise TypeError(f"matrix entry {e!r} is not an Expr")
        self.entries = entries
        self.rows = len(entries)
        self.cols = cols
        self._fn = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_strings(cls, grid):
        """Build from a grid of expression strings (or bare numbers or Exprs)."""
        return cls([[parse(cell) for cell in row] for row in grid])

    @classmethod
    def constant(cls, array):
        array = np.atleast_2d(np.asarray(array, dtype=float))
        return cls([[Num(v) for v in row] for row in array])

    # -- structure ---------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def is_constant(self):
        return all(isinstance(e, Num) for row in self.entries for e in row)

    def derivative(self):
        """Entrywise time derivative."""
        return MatrixExpr([[e.derivative() for e in row] for row in self.entries])

    # -- evaluation ---------------------------------------------------------

    def bind(self):
        """Compile to a closure ``times (T,) -> ndarray (T, rows, cols)``.

        Each non-constant entry becomes one line of generated source that
        evaluates it on the whole time array with numpy ufuncs; the closure
        is built once per matrix.  A matrix without a time-varying entry
        whose entries are all finite evaluates to copies of itself, with no
        per-call check.  An entry too deep for Python to compile raises
        :class:`ExprError` naming it, and a non-finite value
        :class:`NumericalError` naming the first offending time and entry.
        """
        if self._fn is not None:
            return self._fn
        base = np.zeros(self.shape)
        lines, cells = ["def _f(t, out):"], [None]
        try:
            for i, row in enumerate(self.entries):
                for j, e in enumerate(row):
                    if isinstance(e, Num):
                        base[i, j] = e.value
                    else:
                        cells.append((i, j))
                        lines.append(f"    out[:, {i}, {j}] = {_pysrc(e)}")
            lines.append("    return out")
            # a folded non-finite constant prints as inf or nan
            ns = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}
            ns.update(inf=math.inf, nan=math.nan)
            exec("\n".join(lines), ns)  # controlled codegen from our own AST
        except (SyntaxError, RecursionError) as exc:
            # a RecursionError comes from _pysrc: Python refuses 200 nested
            # parentheses before its compiler recurses that deep
            i, j = cells[exc.lineno - 1] if isinstance(exc, SyntaxError) else cells[-1]
            where = f"entry ({i},{j}) of a {self.rows}x{self.cols} matrix"
            raise ExprError(f"{where} is nested too deeply to compile", entry=(i, j)) from None
        raw = ns["_f"]

        if len(cells) == 1 and np.isfinite(base).all():
            # no entry varies in time (cells holds only its placeholder):
            # nothing to evaluate, nothing to check
            def fn(times, _base=base):
                return np.repeat(_base[None], len(times), axis=0)

        else:

            def fn(times, _raw=raw, _base=base):
                times = np.asarray(times, dtype=float)
                out = np.repeat(_base[None], times.shape[0], axis=0)
                with np.errstate(all="ignore"):
                    _raw(times, out)
                bad = ~np.isfinite(out)
                if bad.any():
                    k, i, j = np.argwhere(bad)[0]
                    raise NumericalError(
                        f"entry ({i},{j}) evaluated non-finite at t={times[k]}: "
                        f"{self.entries[i][j]}"
                    )
                return out

        self._fn = fn
        return fn

    def __str__(self):
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.entries) + "]"

    def __repr__(self):
        return f"MatrixExpr({self.rows}x{self.cols})"

