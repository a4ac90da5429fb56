"""Plant description: the time-varying quadruple (A, F, D, C).

The model is

    dx/dt = A(t) x + F(t) u + D(t) w,      y = C(t) x,

with x in R^n, known input u in R^q, unknown input w in R^m bounded by
``w_bound`` in the max norm, and measured output y in R^r.
"""

import math
from dataclasses import dataclass

import numpy as np

from .expr import Expr, MatrixExpr

__all__ = ["LtvSystem", "as_matrix_expr", "as_sampler"]


def as_matrix_expr(value):
    """Coerce a MatrixExpr, numeric array, or grid of strings to MatrixExpr.

    A bare expression string or :class:`Expr` is one 1x1 entry; a flat
    sequence is a column.
    """
    if isinstance(value, MatrixExpr):
        return value
    if isinstance(value, (str, Expr)):
        value = [[value]]
    arr = np.asarray(value)
    if arr.dtype.kind in "fiub":
        return MatrixExpr.constant(arr)
    if arr.ndim == 1:
        value = [[cell] for cell in value]
    return MatrixExpr.from_strings(value)


def as_sampler(value, shape=None):
    """Evaluator ``times (T,) -> (T, *shape)`` of a time-varying coefficient.

    ``value`` is anything :func:`as_matrix_expr` takes, compiled by
    :meth:`MatrixExpr.bind`; a callable ``t -> array``, called once per
    time; or None, for zeros of ``shape``.  With ``shape`` given the values
    are reshaped to it, so a coefficient with the wrong number of entries
    raises ValueError.
    """
    if value is None:
        return lambda times: np.zeros((len(times),) + shape)
    if callable(value):
        def fn(times):
            return np.array([value(t) for t in times], dtype=float)
    else:
        m = as_matrix_expr(value)
        if shape is not None and m.rows * m.cols != math.prod(shape):
            raise ValueError(
                f"coefficient must have {math.prod(shape)} entries, got {m.shape}"
            )
        fn = m.bind()
    if shape is None:
        return fn
    return lambda times: fn(times).reshape((len(times),) + shape)


@dataclass(frozen=True)
class LtvSystem:
    """System matrices plus the unknown-input bound.

    ``d`` columns are the unknown-input channels; ``w_bound`` bounds each
    component of w.  Column vectors may be given as flat sequences.
    """

    a: MatrixExpr
    f: MatrixExpr
    d: MatrixExpr
    c: MatrixExpr
    w_bound: float = 0.0

    def __post_init__(self):
        for name in ("a", "f", "d", "c"):
            object.__setattr__(self, name, as_matrix_expr(getattr(self, name)))
        n = self.a.rows
        if self.a.cols != n:
            raise ValueError(f"A must be square, got {self.a.shape}")
        for name, expected_rows in (("f", n), ("d", n)):
            m = getattr(self, name)
            if m.rows != expected_rows:
                raise ValueError(
                    f"{name.upper()} must have {expected_rows} rows, got {m.rows}"
                )
        if self.c.cols != n:
            raise ValueError(f"C must have {n} columns, got {self.c.cols}")
        if not (np.isfinite(self.w_bound) and self.w_bound >= 0.0):
            raise ValueError(f"w_bound must be finite and >= 0, got {self.w_bound}")

    @property
    def n(self):
        return self.a.rows

    @property
    def q(self):
        return self.f.cols

    @property
    def m(self):
        return self.d.cols

    @property
    def r(self):
        return self.c.rows
