"""Expression grammar, symbolic differentiation, and matrix grids.

The compiled evaluator ``MatrixExpr.bind`` is checked against the
tree-walking reference ``conftest.evaluate``, entry by entry.
"""

import math

import numpy as np
import pytest

from ltvobs.errors import ExprError, NumericalError
from ltvobs.expr import MatrixExpr, Num, parse
from ltvobs.system import LtvSystem, as_matrix_expr, as_sampler

from conftest import evaluate

SAMPLES = [
    "0.23*sin(0.5*t)",
    "(t + 1)*(t - 2)",
    "exp(-0.5*t)*cos(2*t)",
    "1/(2 + cos(t))",
    "sqrt(t + 3)",
    "2*pi*t - sin(t)/3",
    "-t*exp(-t)",
    "1e-3*t + 2.5E2",
]


def test_parse_examples():
    assert evaluate(parse("0.23*sin(0.5*t)"), math.pi) == pytest.approx(0.23)
    assert evaluate(parse("2 + 3*4"), 0.0) == 14.0
    assert evaluate(parse("(2 + 3)*4"), 0.0) == 20.0
    assert evaluate(parse("2 - 3 - 4"), 0.0) == -5.0
    assert evaluate(parse("12/4/3"), 0.0) == 1.0
    assert evaluate(parse("-t"), 2.0) == -2.0
    assert evaluate(parse("pi"), 0.0) == pytest.approx(math.pi)
    assert evaluate(parse("1e-3*t"), 2000.0) == pytest.approx(2.0)
    assert evaluate(parse("exp(0)"), 5.0) == 1.0


def test_parse_number_passthrough():
    e = parse(7)
    assert isinstance(e, Num)
    assert evaluate(e, 123.0) == 7.0


def test_vectorized_evaluation():
    e = parse("sin(t) + 2")
    t = np.array([0.0, math.pi / 2.0])
    assert np.allclose(evaluate(e, t), [2.0, 3.0])


def test_parse_error_positions():
    with pytest.raises(ExprError) as info:
        parse("3 +* 2")
    assert info.value.position == 3
    with pytest.raises(ExprError) as info:
        parse("sn(0.5*t)")
    assert info.value.position == 0
    assert "sn" in str(info.value)
    with pytest.raises(ExprError) as info:
        parse("sin(t")
    assert info.value.position == 5
    with pytest.raises(ExprError) as info:
        parse("2 ? 3")
    assert info.value.position == 2
    with pytest.raises(ExprError):
        parse("")
    with pytest.raises(ExprError):
        parse("1.2.3")
    with pytest.raises(ExprError):
        parse("2 2")


def test_print_parse_round_trip():
    ts = np.linspace(0.1, 6.0, 23)
    for text in SAMPLES:
        e = parse(text)
        again = parse(str(e))
        want = evaluate(e, ts)
        assert np.allclose(evaluate(again, ts), want, rtol=0.0, atol=1e-12), text


def test_derivative_examples():
    d = parse("0.23*sin(0.5*t)").derivative()
    ts = np.linspace(0.0, 10.0, 50)
    assert np.allclose(evaluate(d, ts), 0.23 * 0.5 * np.cos(0.5 * ts), atol=1e-12)
    assert evaluate(parse("t*t").derivative(), 3.0) == pytest.approx(6.0)
    assert evaluate(parse("7").derivative(), 1.0) == 0.0
    assert evaluate(parse("sqrt(t)").derivative(), 4.0) == pytest.approx(0.25)


def test_derivative_matches_finite_differences():
    # central difference as the oracle; step keeps truncation and
    # roundoff both under the comparison tolerance
    fd_h = 1e-5
    ts = np.linspace(0.1, 6.0, 137)
    for text in SAMPLES:
        e = parse(text)
        d = e.derivative()
        fd = (evaluate(e, ts + fd_h) - evaluate(e, ts - fd_h)) / (2.0 * fd_h)
        got = evaluate(d, ts)
        assert np.all(np.abs(got - fd) <= 1e-5 * (1.0 + np.abs(fd))), text


def test_second_derivatives_are_closed():
    # differentiating twice stays inside the node set and evaluates
    for text in SAMPLES:
        dd = parse(text).derivative().derivative()
        assert np.isfinite(evaluate(dd, 1.2345))


def _walk(m, times):
    """Reference values (T, rows, cols) of ``m`` by walking each entry's tree."""
    out = np.empty((len(times),) + m.shape)
    for i, row in enumerate(m.entries):
        for j, e in enumerate(row):
            out[:, i, j] = evaluate(e, times)
    return out


def test_matrix_from_strings_and_eval():
    m = MatrixExpr.from_strings([["sin(t)", "1"], ["0", "t*t"]])
    assert m.shape == (2, 2)
    assert not m.is_constant
    val = m.bind()([2.0])
    assert val.shape == (1, 2, 2)
    assert np.allclose(val[0], [[math.sin(2.0), 1.0], [0.0, 4.0]])


def test_matrix_bind_matches_eval():
    m = MatrixExpr.from_strings(
        [["exp(-t)", "t", "-t*exp(-t)"], ["2*t", "cos(t) / sqrt(1 + t)", "12/4/3"]]
    )
    times = np.linspace(0.0, 5.0, 11)
    grid = m.bind()(times)
    assert grid.shape == (11, 2, 3)
    # the generated source and the tree apply the same ufuncs in the same order
    assert np.array_equal(grid, _walk(m, times))
    assert m.bind() is m.bind()


def test_matrix_grid_matches_bind():
    # one call on the whole grid against one call per time
    m = MatrixExpr.from_strings([["exp(-t)", "t"], ["2*t", "cos(t) / sqrt(1 + t)"]])
    times = np.linspace(0.0, 5.0, 11)
    grid = m.bind()(times)
    for t, val in zip(times, grid):
        # a ufunc on many elements may round the last bit unlike one on one
        assert np.allclose(val, m.bind()([t])[0], rtol=4e-16, atol=0.0)


def test_matrix_grid_rejects_non_finite():
    m = MatrixExpr.from_strings([["1", "1 / (t - 2)"]])
    with pytest.raises(NumericalError, match=r"entry \(0,1\).*t=2\.0"):
        m.bind()(np.array([0.0, 1.0, 2.0, 3.0]))


def test_matrix_constant_and_zeros():
    c = MatrixExpr.constant([[1.0, 2.0], [3.0, 4.0]])
    assert c.is_constant
    assert np.array_equal(c.bind()([9.9, 0.0]), [[[1.0, 2.0], [3.0, 4.0]]] * 2)
    assert np.array_equal(MatrixExpr.zeros(2, 3).bind()([1.0])[0], np.zeros((2, 3)))
    assert MatrixExpr.zeros(2, 3).bind()([]).shape == (0, 2, 3)
    # each call returns its own copies, so a caller may write into them
    values = c.bind()(np.array([0.0, 1.0]))
    values[0, 0, 0] = -7.0
    assert c.bind()(np.array([0.0]))[0, 0, 0] == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrix_constant_rejects_non_finite(bad):
    # the constant fast path skips the per-call scan only for finite entries
    m = MatrixExpr.constant([[1.0, bad]])
    with pytest.raises(NumericalError, match=r"entry \(0,1\) evaluated non-finite"):
        m.bind()(np.array([0.0, 1.0]))


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        MatrixExpr.from_strings([["1", "2"], ["3"]])
    with pytest.raises(ValueError):
        MatrixExpr([])


def test_matrix_product_rule():
    # (M N)' = M' N + M N', checked by values
    m = MatrixExpr.from_strings([["sin(t)", "t"], ["1", "exp(-t)"]])
    n = MatrixExpr.from_strings([["t*t", "0"], ["cos(t)", "2"]])
    lhs = (m @ n).derivative().bind()
    ts = np.linspace(0.1, 4.0, 9)
    want = (
        m.derivative().bind()(ts) @ n.bind()(ts) + m.bind()(ts) @ n.derivative().bind()(ts)
    )
    assert np.allclose(lhs(ts), want, atol=1e-12)


def test_matrix_product_shape_mismatch():
    m = MatrixExpr.from_strings([["t", "1", "0"]])
    with pytest.raises(ValueError, match="shape mismatch"):
        m @ m


def test_bare_string_is_one_entry():
    m = as_matrix_expr("sin(t)")
    assert m.shape == (1, 1)
    assert np.array_equal(m.bind()([0.5])[0, 0], [math.sin(0.5)])
    assert as_matrix_expr(parse("t")).shape == (1, 1)
    sys = LtvSystem(a="-1", f=[[1.0]], d=[[1.0]], c="2*t")
    assert (sys.n, sys.r, sys.m, sys.q) == (1, 1, 1, 1)
    assert np.array_equal(sys.c.bind()([3.0]), [[[6.0]]])


def test_sampler_takes_every_coefficient_form():
    times = np.array([0.0, 1.0, 2.0])
    want = np.stack([np.sin(times), 2.0 * times], axis=1)
    # a column of expressions, its MatrixExpr, and a callable agree
    for value in (["sin(t)", "2*t"], as_matrix_expr(["sin(t)", "2*t"])):
        assert np.array_equal(as_sampler(value, (2,))(times), want)
    fn = as_sampler(lambda t: [[math.sin(t)], [2.0 * t]], (2,))
    assert np.allclose(fn(times), want, rtol=1e-15, atol=0.0)
    assert as_sampler(lambda t: np.eye(2) * t)(times).shape == (3, 2, 2)
    assert np.array_equal(as_sampler(None, (2,))(times), np.zeros((3, 2)))
    assert np.array_equal(as_sampler([1.0, 2.0], (2,))(times), [[1.0, 2.0]] * 3)
    assert np.array_equal(as_sampler(-1.5, ())(times), [-1.5] * 3)
    with pytest.raises(ValueError, match="must have 3 entries"):
        as_sampler(["t", "1"], (3,))
