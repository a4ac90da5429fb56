"""Expression grammar, symbolic differentiation, and matrix grids."""

import math

import numpy as np
import pytest

from ltvobs.errors import ExprError, NumericalError
from ltvobs.expr import MatrixExpr, Num, differentiate, eval_matrix, parse

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
    assert parse("0.23*sin(0.5*t)")(math.pi) == pytest.approx(0.23)
    assert parse("2 + 3*4")(0.0) == 14.0
    assert parse("(2 + 3)*4")(0.0) == 20.0
    assert parse("2 - 3 - 4")(0.0) == -5.0
    assert parse("12/4/3")(0.0) == 1.0
    assert parse("-t")(2.0) == -2.0
    assert parse("pi")(0.0) == pytest.approx(math.pi)
    assert parse("1e-3*t")(2000.0) == pytest.approx(2.0)
    assert parse("exp(0)")(5.0) == 1.0


def test_parse_number_passthrough():
    e = parse(7)
    assert isinstance(e, Num)
    assert e(123.0) == 7.0


def test_vectorized_evaluation():
    e = parse("sin(t) + 2")
    t = np.array([0.0, math.pi / 2.0])
    assert np.allclose(e(t), [2.0, 3.0])


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
        assert np.allclose(e(ts), again(ts), rtol=0.0, atol=1e-12), text


def test_derivative_examples():
    d = differentiate("0.23*sin(0.5*t)")
    ts = np.linspace(0.0, 10.0, 50)
    assert np.allclose(d(ts), 0.23 * 0.5 * np.cos(0.5 * ts), atol=1e-12)
    assert differentiate("t*t")(3.0) == pytest.approx(6.0)
    assert differentiate("7")(1.0) == 0.0
    assert differentiate("sqrt(t)")(4.0) == pytest.approx(0.25)


def test_derivative_matches_finite_differences():
    # central difference as the oracle; step keeps truncation and
    # roundoff both under the comparison tolerance
    fd_h = 1e-5
    ts = np.linspace(0.1, 6.0, 137)
    for text in SAMPLES:
        e = parse(text)
        d = differentiate(text)
        fd = (e(ts + fd_h) - e(ts - fd_h)) / (2.0 * fd_h)
        got = d(ts)
        assert np.all(np.abs(got - fd) <= 1e-5 * (1.0 + np.abs(fd))), text


def test_second_derivatives_are_closed():
    # differentiating twice stays inside the node set and evaluates
    for text in SAMPLES:
        dd = differentiate(differentiate(text))
        assert np.isfinite(dd(1.2345))


def test_matrix_from_strings_and_eval():
    m = MatrixExpr.from_strings([["sin(t)", "1"], ["0", "t*t"]])
    assert m.shape == (2, 2)
    assert not m.is_constant
    val = eval_matrix(m, 2.0)
    assert np.allclose(val, [[math.sin(2.0), 1.0], [0.0, 4.0]])


def test_matrix_bind_matches_eval():
    m = MatrixExpr.from_strings([["exp(-t)", "t"], ["2*t", "cos(t)"]])
    fn = m.bind()
    for t in np.linspace(0.0, 5.0, 11):
        assert np.allclose(fn(t), eval_matrix(m, t), atol=1e-15)


def test_matrix_grid_matches_bind():
    m = MatrixExpr.from_strings([["exp(-t)", "t"], ["2*t", "cos(t) / sqrt(1 + t)"]])
    times = np.linspace(0.0, 5.0, 11)
    grid = m.bind_grid()(times)
    assert grid.shape == (11, 2, 2)
    fn = m.bind()
    for t, val in zip(times, grid):
        # numpy's vectorized exp may differ from math.exp in the last bit
        assert np.allclose(val, fn(t), rtol=4e-16, atol=0.0)


def test_matrix_grid_rejects_non_finite():
    m = MatrixExpr.from_strings([["1", "1 / (t - 2)"]])
    with pytest.raises(NumericalError, match=r"entry \(0,1\).*t=2\.0"):
        m.bind_grid()(np.array([0.0, 1.0, 2.0, 3.0]))


def test_matrix_constant_and_identity():
    c = MatrixExpr.constant([[1.0, 2.0], [3.0, 4.0]])
    assert c.is_constant
    assert np.allclose(eval_matrix(c, 9.9), [[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(eval_matrix(MatrixExpr.identity(3), 0.0), np.eye(3))
    assert np.allclose(eval_matrix(MatrixExpr.zeros(2, 3), 1.0), np.zeros((2, 3)))


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        MatrixExpr.from_strings([["1", "2"], ["3"]])
    with pytest.raises(ValueError):
        MatrixExpr([])


def test_matrix_product_rule():
    # (M N)' = M' N + M N', checked by values
    m = MatrixExpr.from_strings([["sin(t)", "t"], ["1", "exp(-t)"]])
    n = MatrixExpr.from_strings([["t*t", "0"], ["cos(t)", "2"]])
    prod = m @ n
    lhs = prod.derivative()
    for t in np.linspace(0.1, 4.0, 9):
        want = eval_matrix(m.derivative(), t) @ eval_matrix(n, t) + eval_matrix(
            m, t
        ) @ eval_matrix(n.derivative(), t)
        assert np.allclose(eval_matrix(lhs, t), want, atol=1e-12)


def test_matrix_transpose_and_mismatch():
    m = MatrixExpr.from_strings([["t", "1", "0"]])
    assert m.transpose().shape == (3, 1)
    with pytest.raises(ValueError):
        m @ m
