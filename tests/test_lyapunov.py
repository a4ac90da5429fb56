"""Spectrum estimation via the frame flow, and regularity diagnostics."""

import numpy as np
import pytest

from ltvobs.expr import MatrixExpr
from ltvobs.integrators import StepConfig, skew_rule
from ltvobs.lyapunov import (
    estimate_spectrum,
    nonstable_dimension,
    regularity_report,
    start_frame,
)
from ltvobs.observer import ObserverConfig, detectability_report, frame_track
from ltvobs.system import LtvSystem


def test_skew_rule_splits_triangular():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((4, 4))
    s = skew_rule(w)
    assert np.allclose(s, -s.T, atol=1e-15)
    b = w - s
    assert np.allclose(np.tril(b, -1), 0.0, atol=1e-15)
    # strict lower part of S equals that of W
    assert np.allclose(np.tril(s, -1), np.tril(w, -1), atol=1e-15)


def test_default_frame():
    # without q0 the frame is the first k columns of the identity
    q = start_frame(4, 2)
    assert np.array_equal(q, np.eye(4, 2))
    for k in (0, 3):
        with pytest.raises(ValueError):
            start_frame(2, k)


def test_constant_diagonal_spectrum():
    a = np.diag([2.0, -1.0])
    est = estimate_spectrum(lambda t: a, k=2, cfg=StepConfig(h=0.01, t0=0.0, t_end=50.0))
    assert np.allclose(est.exponents, [2.0, -1.0], atol=1e-6)
    assert est.max_orth_defect < 1e-10


def test_constant_triangular_spectrum_sorted():
    a = np.array([[-0.5, 2.0, 1.0], [0.0, 1.5, -3.0], [0.0, 0.0, 0.25]])
    est = estimate_spectrum(lambda t: a, k=3, cfg=StepConfig(h=0.02, t0=0.0, t_end=40.0))
    assert np.allclose(est.exponents, [1.5, 0.25, -0.5], atol=1e-8)
    # by-direction order keeps the frame pairing instead
    assert np.allclose(est.exponents_by_direction, [-0.5, 1.5, 0.25], atol=1e-8)


def test_nilpotent_exponents_near_zero():
    # polynomial growth: both exponents must straddle zero closely
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    est = estimate_spectrum(lambda t: a, k=2, cfg=StepConfig(h=0.01, t0=0.0, t_end=200.0))
    assert np.all(est.exponents >= -0.05)
    assert np.all(est.exponents <= 0.05)


def test_spectrum_insensitive_to_start_frame():
    # the frame aligns exponentially fast but the exponent is a time
    # average, so a random start contaminates it by O(1/T); the observer's
    # flow, which starts from its q0, reads the same exponents
    a = np.array([[1.0, 0.5], [0.0, -1.0]])
    cfg = StepConfig(h=0.02, t0=0.0, t_end=200.0)
    base = estimate_spectrum(lambda t: a, k=2, cfg=cfg)
    sys = LtvSystem(a=a, f=np.zeros((2, 1)), d=np.zeros((2, 1)), c=np.eye(2))
    rng = np.random.default_rng(11)
    for _ in range(3):
        conf = ObserverConfig(p=1.0, k=2, step=cfg, q0=rng.standard_normal((2, 2)))
        rep = detectability_report(conf, frame_track(sys, conf))
        lams = sorted((d.lambda_hat for d in rep.directions), reverse=True)
        assert np.allclose(lams, base.exponents, atol=0.01)


def test_matrix_expr_input_and_history():
    m = MatrixExpr.from_strings([["-1 + 2*exp(-t)"]])
    est = estimate_spectrum(m, k=1, cfg=StepConfig(h=0.01, t0=0.0, t_end=20.0))
    # average of -1 + 2 e^{-t} over [0, 20]
    want = -1.0 + 2.0 * (1.0 - np.exp(-20.0)) / 20.0
    assert est.exponents[0] == pytest.approx(want, abs=1e-6)
    assert est.history_t[0] > 0.0
    assert est.history_lambda.shape[1] == 1
    # the history keeps the diagonal series, one column per direction
    assert est.history_b.shape == est.history_lambda.shape


def test_nonstable_dimension_band():
    a = np.diag([2.0, -1.0])
    est = estimate_spectrum(lambda t: a, k=2, cfg=StepConfig(h=0.01, t0=0.0, t_end=20.0))
    assert nonstable_dimension(est) == 1
    b = np.diag([1.0, -5e-4])
    est2 = estimate_spectrum(lambda t: b, k=2, cfg=StepConfig(h=0.01, t0=0.0, t_end=20.0))
    # an exponent inside the zero band counts as non-stable, conservatively
    assert nonstable_dimension(est2) == 2


def test_regularity_oscillating_diagonal():
    t = np.arange(0.0, 200.0, 0.01)
    rep = regularity_report(t, np.sin(t))
    d = rep.directions[0]
    # running averages of sin settle like 1/t: forward regular
    assert d.forward_regular
    # but the positive part of sin + eps has linearly growing mass
    assert not d.strong_regular
    assert d.branch == "nonstable"
    assert d.tail_mass > 1.0


def test_regularity_decaying_diagonal_is_strong():
    t = np.arange(0.0, 20.0, 0.001)
    rep = regularity_report(t, -1.0 + 2.0 * np.exp(-t))
    d = rep.directions[0]
    assert d.branch == "stable"
    assert d.strong_regular
    assert d.tail_mass == pytest.approx(0.0, abs=1e-12)


def test_regularity_constant_diagonal():
    t = np.arange(0.0, 50.0, 0.01)
    rep = regularity_report(t, np.full(t.shape, -0.7))
    d = rep.directions[0]
    assert d.forward_regular and d.strong_regular
    assert d.lambda_hat == pytest.approx(-0.7, abs=1e-12)
    assert rep.forward_regular and rep.strong_regular


def test_regularity_with_no_two_sample_window_in_the_tail():
    # 8 samples over [0, 1]: no window of the last half holds two samples,
    # so the spread test reads the final running average alone
    t = np.linspace(0.0, 1.0, 8)
    b = np.column_stack([10.0 * np.sin(10.0 * t), np.full(8, -0.7)])
    rep = regularity_report(t, b)
    assert [d.forward_regular for d in rep.directions] == [True, True]
    assert rep.directions[0].lambda_hat == pytest.approx(np.trapezoid(b[:, 0], t))
    assert rep.directions[1].lambda_hat == pytest.approx(-0.7, abs=1e-12)
    assert [d.branch for d in rep.directions] == ["nonstable", "stable"]
