"""Fixed-step RK4, the projected frame step, and joint stepping."""

import math

import numpy as np
import pytest

from ltvobs.errors import NumericalError
from ltvobs.integrators import (
    StepConfig,
    joint_rk4_step,
    projected_rk4_step,
    rk4_step,
    skew_rule,
)


def test_step_config_grid():
    cfg = StepConfig(h=0.25, t0=1.0, t_end=2.0)
    assert cfg.n_steps == 4
    assert cfg.horizon == 1.0
    assert np.allclose(cfg.grid(), [1.0, 1.25, 1.5, 1.75, 2.0])
    assert cfg.time(3) == pytest.approx(1.75)


def test_step_config_validation():
    with pytest.raises(ValueError):
        StepConfig(h=0.0, t0=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        StepConfig(h=0.1, t0=1.0, t_end=1.0)
    with pytest.raises(ValueError):
        StepConfig(h=0.3, t0=0.0, t_end=1.0).n_steps  # off-grid horizon


def test_rk4_local_accuracy_scalar():
    # one step of dx/dt = -x; local error of RK4 is O(h^5)
    x1 = rk4_step(lambda t, x: -x, 0.0, np.array([1.0]), 0.1)
    assert abs(x1[0] - math.exp(-0.1)) < 1e-7


def test_rk4_exact_for_nilpotent_linear():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    x1 = rk4_step(lambda t, x: a @ x, 0.0, np.array([0.0, 1.0]), 0.5)
    assert np.allclose(x1, [0.5, 1.0], atol=1e-15)


def test_rk4_composed_accuracy():
    cfg = StepConfig(h=1e-3, t0=0.0, t_end=1.0)
    x = np.array([1.0])
    for i in range(cfg.n_steps):
        x = rk4_step(lambda t, x: -x, cfg.time(i), x, cfg.h)
    assert abs(x[0] - math.exp(-1.0)) <= 1e-12


def test_rk4_time_dependent_rhs():
    # dx/dt = 2t has polynomial solution, integrated exactly by RK4
    x = np.array([0.0])
    for i in range(10):
        x = rk4_step(lambda t, x: np.array([2.0 * t]), i * 0.1, x, 0.1)
    assert x[0] == pytest.approx(1.0, abs=1e-14)


def test_projected_step_keeps_frame_orthonormal():
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    q = np.array([[1.0], [0.0]])
    for i in range(100):
        q = projected_rk4_step(lambda t: a, i * 0.01, q, 0.01, skew_rule)
        assert abs(q[:, 0] @ q[:, 0] - 1.0) < 1e-12
    # for the rotation field the width-1 frame follows the rotation itself
    assert np.allclose(q[:, 0], [math.cos(1.0), math.sin(1.0)], atol=1e-8)


def test_projected_step_stationary_for_triangular_full_frame():
    # upper-triangular A with the identity frame: the flow fixes Q
    a = np.array([[1.0, 3.0], [0.0, -2.0]])
    q = np.eye(2)
    for i in range(50):
        q = projected_rk4_step(lambda t: a, i * 0.1, q, 0.1, skew_rule)
    assert np.allclose(q, np.eye(2), atol=1e-14)


def test_projected_step_takes_four_stage_matrices():
    rng = np.random.default_rng(11)
    a1, a2, a4 = rng.standard_normal((3, 4, 4))
    q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    three = projected_rk4_step(None, 0.0, q, 0.01, skew_rule, (a1, a2, a4))
    four = projected_rk4_step(None, 0.0, q, 0.01, skew_rule, (a1, a2, a2, a4))
    assert np.array_equal(three, four)
    # a different third-stage matrix moves the step
    other = projected_rk4_step(None, 0.0, q, 0.01, skew_rule, (a1, a2, a1, a4))
    assert np.max(np.abs(other - three)) > 1e-6


def test_projected_step_reports_collapse_with_step_time():
    # with A = 0 the frame does not move, so dependent columns stay dependent
    zero = np.zeros((3, 3))
    q = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(NumericalError, match=r"rank collapse at t=0\.25"):
        projected_rk4_step(lambda t: zero, 0.25, q, 0.01, skew_rule)
    q = np.eye(3, 2)
    q[2, 1] = np.nan
    with pytest.raises(NumericalError, match=r"at t=1\.5"):
        projected_rk4_step(lambda t: zero, 1.5, q, 0.01, skew_rule)


def test_skew_rule_is_tril_bit_for_bit():
    rng = np.random.default_rng(5)
    for k in (1, 2, 3, 8):
        w = rng.standard_normal((k, k))
        lower = np.tril(w, -1)
        assert np.array_equal(skew_rule(w), lower - lower.T)
    stack = rng.standard_normal((6, 3, 3))
    assert np.array_equal(skew_rule(stack), np.stack([skew_rule(w) for w in stack]))


def test_joint_step_matches_stacked_rk4():
    a = np.array([[0.0, 1.0], [-1.0, -0.5]])

    def rhs_joint(t, states):
        x, y = states
        return [a @ x + y, -y]

    def rhs_stacked(t, z):
        x, y = z[:2], z[2:]
        return np.concatenate([a @ x + y, -y])

    x0, y0 = np.array([1.0, 0.0]), np.array([0.5, -0.5])
    xs, ys = joint_rk4_step(rhs_joint, 0.0, [x0, y0], 0.05)
    z = rk4_step(rhs_stacked, 0.0, np.concatenate([x0, y0]), 0.05)
    assert np.allclose(xs, z[:2], atol=1e-14)
    assert np.allclose(ys, z[2:], atol=1e-14)


def test_joint_step_projects_selected_state():
    a = np.array([[0.0, -2.0], [2.0, 0.0]])

    def rhs(t, states):
        x, q = states
        w = q.T @ a @ q
        return [a @ x, (np.eye(2) - q @ q.T) @ a @ q + q @ skew_rule(w)]

    x, q = np.array([1.0, 1.0]), np.eye(2)
    for i in range(40):
        x, q = joint_rk4_step(rhs, i * 0.05, [x, q], 0.05, project=(1,))
        assert np.allclose(q.T @ q, np.eye(2), atol=1e-12)
