"""Fixed-step RK4, the RK4 propagators, the projected frame step, joint stepping."""

import math

import numpy as np
import pytest

from ltvobs.errors import NumericalError
from ltvobs.integrators import (
    StepConfig,
    joint_rk4_step,
    projected_rk4_step,
    rk4_propagators,
    skew_rule,
)

from conftest import rk4_step


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
    # an off-grid horizon, and one within round-off of no step, are refused
    # when the grid is built, not when a flow first asks for its steps
    for h, t_end in ((0.3, 1.0), (1e-3, 1e-10)):
        with pytest.raises(ValueError, match=f"horizon {t_end} is not a multiple of h={h}"):
            StepConfig(h=h, t0=0.0, t_end=t_end)
    # an infinite end would reach n_steps as int(inf)
    for t0, t_end in ((0.0, float("inf")), (float("-inf"), 1.0), (0.0, float("nan"))):
        with pytest.raises(ValueError, match="non-finite horizon"):
            StepConfig(h=0.1, t0=t0, t_end=t_end)


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


def _rk4_affine(m, b, h):
    """The stage fold the cascade ran before it shared :func:`rk4_propagators`."""
    p_prev, c_prev = m[0], b[0]
    p_sum, c_sum = p_prev.copy(), c_prev.copy()
    for s, (frac, weight) in enumerate(((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)), 1):
        p_prev = m[s] + (frac * h) * (m[s] @ p_prev)
        c_prev = b[s] + (frac * h) * (m[s] @ c_prev[..., None])[..., 0]
        p_sum += weight * p_prev
        c_sum += weight * c_prev
    phi = (h / 6.0) * p_sum
    phi += np.eye(m.shape[-1])
    return phi, (h / 6.0) * c_sum


def test_rk4_propagators_affine_fold_is_bit_identical(rng):
    m = rng.standard_normal((4, 7, 5, 5))
    b = rng.standard_normal((4, 7, 5))
    phi, psi = rk4_propagators(m, 0.01, b)
    ref_phi, ref_psi = _rk4_affine(m, b, 0.01)
    assert np.array_equal(phi, ref_phi)
    assert np.array_equal(psi, ref_psi)


def test_rk4_propagators_are_rk4_of_the_identity(rng):
    h = 0.05
    m = rng.standard_normal((4, 6, 3, 3))
    for stacks in ((m[0], m[1], m[3]), tuple(m)):
        phi = rk4_propagators(stacks, h)
        if len(stacks) == 3:
            stacks = (stacks[0], stacks[1], stacks[1], stacks[2])
        for i, ref_stages in enumerate(zip(*stacks)):
            calls = iter(ref_stages)
            ref = rk4_step(lambda t, x: next(calls) @ x, 0.0, np.eye(3), h)
            assert np.allclose(phi[i], ref, rtol=0.0, atol=1e-14)


def test_projected_step_keeps_frame_orthonormal():
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    q = np.array([[1.0], [0.0]])
    for i in range(100):
        q = projected_rk4_step(i * 0.01, q, 0.01, (a, a, a))
        assert abs(q[:, 0] @ q[:, 0] - 1.0) < 1e-12
    # for the rotation field the width-1 frame follows the rotation itself
    assert np.allclose(q[:, 0], [math.cos(1.0), math.sin(1.0)], atol=1e-8)


def test_projected_step_stationary_for_triangular_full_frame():
    # upper-triangular A with the identity frame: the flow fixes Q
    a = np.array([[1.0, 3.0], [0.0, -2.0]])
    q = np.eye(2)
    for i in range(50):
        q = projected_rk4_step(i * 0.1, q, 0.1, (a, a, a))
    assert np.allclose(q, np.eye(2), atol=1e-14)


def test_projected_step_reports_collapse_with_step_time():
    # with A = 0 the frame does not move, so dependent columns stay dependent
    zero = np.zeros((3, 3))
    q = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(NumericalError, match=r"rank collapse at t=0\.25"):
        projected_rk4_step(0.25, q, 0.01, (zero, zero, zero))
    q = np.eye(3, 2)
    q[2, 1] = np.nan
    with pytest.raises(NumericalError, match=r"at t=1\.5"):
        projected_rk4_step(1.5, q, 0.01, (zero, zero, zero))


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
