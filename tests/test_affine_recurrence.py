"""Batched cascade against a sequential reference stepper.

The reference is the per-step integration the cascade used before it
stepped plant and observer as an affine recurrence: one joint RK4 step of
(x, x~, Q) per grid step through the public ``joint_rk4_step``, the gain
recomputed inside every stage from that stage's frame, and one
reconstruction solve per sample.  The grid frame then takes the per-step
discrete QR step ``Q <- mgs_qr(Phi_i Q)`` of the frame flow, so the stage
frames start from the frames the package's flow produces.  Its matrices
are evaluated once, on the arrays of grid and stage times, and read in
stage order.
"""

import itertools

import numpy as np
import pytest

from conftest import bench8_run
from ltvobs.cascade import CascadeRun, _simulate, run_cascade
from ltvobs.hosm import run_bank
from ltvobs.integrators import (
    StepConfig,
    joint_rk4_step,
    projected_rk4_stages,
    skew_rule,
)
from ltvobs.linalg import orthogonal_projector_complement
from ltvobs.observer import ObserverConfig, _gain_basis, frame_track
from ltvobs.strong_obs import ErrorStackSampler, _solve_normal
from ltvobs.system import as_sampler

from conftest import discrete_qr_step, rk4_propagator, rk4_stage_times


def reference_simulate(run, eta, record_eydot):
    """Sequential joint RK4 of plant and observer; records stage frames.

    The frame rides in the joint step for its stage frames, and its grid
    frame comes from the discrete QR step under A's stage matrices.
    """
    sys, conf = run.sys, run.observer
    step = conf.step
    n, r = sys.n, sys.r
    fb, p = run.feedback, conf.p

    t_grid = step.grid()
    size = t_grid.size
    t_stage = rk4_stage_times(t_grid, step.h)

    def sample(value, shape=None):
        fn = as_sampler(value, shape)
        return fn(t_stage), fn(t_grid)

    (a_st, a_gr), (c_st, c_gr), (f_st, _), (d_st, d_gr) = (
        sample(m) for m in (sys.a, sys.c, sys.f, sys.d)
    )
    (w_st, w_gr), (u_st, _) = sample(run.w, (sys.m,)), sample(run.u, (sys.q,))
    cdot_gr = sys.c.derivative().bind()(t_grid)
    stage = itertools.count()
    x_rec, xt_rec = np.empty((size, n)), np.empty((size, n))
    ey_rec, eyd_rec = np.empty((size, r)), np.empty((size, r))
    l_rec = np.empty((size, n, r))
    stage_frames = []
    x, xt, q = run.x0.copy(), run.xt0.copy(), conf.initial_frame(n)
    noise = eta[0]

    def rhs(t, states):
        xs, xts, qs = states
        stage_frames.append(qs.copy())
        i = next(stage)
        a_val, c_val = a_st[i], c_st[i]
        u_val = u_st[i]
        if fb is not None:
            u_val = u_val - fb @ xs
        drive = f_st[i] @ u_val
        dx = a_val @ xs + drive + d_st[i] @ w_st[i]
        qt, _ = _gain_basis(c_val, qs)
        e_out = (c_val @ xs + noise) - c_val @ xts
        dxt = a_val @ xts + drive + p * (qs @ (qt.T @ (c_val.T @ e_out)))
        m = a_val @ qs
        w_red = qs.T @ m
        return [dx, dxt, m - qs @ (w_red - skew_rule(w_red))]

    def record(i):
        c_val = c_gr[i]
        x_rec[i], xt_rec[i] = x, xt
        ey_rec[i] = (c_val @ x + eta[i]) - c_val @ xt
        qt, _ = _gain_basis(c_val, q)
        l_rec[i] = p * (q @ (qt.T @ c_val.T))
        if record_eydot:
            e = x - xt
            de = (a_gr[i] - l_rec[i] @ c_val) @ e + d_gr[i] @ w_gr[i]
            eyd_rec[i] = cdot_gr[i] @ e + c_val @ de

    record(0)
    for i in range(size - 1):
        noise = eta[i]
        x, xt, _ = joint_rk4_step(rhs, t_grid[i], [x, xt, q], step.h)
        phi = rk4_propagator(*a_st[4 * i : 4 * i + 4], step.h)
        q, _ = discrete_qr_step(phi, q, t_grid[i])
        record(i + 1)
    frames = np.asarray(stage_frames).reshape(size - 1, 4, n, conf.k)
    return t_grid, x_rec, xt_rec, ey_rec, l_rec, eyd_rec, frames


def _noise(run):
    eta = np.zeros((run.observer.step.n_steps + 1, run.sys.r))
    if run.sigma > 0.0:
        eta += np.random.default_rng(run.noise_seed).normal(0.0, run.sigma, eta.shape)
    return eta


def reference_cascade(run):
    """The cascade on the sequential stepper, one reconstruction per sample."""
    step = run.observer.step
    r = run.sys.r
    eta = _noise(run)
    t, x, xt, ey, l_rec, eyd, frames = reference_simulate(
        run, eta, run.oracle_derivatives
    )
    if run.oracle_derivatives:
        stack, t_f = np.hstack([ey, eyd]), step.t0
    else:
        bank = run_bank(  # order 2, as in run_cascade
            ey, nu=3, l_est=run.lipschitz, h=step.h,
            threshold=max(run.threshold, 5.0 * run.sigma), dwell=run.dwell,
            gains=run.gains,
        )
        z0, z1 = bank.stack[:, :r], bank.stack[:, r : 2 * r]
        stack = np.hstack([z0 if run.sigma > 0.0 else ey, z1])
        t_f = None if bank.settled_index is None else t[bank.settled_index] + run.dwell
    # the error stack maps of every sample at once, then the steps of
    # ErrorStackSampler.reconstruct, one projector and normal solve per sample
    r_e, j_e = ErrorStackSampler(run.sys).matrices_stack(t, l_rec)
    e_tilde = []
    for ti, r_i, j_i, y_i in zip(t, r_e, j_e, stack):
        k_i = orthogonal_projector_complement(j_i)
        e_tilde.append(_solve_normal(k_i @ r_i, k_i @ y_i, ti))
    xhat = xt + np.array(e_tilde)
    sup = None
    if t_f is not None:
        sup = np.max(np.abs(x - xhat)[t >= t_f - 1e-12], axis=0)
    return dict(t=t, x=x, xt=xt, e_y=ey, gains=l_rec, frames=frames, t_f=t_f, sup=sup)


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _toy_run(sys, t_end=6.0, **kw):
    conf = ObserverConfig(p=8.0, k=1, step=StepConfig(h=1e-3, t0=0.0, t_end=t_end))
    return CascadeRun(
        sys=sys, observer=conf, x0=[1.0, -0.5], xt0=[0.0, 0.0], w=["0.4*sin(t)"],
        lipschitz=8.0, **kw,
    )


def _bench_run(oracle):
    return bench8_run(2.0, oracle_derivatives=oracle)


def _check_against_reference(make):
    spec = make()
    ref = reference_cascade(spec)
    run = run_cascade(spec)
    assert _rel(run.x, ref["x"]) <= 1e-10
    assert _rel(run.xt, ref["xt"]) <= 1e-10
    assert _rel(run.e_y, ref["e_y"]) <= 1e-10
    assert run.t_f == ref["t_f"]
    if ref["sup"] is not None:
        # with exact derivatives the reconstruction is exact, so its tail
        # errors are round-off and agree only to an absolute floor
        floor = 1e-9 if spec.oracle_derivatives else 0.0
        assert np.allclose(run.sup_state_error, ref["sup"], rtol=1e-6, atol=floor)

    # the grid gains the batched path records for the reconstruction
    sys, conf = spec.sys, spec.observer
    track = frame_track(sys, conf)
    gains = _simulate(spec, track, _noise(spec), True, False)[4]
    assert _rel(gains, ref["gains"]) <= 1e-10

    # stage frames rebuilt in batch from the one frame track
    h = conf.step.h
    a_grid = sys.a.bind()
    stages = projected_rk4_stages(
        track.frames[:-1], a_grid(track.t[:-1]), a_grid(track.t[:-1] + 0.5 * h), h
    )
    assert np.max(np.abs(np.swapaxes(stages, 0, 1) - ref["frames"])) <= 1e-12
    return run


def test_toy_noise_free_matches_sequential(toy2):
    run = _check_against_reference(lambda: _toy_run(toy2))
    assert run.t_f is not None


def test_toy_noisy_matches_sequential(toy2):
    run = _check_against_reference(
        lambda: _toy_run(toy2, t_end=8.0, sigma=1e-3, noise_seed=3)
    )
    assert run.t_f is not None


def test_toy_oracle_matches_sequential(toy2):
    _check_against_reference(lambda: _toy_run(toy2, oracle_derivatives=True))


@pytest.mark.parametrize("oracle", [False, True])
def test_bench8_matches_sequential(oracle):
    _check_against_reference(lambda: _bench_run(oracle))
