"""Batched cascade against a sequential reference stepper.

The reference is the per-step integration the cascade used before it
stepped plant and observer as an affine recurrence: one joint RK4 step of
(x, x~) per grid step through the public ``joint_rk4_step``, the gain
recomputed inside every stage from that stage's frame, and one
reconstruction solve per sample.  The frames are per-step discrete QR
steps ``Q <- mgs_qr(Phi Q)``: the grid frame over a whole step, as the
package's frame flow takes it, and the midpoint frame over half a step
from the grid frame, with Phi_half folded from A(t), A(t + h/4) twice
and A(t + h/2).  The stages read the frames Q(t), Q_mid, Q_mid and
Q(t + h).  Its matrices are evaluated once, on the arrays of grid, stage
and quarter-step times, and read in stage order.  The package steps the
plant and the error e = x - x~; the reference steps x and x~, so the
comparison also checks that change of coordinates.
"""

import itertools

import numpy as np
import pytest

from conftest import bench8_run
from ltvobs.cascade import CascadeRun, run_cascade
from ltvobs.hosm import run_bank
from ltvobs.integrators import StepConfig, joint_rk4_step
from ltvobs.linalg import orthogonal_projector_complement
from ltvobs.observer import ObserverConfig, frame_track, stage_gains
from ltvobs.strong_obs import ErrorStackSampler
from ltvobs.system import as_sampler

from conftest import discrete_qr_step, gain_basis, rk4_propagator, rk4_stage_times


def reference_simulate(run, eta, record_eydot):
    """Sequential joint RK4 of plant and observer; records stage gains.

    The grid frame and the midpoint frame are discrete QR steps under A's
    stage matrices; each stage's gain comes from its frame.
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
    a_quarter = as_sampler(sys.a)(t_grid[:-1] + 0.25 * step.h)
    cdot_gr = sys.c.derivative().bind()(t_grid)
    stage = itertools.count()
    x_rec, xt_rec = np.empty((size, n)), np.empty((size, n))
    ey_rec, eyd_rec = np.empty((size, r)), np.empty((size, r))
    l_rec = np.empty((size, n, r))
    stage_l = []
    x, xt, q = run.x0.copy(), run.xt0.copy(), conf.initial_frame(n)
    noise, stage_frames = eta[0], ()

    def rhs(t, states):
        xs, xts = states
        i = next(stage)
        qs = stage_frames[i % 4]
        a_val, c_val = a_st[i], c_st[i]
        u_val = u_st[i]
        if fb is not None:
            u_val = u_val - fb @ xs
        drive = f_st[i] @ u_val
        dx = a_val @ xs + drive + d_st[i] @ w_st[i]
        qt, _ = gain_basis(c_val, qs)
        stage_l.append(p * (qs @ (qt.T @ c_val.T)))
        e_out = (c_val @ xs + noise) - c_val @ xts
        dxt = a_val @ xts + drive + stage_l[-1] @ e_out
        return [dx, dxt]

    def record(i):
        c_val = c_gr[i]
        x_rec[i], xt_rec[i] = x, xt
        ey_rec[i] = (c_val @ x + eta[i]) - c_val @ xt
        qt, _ = gain_basis(c_val, q)
        l_rec[i] = p * (q @ (qt.T @ c_val.T))
        if record_eydot:
            e = x - xt
            de = (a_gr[i] - l_rec[i] @ c_val) @ e + d_gr[i] @ w_gr[i]
            eyd_rec[i] = cdot_gr[i] @ e + c_val @ de

    record(0)
    for i in range(size - 1):
        noise = eta[i]
        a_step = a_st[4 * i : 4 * i + 4]
        a_q = a_quarter[i]
        half = rk4_propagator(a_step[0], a_q, a_q, a_step[1], 0.5 * step.h)
        q_mid, _ = discrete_qr_step(half, q, t_grid[i])
        q_next, _ = discrete_qr_step(rk4_propagator(*a_step, step.h), q, t_grid[i])
        stage_frames = (q, q_mid, q_mid, q_next)
        x, xt = joint_rk4_step(rhs, t_grid[i], [x, xt], step.h)
        q = q_next
        record(i + 1)
    stage_l = np.asarray(stage_l).reshape(size - 1, 4, n, r)
    return t_grid, x_rec, xt_rec, ey_rec, l_rec, eyd_rec, stage_l


def _noise(run):
    eta = np.zeros((run.observer.step.n_steps + 1, run.sys.r))
    if run.sigma > 0.0:
        eta += np.random.default_rng(run.noise_seed).normal(0.0, run.sigma, eta.shape)
    return eta


def reference_cascade(run, simulated=None):
    """The cascade on the sequential stepper, one reconstruction per sample.

    ``simulated`` is the run's :func:`reference_simulate` output when a
    caller already holds it.
    """
    step = run.observer.step
    r = run.sys.r
    if simulated is None:
        simulated = reference_simulate(run, _noise(run), run.oracle_derivatives)
    t, x, xt, ey, l_rec, eyd, stage_l = simulated
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
    # the error stack maps of every sample at once, then one projector and
    # one library least-squares solve per sample
    r_e, j_e = ErrorStackSampler(run.sys).matrices_stack(t, l_rec)
    e_tilde = []
    for r_i, j_i, y_i in zip(r_e, j_e, stack):
        k_i = orthogonal_projector_complement(j_i)
        e_tilde.append(np.linalg.lstsq(k_i @ r_i, k_i @ y_i, rcond=None)[0])
    xhat = xt + np.array(e_tilde)
    sup = None
    if t_f is not None:
        sup = np.max(np.abs(x - xhat)[t >= t_f - 1e-12], axis=0)
    return dict(
        t=t, x=x, xt=xt, e_y=ey, gains=l_rec, stage_gains=stage_l, t_f=t_f, sup=sup
    )


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


def _check_against_reference(make, simulated=None):
    spec = make()
    ref = reference_cascade(spec, simulated)
    run = run_cascade(spec)
    assert _rel(run.x, ref["x"]) <= 1e-10
    assert _rel(run.xt, ref["xt"]) <= 1e-10
    assert _rel(run.e_y, ref["e_y"]) <= 1e-10
    assert run.t_f == ref["t_f"]
    if ref["sup"] is not None:
        # with exact derivatives the reconstruction is exact, so its tail
        # errors are round-off and agree only to an absolute floor.  The
        # reference forms x - xhat from two O(1) states and the package
        # forms e - e~, so an exactly reconstructed state's tail error is
        # round-off on both sides, here 1e-16 against 2e-16; 1e-12 is that
        # floor without exact derivatives
        floor = 1e-9 if spec.oracle_derivatives else 1e-12
        assert np.allclose(run.sup_state_error, ref["sup"], rtol=1e-6, atol=floor)

    # the grid gains the reconstruction reads off the track
    sys, conf = spec.sys, spec.observer
    track = frame_track(sys, conf)
    gains = track.gains(sys.c.bind()(track.t), conf.p, slice(None))
    assert _rel(gains, ref["gains"]) <= 1e-10

    # the gains of the four RK4 stages, at t, t + h/2 twice and t + h
    (_, _, l_grid), (_, _, l_mid) = stage_gains(sys, conf, track, 0, track.t.size - 1)
    ref_stage = ref["stage_gains"]
    for s, l_stage in enumerate((l_grid[:-1], l_mid, l_mid, l_grid[1:])):
        assert _rel(l_stage, ref_stage[:, s]) <= 1e-10
    return run


@pytest.fixture(scope="module")
def toy_simulated(toy2):
    """The noise-free 6 s toy run's sequential simulation, with de_y/dt recorded.

    The noise-free and oracle toy tests step the same plant and observer,
    so they share this one simulation, the slowest part of each.
    """
    run = _toy_run(toy2)
    return reference_simulate(run, _noise(run), True)


def test_toy_noise_free_matches_sequential(toy2, toy_simulated):
    run = _check_against_reference(lambda: _toy_run(toy2), toy_simulated)
    assert run.t_f is not None


def test_toy_noisy_matches_sequential(toy2):
    run = _check_against_reference(
        lambda: _toy_run(toy2, t_end=8.0, sigma=1e-3, noise_seed=3)
    )
    assert run.t_f is not None


def test_toy_oracle_matches_sequential(toy2, toy_simulated):
    _check_against_reference(
        lambda: _toy_run(toy2, oracle_derivatives=True), toy_simulated
    )


@pytest.mark.parametrize("oracle", [False, True])
def test_bench8_matches_sequential(oracle):
    _check_against_reference(lambda: _bench_run(oracle))
