"""Directional gain computation, observer convergence, detectability report."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import bench8_run, discrete_qr_step, rk4_propagator
from ltvobs import observer
from ltvobs.cascade import CascadeRun, run_tso
from ltvobs.errors import StepPreconditionError
from ltvobs.integrators import StepConfig
from ltvobs.lyapunov import NONSTABLE_BAND, estimate_spectrum
from ltvobs.observer import (
    DETECT_TOL,
    DetectabilityReport,
    DirectionDetectability,
    ObserverConfig,
    detectability_report,
    frame_track,
    gain_stack,
    max_rk4_gain,
    min_gain_suggestion,
    stage_gains,
)
from ltvobs.system import LtvSystem


def _gain(c, q, p):
    """One gain through the stacked path: L = p Q Qt^T C^T."""
    return gain_stack(np.asarray(c)[None], np.asarray(q)[None], p)[0]


def test_gain_full_measurement_single_direction():
    # C = I, frame = e1: the gain corrects only the first state
    l = _gain(np.eye(2), np.eye(2, 1), 3.0)
    assert np.allclose(l, [[3.0, 0.0], [0.0, 0.0]])


def test_gain_invisible_direction_is_zeroed():
    # C sees only state 1 but the frame spans state 2: C^T C Q = 0, so
    # the degenerate column must produce a zero gain, not a leaked
    # completion direction
    c = np.array([[1.0, 0.0]])
    q = np.array([[0.0], [1.0]])
    assert np.allclose(_gain(c, q, 30.0), 0.0)


def test_gain_rows_stay_in_frame_span(rng):
    # L = p Q (...) means directions orthogonal to the frame get no
    # correction; check Qperp^T L = 0 on random problems
    for _ in range(50):
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, n + 1))
        k = int(rng.integers(1, n))
        c = rng.standard_normal((r, n))
        q_full, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q, q_perp = q_full[:, :k], q_full[:, k:]
        l = _gain(c, q, 2.0)
        assert np.max(np.abs(q_perp.T @ l)) < 1e-12


def test_observer_converges_scalar_unstable_plant():
    # dx/dt = 0.5 x, y = x, p = 30: error decays at 0.5 - 30
    sys = LtvSystem(a=[[0.5]], f=[[0.0]], d=[[0.0]], c=[[1.0]])
    conf = ObserverConfig(p=30.0, k=1, step=StepConfig(h=1e-3, t0=0.0, t_end=0.5))
    run = run_tso(CascadeRun(sys=sys, observer=conf, x0=[1.0], xt0=[0.0]))
    err = abs(np.exp(0.5 * 0.5) - run.xt[-1, 0])
    assert err < 4e-7  # e^{-14.75} plus discretization


def _stage_frames(monkeypatch, run, lo, hi):
    """The frame stacks ``stage_gains`` forms gains from, one per call."""
    seen = []
    gain_from_basis = observer._gain_from_basis

    def recording(c_val, q, qt, p):
        seen.append(q)
        return gain_from_basis(c_val, q, qt, p)

    monkeypatch.setattr(observer, "_gain_from_basis", recording)
    track = frame_track(run.sys, run.observer)
    stage_gains(run.sys, run.observer, track, lo, hi)
    return track, seen


def test_stage_gain_frames_are_orthonormal(monkeypatch):
    # every gain L = p Q Qt^T C^T assumes an orthonormal Q
    _, seen = _stage_frames(monkeypatch, bench8_run(0.5), 100, 300)
    assert seen
    for q in seen:
        defect = q.mT @ q - np.eye(q.shape[-1])
        assert np.max(np.linalg.norm(defect, axis=(1, 2))) <= 1e-14


def test_track_gains_equal_gain_stack_for_every_gain():
    # the gain basis does not depend on p: one track serves every gain
    run = bench8_run(0.5)
    track = frame_track(run.sys, run.observer)
    c_val = run.sys.c.bind()(track.t)
    assert track.gain_basis.shape == track.frames.shape
    for p in (30.0, 90.0):
        expected = gain_stack(c_val, track.frames, p)
        assert np.array_equal(track.gains(c_val, p, slice(None)), expected)
    every_tenth = np.arange(0, track.t.size, 10)
    assert np.array_equal(
        track.gains(c_val[every_tenth], 30.0, every_tenth),
        gain_stack(c_val[every_tenth], track.frames[every_tenth], 30.0),
    )


def test_stage_gain_midpoint_frame_is_half_step_discrete_qr(monkeypatch):
    # three gains per step: the grid frames lo .. hi, then the midpoints
    run = bench8_run(0.5)
    lo, hi = 100, 300
    track, (grid, mid) = _stage_frames(monkeypatch, run, lo, hi)
    assert np.array_equal(grid, track.frames[lo : hi + 1])
    h = run.observer.step.h
    a_fn = run.sys.a.bind()
    t = track.t[lo:hi]
    a1, a_quarter, a2 = a_fn(t), a_fn(t + 0.25 * h), a_fn(t + 0.5 * h)
    for i in range(hi - lo):
        half = rk4_propagator(a1[i], a_quarter[i], a_quarter[i], a2[i], 0.5 * h)
        q_ref, _ = discrete_qr_step(half, track.frames[lo + i], t[i])
        assert np.max(np.abs(mid[i] - q_ref)) <= 1e-12


def _with_step(run, h):
    step = replace(run.observer.step, h=h)
    return replace(run, observer=replace(run.observer, step=step))


@pytest.mark.parametrize("which", ["toy", "bench8"])
def test_observer_state_converges_at_order_four(toy2, which):
    # x~ at steps h, h/2 and h/4 on the common grid: the change per
    # halving shrinks by 2^4 when the stage gains are fourth-order
    if which == "toy":
        # a start frame off the unstable direction makes the frame turn
        conf = ObserverConfig(
            p=8.0, k=1, step=StepConfig(h=4e-3, t0=0.0, t_end=2.0), q0=[[1.0], [1.0]]
        )
        run = CascadeRun(
            sys=toy2, observer=conf, x0=[1.0, -0.5], xt0=[0.0, 0.0], w=["0.4*sin(t)"]
        )
    else:
        run = _with_step(bench8_run(2.0), 2e-3)
    h = run.observer.step.h
    xt = [run_tso(_with_step(run, h / 2**j)).xt[:: 2**j] for j in range(3)]
    ratio = np.max(np.abs(xt[0] - xt[1])) / np.max(np.abs(xt[1] - xt[2]))
    assert 14.0 <= ratio <= 19.0


def test_detectability_report_toy(toy2):
    conf = ObserverConfig(p=3.0, k=1, step=StepConfig(h=1e-3, t0=0.0, t_end=20.0))
    rep = detectability_report(conf, frame_track(toy2, conf))
    assert rep.ok
    d = rep.directions[0]
    assert d.nonstable and d.detectable
    assert d.lambda_hat == pytest.approx(0.3, abs=1e-3)
    assert d.r_bar == pytest.approx(1.0, abs=1e-6)
    assert d.mu_hat == pytest.approx(d.lambda_hat - 3.0 * d.r_bar, abs=1e-12)
    assert min_gain_suggestion(rep, margin=1.0) == pytest.approx(1.3, abs=2e-3)


def test_detectability_report_flags_invisible_direction():
    # output reads the stable state only; the unstable direction is
    # invisible, so the report must refuse and suggestion must raise
    sys = LtvSystem(a=[[0.3, 0.0], [0.0, -2.0]], f=[[0.0], [1.0]], d=[[0.0], [1.0]], c=[[0.0, 1.0]])
    conf = ObserverConfig(p=3.0, k=1, step=StepConfig(h=1e-3, t0=0.0, t_end=10.0))
    track = frame_track(sys, conf)
    rep = detectability_report(conf, track)
    assert not rep.ok
    assert len(rep.failed_directions) == 1
    assert rep.failed_directions[0].index == 0
    with pytest.raises(StepPreconditionError) as info:
        min_gain_suggestion(rep)
    assert info.value.step == "ii"
    # with diag Rt = 0 no gain reaches RK4's stability limit
    assert not track.r_diag.any()
    assert max_rk4_gain(track, conf.step.h) is None


def test_predicted_exponent_never_exceeds_open_loop(toy2):
    for p in (1.0, 3.0, 10.0):
        conf = ObserverConfig(p=p, k=2, step=StepConfig(h=1e-3, t0=0.0, t_end=10.0))
        rep = detectability_report(conf, frame_track(toy2, conf))
        for d in rep.directions:
            assert d.mu_hat <= d.lambda_hat + 1e-12


def test_spectrum_and_detectability_share_the_reduction():
    # the same frame on the same grid: the exponent averages, their
    # histories and the worst orthogonality defect agree bit for bit
    run = bench8_run(3.0)
    conf = run.observer
    est = estimate_spectrum(run.sys.a, conf.k, conf.step)
    track = frame_track(run.sys, conf)
    rep = detectability_report(conf, track)
    lam = np.array([d.lambda_hat for d in rep.directions])
    assert np.array_equal(est.exponents_by_direction, lam)
    assert np.array_equal(est.history_t, rep.history_t)
    assert np.array_equal(est.history_lambda, rep.history_lambda)
    assert est.max_orth_defect == track.max_orth_defect


def _report_from(lams, rbars, p=1.0):
    dirs = [
        DirectionDetectability(
            index=i,
            lambda_hat=lam,
            r_bar=rb,
            detectable=rb > DETECT_TOL,
            mu_hat=lam - p * rb,
            nonstable=lam >= -NONSTABLE_BAND,
        )
        for i, (lam, rb) in enumerate(zip(lams, rbars))
    ]
    empty = np.zeros((0,))
    return DetectabilityReport(
        directions=dirs,
        ok=all(d.detectable or not d.nonstable for d in dirs),
        min_ctcq_sigma=1.0,
        history_t=empty,
        history_lambda=empty,
        history_rbar=empty,
    )


def test_min_gain_arithmetic():
    rep = _report_from([0.5, -3.0], [0.25, 0.9])
    assert min_gain_suggestion(rep, margin=0.5) == pytest.approx(4.0)
    rep2 = _report_from([0.0], [1.0])
    assert min_gain_suggestion(rep2, margin=1.0) == pytest.approx(1.0)
    # stable directions impose nothing
    rep3 = _report_from([-2.0], [0.5])
    assert min_gain_suggestion(rep3, margin=1.0) == 0.0
    with pytest.raises(ValueError):
        min_gain_suggestion(rep3, margin=-0.1)


def test_observer_config_validation():
    with pytest.raises(ValueError):
        ObserverConfig(p=0.0, k=1, step=StepConfig())
    with pytest.raises(ValueError):
        ObserverConfig(p=1.0, k=0, step=StepConfig())
    conf = ObserverConfig(p=1.0, k=3, step=StepConfig())
    with pytest.raises(ValueError):
        conf.initial_frame(2)
