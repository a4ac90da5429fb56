"""The chunked frame-flow loop against sequential reference loops.

The references are the per-step loops the flows ran before they shared
:func:`ltvobs.integrators.frame_flow`: a projected RK4 step that
re-orthonormalizes by modified Gram-Schmidt with ``np.tril`` as the skew
rule, and, for the closed-loop triangularization, one ``joint_rk4_step``
of the observer frame and the full frame per grid step with the gain
recomputed inside every stage.  Their matrices are evaluated once, on the
arrays of grid and stage times.
"""

import itertools

import numpy as np
import pytest

from ltvobs.bibs import triangularize, triangularize_error_system
from ltvobs.cli import _resolve_scenario, load_scenario
from ltvobs.errors import NumericalError
from ltvobs.integrators import StepConfig, joint_rk4_step
from ltvobs.linalg import mgs_qr
from ltvobs.lyapunov import default_frame, estimate_spectrum
from ltvobs.observer import ObserverConfig, _gain_basis, frame_track
from conftest import rk4_stage_times
from test_cli import TOY, write_scenario


def _skew(w):
    lower = np.tril(w, -1)
    return lower - lower.T


def _frame_rhs(a, q):
    m = a @ q
    w = q.T @ m
    return m - q @ (w - _skew(w))


def mgs_step(a1, a2, a4, t, q, h):
    """The projected RK4 step with a modified Gram-Schmidt retraction."""
    k1 = _frame_rhs(a1, q)
    k2 = _frame_rhs(a2, q + (0.5 * h) * k1)
    k3 = _frame_rhs(a2, q + (0.5 * h) * k2)
    k4 = _frame_rhs(a4, q + h * k3)
    qn, r = mgs_qr(q + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    d = np.diag(r)
    if not (np.all(np.isfinite(qn)) and np.all(d > 1e-8)):
        raise NumericalError(f"frame rank collapse at t={t}: pivots {d}")
    return qn


def sequential_flow(a, q, cfg):
    """Grid frames and grid matrices of the flow of ``a``, one step per call."""
    h, t = cfg.h, cfg.grid()
    mats, mids = a.bind()(t), a.bind()(t[:-1] + 0.5 * h)
    frames = [q]
    for i in range(cfg.n_steps):
        q = mgs_step(mats[i], mids[i], mats[i + 1], t[i], q, h)
        frames.append(q)
    return np.asarray(frames), mats


def reference_spectrum(a, q, cfg):
    """Step-by-step trapezoid integrals of diag(Q^T A Q)."""
    frames, mats = sequential_flow(a, q, cfg)
    b = np.einsum("tij,tij->tj", frames, mats @ frames)
    integrals = np.zeros(q.shape[1])
    for i in range(cfg.n_steps):
        integrals += (0.5 * cfg.h) * (b[i] + b[i + 1])
    return integrals, b, frames


def reference_triangularize(a, n, cfg):
    frames, mats = sequential_flow(a, np.eye(n), cfg)
    w = frames.transpose(0, 2, 1) @ mats @ frames
    return w - np.stack([_skew(x) for x in w]), frames


def reference_error_triangularize(sys, conf):
    """Observer frame and full frame stepped jointly, gain per stage."""
    cfg, p = conf.step, conf.p
    t_grid = cfg.grid()
    t_stage = rk4_stage_times(t_grid, cfg.h)
    a_st, c_st = sys.a.bind()(t_stage), sys.c.bind()(t_stage)
    a_gr, c_gr = sys.a.bind()(t_grid), sys.c.bind()(t_grid)
    stage = itertools.count()

    def a_err(a_val, c_val, q_obs):
        qt, _ = _gain_basis(c_val, q_obs)
        return a_val - p * (q_obs @ (qt.T @ c_val.T)) @ c_val

    def rhs(t, states):
        q_o, q_f = states
        i = next(stage)
        m_err = a_err(a_st[i], c_st[i], q_o)
        return [_frame_rhs(a_st[i], q_o), _frame_rhs(m_err, q_f)]

    def b_of(i, q_o, q_f):
        w = q_f.T @ a_err(a_gr[i], c_gr[i], q_o) @ q_f
        return w - _skew(w)

    q_obs, qq = conf.initial_frame(sys.n), np.eye(sys.n)
    bs, qs = [b_of(0, q_obs, qq)], [qq]
    for i in range(cfg.n_steps):
        q_obs, qq = joint_rk4_step(rhs, t_grid[i], [q_obs, qq], cfg.h, project=(0, 1))
        bs.append(b_of(i + 1, q_obs, qq))
        qs.append(qq)
    return np.asarray(bs), np.asarray(qs)


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.fixture(scope="module")
def scenarios(tmp_path_factory):
    """Scenario and grid per name: TOY over its 6 s, bench8 over 3 s."""
    toy = load_scenario(write_scenario(tmp_path_factory.mktemp("toy"), TOY))
    bench = _resolve_scenario("bench8")
    return {
        "toy": (toy, toy.step),
        "bench8": (bench, StepConfig(h=bench.step.h, t0=0.0, t_end=3.0)),
    }


@pytest.mark.parametrize("name", ["toy", "bench8"])
def test_spectrum_matches_sequential(scenarios, name):
    scen, cfg = scenarios[name]
    k = min(3, scen.sys.n)
    est = estimate_spectrum(scen.sys.a, k, cfg)
    integrals, b, frames = reference_spectrum(scen.sys.a, default_frame(scen.sys.n, k), cfg)
    assert _rel(est.integrals, integrals) <= 1e-10
    assert _rel(est.history_b, b[1:]) <= 1e-10
    assert _rel(est.q_final, frames[-1]) <= 1e-10
    assert est.max_orth_defect <= 1e-14


@pytest.mark.parametrize("name", ["toy", "bench8"])
def test_open_loop_triangularize_matches_sequential(scenarios, name):
    scen, cfg = scenarios[name]
    tri = triangularize(scen.sys.a, cfg)
    b, frames = reference_triangularize(scen.sys.a, scen.sys.n, cfg)
    assert np.array_equal(tri.t, cfg.grid())
    assert _rel(tri.b, b) <= 1e-10
    assert _rel(tri.frames, frames) <= 1e-10


@pytest.mark.parametrize("name", ["toy", "bench8"])
def test_k2_track_matches_sequential(scenarios, name):
    scen, cfg = scenarios[name]
    conf = ObserverConfig(p=scen.observer_p, k=2, step=cfg)
    track = frame_track(scen.sys, conf)
    frames, mats = sequential_flow(scen.sys.a, conf.initial_frame(scen.sys.n), cfg)
    c_val = scen.sys.c.bind()(track.t)
    r_diag = np.array([_gain_basis(c, q)[1] for c, q in zip(c_val, frames)])
    assert _rel(track.frames, frames) <= 1e-10
    assert _rel(track.b_diag, np.einsum("tij,tij->tj", frames, mats @ frames)) <= 1e-10
    assert _rel(track.r_diag, r_diag) <= 1e-10
    assert track.max_orth_defect <= 1e-14


def _bench8_conf(t_end):
    scen = _resolve_scenario("bench8")
    step = StepConfig(h=scen.step.h, t0=0.0, t_end=t_end)
    return scen, ObserverConfig(p=scen.observer_p, k=scen.observer_k, step=step)


def test_closed_loop_matches_sequential_on_short_horizon():
    scen, conf = _bench8_conf(0.3)
    tri = triangularize_error_system(scen.sys, conf)
    b, frames = reference_error_triangularize(scen.sys, conf)
    assert _rel(tri.frames, frames) <= 1e-10
    assert _rel(tri.b, b) <= 1e-10


def test_closed_loop_long_horizon_integrals_and_trace():
    # from its identity start the closed-loop frame amplifies round-off
    # (e-folding about 0.04 s, the gap between its -31 and -4.4
    # diagonals) until about 1.5 s, so over 3 s the frames of the two
    # paths part by up to 4e-6.  The sequential reference itself, with
    # only (Q W - Q S) regrouped in its rhs, moves its diagonal integrals
    # by up to 1.2e-6 relative; the bound leaves room above that floor.
    # The trace identity tr B = tr(A - L C) holds to round-off throughout.
    scen, conf = _bench8_conf(3.0)
    tri = triangularize_error_system(scen.sys, conf)
    b, _ = reference_error_triangularize(scen.sys, conf)
    diag = np.diagonal(tri.b, axis1=1, axis2=2)
    ref_diag = np.diagonal(b, axis1=1, axis2=2)
    integrals = np.trapezoid(diag, tri.t, axis=0)
    ref_integrals = np.trapezoid(ref_diag, tri.t, axis=0)
    assert np.all(np.abs(integrals - ref_integrals) <= 1e-5 * np.abs(ref_integrals))

    track = frame_track(scen.sys, conf)
    a_val, c_val = scen.sys.a.bind()(track.t), scen.sys.c.bind()(track.t)
    for a, c, q, b_t in zip(a_val, c_val, track.frames, tri.b):
        qt, _ = _gain_basis(c, q)
        m = a - conf.p * (q @ (qt.T @ c.T)) @ c
        assert abs(np.trace(b_t) - np.trace(m)) <= 1e-10 * max(1.0, abs(np.trace(m)))
