"""The chunked frame-flow loop against sequential reference loops.

Two kinds of reference step the frame one grid step per call.  The
continuous one is the projected RK4 step the flows ran before the discrete
QR method: RK4 on the frame ODE, re-orthonormalized by modified
Gram-Schmidt, with ``np.tril`` as the skew rule.  The discrete one is the
discrete QR method itself, one step at a time: ``Q <- mgs_qr(Phi_i Q)``
with ``Phi_i`` folded stage by stage.  The open-loop flows agree with
both to round-off level.  The closed-loop triangular form is read off the
open-loop frame, so it is compared with the discrete reference and with
the identities that construction rests on.  Every reference evaluates its
matrices once, on the arrays of grid and stage times.

A third reference runs the chunked loop block by block with ``np.matmul``:
the first block of a chunk steps its frame, every later block applies the
running product of its propagators to the frame it starts from, and each
block is re-orthonormalized by its own batched ``np.linalg.qr`` before the
next one starts.  ``frame_flow`` forms the same products, those of all
later blocks at once, by ``np.dot`` and ``np.matmul``, which give the same
bits here; it factors only the block ends in sequence and the whole chunk
in one batch, on the LAPACK kernels of ``np.linalg.qr``, so the two agree
bit for bit.  Both sample A themselves, at the grid points and step
midpoints of each chunk, and yield each grid point once.
"""

from dataclasses import replace

import numpy as np
import pytest

from ltvobs import integrators
from ltvobs.bibs import triangularize, triangularize_error_system
from ltvobs.cli import load_scenario
from ltvobs.errors import NumericalError
from ltvobs.integrators import CHUNK_STEPS, StepConfig, frame_flow, rk4_propagators
from ltvobs.linalg import householder_q, householder_qr, mgs_qr
from ltvobs.lyapunov import estimate_spectrum, start_frame
from ltvobs.observer import detectability_report, frame_track
from ltvobs.system import as_matrix_expr, as_sampler
from conftest import bench8_run, discrete_qr_step, gain_basis, rk4_propagator, rk4_stage_times
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


def discrete_flow(a, q, cfg):
    """Grid frames and log diag R of the discrete QR method, one step per call."""
    h, t = cfg.h, cfg.grid()
    mats, mids = a.bind()(t), a.bind()(t[:-1] + 0.5 * h)
    frames, log_r = [q], []
    for i in range(cfg.n_steps):
        phi = rk4_propagator(mats[i], mids[i], mids[i], mats[i + 1], h)
        q, lr = discrete_qr_step(phi, q, t[i])
        frames.append(q)
        log_r.append(lr)
    return np.asarray(frames), np.asarray(log_r)


def _chunk_steps(n):
    """Steps per chunk of an n-dimensional flow: about 8192 entries per stage stack."""
    return max(CHUNK_STEPS, 8192 // n**2)


def blocked_flow(a, q, cfg):
    """The chunked loop with one batched QR per block, run block by block.

    Yields what :func:`frame_flow` yields, from the same evaluator ``a``,
    samples, chunk and block rules and propagators.  The first block of a
    chunk steps its frame, ``X <- Phi_j X``; every later block forms the
    product ``P_j = Phi_j ... Phi_start`` step by step and takes ``P_j Q``,
    with Q the frame it starts from.
    """
    h = cfg.h
    chunk = _chunk_steps(q.shape[0])
    for lo in range(0, cfg.n_steps, chunk):
        hi = min(lo + chunk, cfg.n_steps)
        count = hi - lo
        t = cfg.time(np.arange(lo, hi + 1))
        grid = a(t)
        stacks = (grid[:-1], a(t[:-1] + 0.5 * h), grid[1:])
        phi = rk4_propagators(stacks, h)
        growth = h * max(float(np.abs(s).sum(axis=-2).max()) for s in stacks)
        block = max(1, int(4.0 / growth)) if growth * count > 4.0 else count
        frames = np.empty((count + 1,) + q.shape)
        log_r = np.empty((count, q.shape[1]))
        frames[0] = q
        for start in range(0, count, block):
            stop = min(start + block, count)
            # the first block steps its frame; a later one applies the
            # product of its propagators so far to the frame it starts from
            for j in range(start, stop):
                if start == 0:
                    np.matmul(phi[j], frames[j], out=frames[j + 1])
                    continue
                prod = phi[j] if j == start else phi[j] @ prod
                np.matmul(prod, frames[start], out=frames[j + 1])
            x = frames[start + 1 : stop + 1]
            finite = np.isfinite(x).all(axis=(1, 2))
            if not finite.all():
                bad = lo + start + int(np.argmin(finite))
                raise NumericalError(f"non-finite frame flow at t={cfg.time(bad)}")
            qx, r = np.linalg.qr(x)
            d = np.diagonal(r, axis1=1, axis2=2)
            pivots = np.abs(d)
            scale = np.sqrt((x * x).sum(axis=1)).max(axis=1)
            collapse = (pivots <= 1e-8 * scale[:, None]).any(axis=1)
            if collapse.any():
                j = int(np.argmax(collapse))
                raise NumericalError(
                    f"frame rank collapse at t={cfg.time(lo + start + j)}: "
                    f"pivots {pivots[j]}"
                )
            np.multiply(qx, np.where(d < 0.0, -1.0, 1.0)[:, None, :], out=x)
            log_r[start:stop] = np.diff(np.log(pivots), axis=0, prepend=0.0)
        q = frames[-1]
        # grid point lo closed the chunk before
        skip = 1 if lo else 0
        yield slice(lo + skip, hi + 1), grid[skip:], frames[skip:], log_r


def _loop_matrices(sys, conf, t, frames):
    """Q^T L C Q and A - L C at ``t``, with the gain of the first k columns."""
    a_val, c_val = sys.a.bind()(t), sys.c.bind()(t)
    lc, qlcq = [], []
    for c, q in zip(c_val, frames):
        qt, _ = gain_basis(c, q[:, : conf.k])
        lc.append(conf.p * (q[:, : conf.k] @ (qt.T @ c.T)) @ c)
        qlcq.append(q.T @ lc[-1] @ q)
    return np.asarray(qlcq), a_val - np.asarray(lc)


def reference_error_form(sys, conf):
    """B of the error system at every grid point, one sample at a time.

    The full frame steps under A alone from the identity by the discrete
    reference; the gain comes from its first k columns.
    """
    frames, _ = discrete_flow(sys.a, np.eye(sys.n), conf.step)
    _, m = _loop_matrices(sys, conf, conf.step.grid(), frames)
    w = frames.transpose(0, 2, 1) @ m @ frames
    return w - np.stack([_skew(x) for x in w]), frames


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.fixture(scope="module")
def scenarios(tmp_path_factory):
    """Scenario and grid per name: TOY over its 6 s, bench8 over 3 s."""
    toy = load_scenario(write_scenario(tmp_path_factory.mktemp("toy"), TOY)).run
    bench = bench8_run(3.0)
    return {"toy": (toy, toy.observer.step), "bench8": (bench, bench.observer.step)}


@pytest.mark.parametrize("name", ["toy", "bench8"])
def test_spectrum_matches_sequential(scenarios, name):
    scen, cfg = scenarios[name]
    k = min(3, scen.sys.n)
    est = estimate_spectrum(scen.sys.a, k, cfg)
    integrals, b, frames = reference_spectrum(scen.sys.a, start_frame(scen.sys.n, k), cfg)
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
    conf = replace(scen.observer, k=2, step=cfg)
    track = frame_track(scen.sys, conf)
    frames, mats = sequential_flow(scen.sys.a, conf.initial_frame(scen.sys.n), cfg)
    c_val = scen.sys.c.bind()(track.t)
    r_diag = np.array([gain_basis(c, q)[1] for c, q in zip(c_val, frames)])
    assert _rel(track.frames, frames) <= 1e-10
    assert _rel(track.b_diag, np.einsum("tij,tij->tj", frames, mats @ frames)) <= 1e-10
    assert _rel(track.r_diag, r_diag) <= 1e-10
    assert track.max_orth_defect <= 1e-14


def _bench8_conf(t_end):
    run = bench8_run(t_end)
    return run, run.observer


def test_closed_loop_matches_sequential_on_short_horizon():
    scen, conf = _bench8_conf(0.3)
    tri = triangularize_error_system(scen.sys, conf)
    b, frames = reference_error_form(scen.sys, conf)
    assert _rel(tri.frames, frames) <= 1e-10
    assert _rel(tri.b, b) <= 1e-10


@pytest.fixture(scope="module")
def closed_loop_3s():
    scen, conf = _bench8_conf(3.0)
    return scen, conf, triangularize_error_system(scen.sys, conf)


def test_closed_loop_long_horizon_integrals_and_trace(closed_loop_3s):
    # the error system's QR frame is the open-loop one: its first k
    # columns are the observer frame, Q^T L C Q has no strict lower part,
    # the first k diagonals average to detect's mu_hat and the trailing
    # ones are the open-loop diagonals; the trace of B is tr(A - L C)
    scen, conf, tri = closed_loop_3s
    k, cfg = conf.k, conf.step
    assert np.array_equal(tri.t, cfg.grid())
    track = frame_track(scen.sys, conf)
    assert np.max(np.abs(tri.frames[:, :, :k] - track.frames)) <= 1e-12

    qlcq, m = _loop_matrices(scen.sys, conf, tri.t, tri.frames)
    assert np.max(np.abs(np.tril(qlcq, -1))) <= 1e-12
    diag = np.diagonal(tri.b, axis1=1, axis2=2)
    averages = np.trapezoid(diag, tri.t, axis=0) / cfg.horizon
    report = detectability_report(conf, track)
    assert np.max(np.abs(averages[:k] - [d.mu_hat for d in report.directions])) <= 1e-12
    open_diag = np.diagonal(triangularize(scen.sys.a, cfg).b, axis1=1, axis2=2)
    assert np.max(np.abs(diag[:, k:] - open_diag[:, k:])) <= 1e-12
    trace = np.trace(m, axis1=1, axis2=2)
    assert np.max(np.abs(diag.sum(axis=1) - trace) / np.maximum(1.0, np.abs(trace))) <= 1e-12


def test_closed_loop_exponents_do_not_move_with_step_size(closed_loop_3s):
    # from an exactly invariant start no truncation error seeds an escape,
    # so halving h leaves every component's average where it was
    scen, conf, tri = closed_loop_3s
    half = replace(conf, step=replace(conf.step, h=0.5 * conf.step.h))
    fine = triangularize_error_system(scen.sys, half)
    lam = [
        np.trapezoid(np.diagonal(x.b, axis1=1, axis2=2), x.t, axis=0) / conf.step.horizon
        for x in (tri, fine)
    ]
    assert np.max(np.abs(lam[0] - lam[1])) <= 1e-6


def test_closed_loop_from_scenario_q0():
    scen, conf = _bench8_conf(1.0)
    n, k = scen.sys.n, conf.k
    q0 = np.random.default_rng(11).standard_normal((n, k))
    conf = replace(conf, q0=q0)
    tri = triangularize_error_system(scen.sys, conf)
    assert np.array_equal(tri.frames[0][:, :k], start_frame(n, k, q0))
    assert np.max(np.abs(tri.frames[0].T @ tri.frames[0] - np.eye(n))) <= 1e-14
    track = frame_track(scen.sys, conf)
    assert np.max(np.abs(tri.frames[:, :, :k] - track.frames)) <= 1e-12
    _, m = _loop_matrices(scen.sys, conf, tri.t, tri.frames)
    trace = np.trace(m, axis1=1, axis2=2)
    diag_sum = np.trace(tri.b, axis1=1, axis2=2)
    assert np.max(np.abs(diag_sum - trace) / np.maximum(1.0, np.abs(trace))) <= 1e-12


def _spread4():
    """Constant non-triangular 3x3 A with exponents 2, 0.5 and -2."""
    v = np.array([[1.0, 0.4, -0.3], [0.2, 1.0, 0.5], [-0.4, 0.3, 1.0]])
    return as_matrix_expr((v @ np.diag([2.0, 0.5, -2.0]) @ np.linalg.inv(v)).tolist())


@pytest.mark.parametrize("name", ["spread4", "bench8"])
def test_blocked_driver_matches_per_step_discrete_qr(name):
    # the block rule re-anchors the spread-4 flow at h = 0.05 every 9 steps
    # of each 910-step chunk, while bench8 at h = 1e-3 keeps whole chunks
    if name == "spread4":
        a, cfg, q = _spread4(), StepConfig(h=0.05, t0=0.0, t_end=100.0), np.eye(3)
    else:
        run = bench8_run(3.0)
        a, cfg = run.sys.a, run.observer.step
        q = start_frame(run.sys.n, 3)
    stage_mats = a.bind()(rk4_stage_times(cfg.grid(), cfg.h))
    growth = cfg.h * np.abs(stage_mats).sum(axis=1).max()
    steps = _chunk_steps(q.shape[0]) * growth
    assert steps > 4.0 if name == "spread4" else steps <= 4.0
    chunks = list(frame_flow(a.bind(), q, cfg))
    frames = np.concatenate([c[2] for c in chunks])
    log_r = np.concatenate([c[3] for c in chunks])
    ref_frames, ref_log_r = discrete_flow(a, q, cfg)
    assert _rel(frames, ref_frames) <= 1e-10
    assert _rel(log_r, ref_log_r) <= 1e-10
    gram = frames.mT @ frames - np.eye(q.shape[1])
    assert np.sqrt((gram * gram).sum(axis=(1, 2))).max() <= 1e-14


_NON_NORMAL = np.array([[0.5, 40.0, 0.0], [0.0, -0.5, 30.0], [0.0, 0.0, 0.2]])
_FAST_ROTATION = np.array([[0.0, 30.0], [-30.0, 0.1]])


@pytest.mark.parametrize("a", [_NON_NORMAL, _FAST_ROTATION], ids=["non-normal", "rotation"])
def test_growth_budget_keeps_frames_at_round_off(a):
    # ||A||_1 = 70 and 30.1 at h = 0.01: blocks of 5 and 13 steps, each
    # allowed to grow X by about e^4, still give the per-step frames; the
    # start frame is off the invariant subspaces, so every frame turns
    cfg = StepConfig(h=0.01, t0=0.0, t_end=30.0)
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal(a.shape))
    chunks = list(frame_flow(as_sampler(lambda t: a), q, cfg))
    frames = np.concatenate([c[2] for c in chunks])
    log_r = np.concatenate([c[3] for c in chunks])
    ref_frames, ref_log_r = discrete_flow(as_matrix_expr(a.tolist()), q, cfg)
    assert _rel(frames, ref_frames) <= 1e-10
    assert _rel(log_r, ref_log_r) <= 1e-10
    gram = frames.mT @ frames - np.eye(len(a))
    assert np.sqrt((gram * gram).sum(axis=(1, 2))).max() <= 1e-14


@pytest.mark.parametrize(
    "a, h, block, tails",
    [(_spread4(), 0.5, 1, [0]), (as_matrix_expr(_FAST_ROTATION.tolist()), 0.01, 13, [7, 3])],
    ids=["one-step-blocks", "partial-last-blocks"],
)
def test_batched_later_blocks_match_per_step_discrete_qr(a, h, block, tails):
    # spread4 at h = 0.5 has h ||A||_1 > 4, so every step is its own block
    # and each frame is one propagator applied to the QR of the step before;
    # the rotation's 2048- and 952-step chunks end in blocks of 7 and 3 of
    # its 13 steps, whose products stop short of the full ones
    cfg = StepConfig(h=h, t0=0.0, t_end=30.0)
    q = start_frame(a.shape[0], 2)
    stage_mats = a.bind()(rk4_stage_times(cfg.grid(), h))
    assert int(4.0 / (h * np.abs(stage_mats).sum(axis=1).max())) in (0, block)
    chunks = list(frame_flow(a.bind(), q, cfg))
    assert [len(c[3]) % block for c in chunks] == tails
    frames = np.concatenate([c[2] for c in chunks])
    log_r = np.concatenate([c[3] for c in chunks])
    ref_frames, ref_log_r = discrete_flow(a, q, cfg)
    assert _rel(frames, ref_frames) <= 1e-10
    assert _rel(log_r, ref_log_r) <= 1e-10
    gram = frames.mT @ frames - np.eye(2)
    assert np.sqrt((gram * gram).sum(axis=(1, 2))).max() <= 1e-14


class _CountingNumpy:
    """numpy, with a count of the ``np.dot`` and ``np.matmul`` calls made."""

    def __init__(self):
        self.products = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def dot(self, *args, **kwargs):
        self.products += 1
        return np.dot(*args, **kwargs)

    def matmul(self, *args, **kwargs):
        self.products += 1
        return np.matmul(*args, **kwargs)


def test_frame_flow_products_follow_blocks_not_steps(monkeypatch):
    # one spread4 chunk of 910 steps in blocks of 9 (101 full, one of a
    # single step): 9 steps of the first block, 8 batched products for
    # positions 1..8 of all later blocks, 101 block ends and one batch of
    # P Q -- 119 calls where a product per step makes 910
    cfg = StepConfig(h=0.05, t0=0.0, t_end=45.5)
    counting = _CountingNumpy()
    monkeypatch.setattr(integrators, "np", counting)
    ((_, _, frames, log_r),) = frame_flow(_spread4().bind(), np.eye(3), cfg)
    block, blocks = 9, -(-910 // 9)
    assert len(log_r) == 910 and blocks == 102
    assert counting.products == block + (block - 1) + (blocks - 1) + 1 == 119
    monkeypatch.undo()
    ref_frames, _ = discrete_flow(_spread4(), np.eye(3), cfg)
    assert _rel(frames, ref_frames) <= 1e-10


@pytest.mark.parametrize("n, k, steps", [(8, 3, 128), (8, 8, 128), (2, 1, 2048), (2, 2, 2048)])
def test_chunk_length_follows_system_dimension(n, k, steps):
    # about 8192 matrix entries per stage stack, never under CHUNK_STEPS;
    # the frame width k does not enter
    cfg = StepConfig(h=0.01, t0=0.0, t_end=50.0)
    chunks = list(frame_flow(as_sampler(lambda t: -0.1 * np.eye(n)), np.eye(n, k), cfg))
    starts = range(0, 5000, steps)
    assert [len(log_r) for *_, log_r in chunks] == [min(steps, 5000 - lo) for lo in starts]
    # each chunk yields the grid points past its first, the first chunk all
    spans = [(index.start, index.stop) for index, *_ in chunks]
    assert spans == [(lo + 1 if lo else 0, min(lo + steps, 5000) + 1) for lo in starts]


def _gate1_systems():
    """The 20 constant upper-triangular systems of acceptance gate 1."""
    rng = np.random.default_rng(7)
    systems = []
    for _ in range(20):
        n = int(rng.integers(2, 7))
        systems.append(np.triu(rng.uniform(-2.0, 2.0, (n, n))))
    return systems


def _differential_cases(name):
    """(A evaluator, grid, start frame) per flow of a named case."""
    if name == "spread4":
        return [(_spread4().bind(), StepConfig(h=0.05, t0=0.0, t_end=100.0), np.eye(3))]
    if name == "gate1":
        cfg = StepConfig(h=0.05, t0=0.0, t_end=100.0)
        return [
            (as_sampler(lambda t, a=a: a), cfg, np.eye(len(a))) for a in _gate1_systems()
        ]
    run = bench8_run(3.0)
    return [(run.sys.a.bind(), run.observer.step, start_frame(run.sys.n, 3))]


@pytest.mark.parametrize("name", ["spread4", "gate1", "bench8"])
def test_frame_flow_equals_block_by_block_loop(name):
    # the same arithmetic in another order of calls: equal to the bit
    for a, cfg, q in _differential_cases(name):
        chunks = zip(frame_flow(a, q, cfg), blocked_flow(a, q, cfg), strict=True)
        for (index, grid, frames, log_r), ref in chunks:
            assert index == ref[0]
            assert np.array_equal(grid, ref[1])
            assert np.array_equal(frames, ref[2])
            assert np.array_equal(log_r, ref[3])


def _record_qr(monkeypatch):
    """Record the shape and finiteness of every QR input of ``frame_flow``.

    The block ends go through ``householder_q``, the batches through
    ``householder_qr``; both land in one list, in call order.  Also
    returns the shapes of every ``np.linalg.qr`` input, which
    ``frame_flow`` should never call.
    """
    calls, library_calls = [], []
    library_qr = np.linalg.qr

    def recorded(qr):
        def record(a):
            calls.append((a.shape, bool(np.isfinite(a).all())))
            return qr(a)

        return record

    def record_library(a, *args, **kwargs):
        library_calls.append(a.shape)
        return library_qr(a, *args, **kwargs)

    monkeypatch.setattr("ltvobs.integrators.householder_qr", recorded(householder_qr))
    monkeypatch.setattr("ltvobs.integrators.householder_q", recorded(householder_q))
    monkeypatch.setattr(np.linalg, "qr", record_library)
    return calls, library_calls


def test_frame_flow_factors_block_ends_alone_and_each_chunk_once(monkeypatch):
    # spread4 at h = 0.05 re-anchors every 9 steps of its 910-step chunks:
    # per chunk one batched QR of all its steps, and one QR of each block
    # end but the last
    a, cfg, q = _differential_cases("spread4")[0]
    calls, library_calls = _record_qr(monkeypatch)
    list(frame_flow(a, q, cfg))
    expected = []
    for lo in range(0, cfg.n_steps, 910):
        count = min(910, cfg.n_steps - lo)
        expected += [((3, 3), True)] * ((count - 1) // 9) + [((count, 3, 3), True)]
    assert calls == expected
    assert library_calls == []


# ||A||_1 = 2 at h = 0.05: the block rule re-anchors every 40 steps
_ROTATE = np.array([[0.5, 1.0, 0.0], [-1.0, 0.5, 0.0], [0.0, 0.0, -2.0]])


@pytest.mark.parametrize(
    "q, message",
    [
        (np.eye(3, 2), r"non-finite frame flow at t=5\.2$"),
        (np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]), r"rank collapse at t=0\.0:"),
    ],
    ids=["nan-in-third-block", "collapse-then-nan"],
)
def test_frame_flow_error_order_across_blocks(monkeypatch, q, message):
    # the midpoint matrix of step 104, partway through the chunk's third
    # block, is NaN, and the frame stays NaN from there on (a NaN at a grid
    # time would make the block rule keep the whole chunk).  The first
    # failing block raises, as block by block, so a frame whose columns
    # start dependent raises its collapse at step 0 and not the NaN.  The
    # block ends are factored up to the NaN one and the batch stops before
    # its block, so no QR sees NaN
    cfg = StepConfig(h=0.05, t0=0.0, t_end=10.0)
    # the midpoint time of step 104, with the bits both flows compute
    t_nan = cfg.time(104) + 0.5 * cfg.h

    def poisoned(times):
        a = np.repeat(_ROTATE[None], len(times), axis=0)
        a[times == t_nan] = np.nan
        return a

    with pytest.raises(NumericalError, match=message):
        list(blocked_flow(poisoned, q, cfg))
    calls, library_calls = _record_qr(monkeypatch)
    with pytest.raises(NumericalError, match=message):
        list(frame_flow(poisoned, q, cfg))
    assert calls == [((3, 2), True), ((3, 2), True), ((80, 3, 2), True)]
    assert library_calls == []


def test_frame_flow_names_time_of_non_finite_stage():
    # A turns non-finite past t = 1.26, so the first stage matrix it
    # spoils is the midpoint of the step from t = 1.25
    def a(t):
        return np.full((2, 2), np.nan) if t > 1.26 else np.array([[0.0, 1.0], [-1.0, 0.0]])

    cfg = StepConfig(h=0.125, t0=0.0, t_end=2.0)
    with pytest.raises(NumericalError, match=r"non-finite frame flow at t=1\.25$"):
        list(frame_flow(as_sampler(a), np.eye(2, 1), cfg))


def test_frame_flow_reports_rank_collapse_with_step_time():
    # with A = 0 the frame does not move, so dependent columns stay dependent
    cfg = StepConfig(h=0.125, t0=0.25, t_end=1.0)
    q = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(NumericalError, match=r"rank collapse at t=0\.25:"):
        list(frame_flow(as_sampler(lambda t: np.zeros((3, 3))), q, cfg))


@pytest.mark.parametrize(
    "n, cfg",
    [(3, StepConfig(h=0.05, t0=0.5, t_end=2.0)), (2, StepConfig(h=0.01, t0=0.0, t_end=50.0))],
    ids=["one-chunk", "multi-chunk"],
)
def test_frame_flow_yields_each_grid_point_once(n, cfg):
    # disjoint slices in order over 0..N, A sampled at exactly those times
    a = as_matrix_expr([[f"sin({i + 1}*t) + {j}" for j in range(n)] for i in range(n)])
    a = a.bind()
    chunks = list(frame_flow(a, np.eye(n, 1), cfg))
    assert len(chunks) == (1 if n == 3 else 3)
    points = np.concatenate([np.arange(cfg.n_steps + 1)[index] for index, *_ in chunks])
    assert np.array_equal(points, np.arange(cfg.n_steps + 1))
    assert sum(len(log_r) for *_, log_r in chunks) == cfg.n_steps
    for index, grid, frames, log_r in chunks:
        assert index.step is None
        assert np.array_equal(grid, a(cfg.grid()[index]))
        assert len(frames) == len(grid)


@pytest.mark.parametrize(
    "a, shape", [(np.ones((3, 2)), r"\(3, 2\)"), (np.eye(2), r"\(2, 2\)")], ids=["3x2", "2x2"]
)
def test_frame_flow_refuses_a_matrix_of_the_wrong_shape(a, shape):
    # A must be n x n for the n rows of the frame
    cfg = StepConfig(h=0.1, t0=0.0, t_end=1.0)
    with pytest.raises(ValueError, match=rf"system matrix must be 3x3, got {shape}"):
        list(frame_flow(as_sampler(lambda t: a), np.eye(3, 1), cfg))


@pytest.mark.parametrize("name", ["bench8", "gate1"])
def test_log_r_exponents_agree_with_diagonal_averages(scenarios, name):
    # Sum log diag R / T and the averaged diag(Q^T A Q) estimate the same
    # exponents; they part only by the integration error of each route
    if name == "bench8":
        scen, cfg = scenarios["bench8"]
        ests = [estimate_spectrum(scen.sys.a, 3, cfg)]
    else:
        cfg = StepConfig(h=0.05, t0=0.0, t_end=100.0)
        ests = [
            estimate_spectrum(lambda t, a=a: a, k=len(a), cfg=cfg) for a in _gate1_systems()
        ]
    for est in ests:
        assert np.max(np.abs(est.exponents_log_r - est.exponents_by_direction)) <= 1e-5
