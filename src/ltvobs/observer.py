"""Tangent-space observer: gain, coupled stepping, detectability diagnostics.

The observer

    dx~/dt = A(t) x~ + F(t) u + L(t) (y - C(t) x~)

corrects only inside the non-stable subspace tracked by the reduced
orthonormal frame Q(t): the gain is L = p Q Qt^T C^T where Qt, Rt is the
QR factorization of C^T C Q.  The running average of diag(Rt) along the
flow decides, direction by direction, whether the output actually sees
the frame column (directional detectability), and the predicted error
exponent of direction j is lambda_j - p * rbar_j.

Since the gain depends only on C(t) and the frame, never on the estimate,
the frame flow runs once per configuration: :func:`frame_track` steps it
over the grid and keeps the grid frames with their diagnostics, and the
detectability report, the gain snapshots and the pipeline runs in
:mod:`ltvobs.cascade` all read that one track.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import StepPreconditionError
from .integrators import StepConfig, frame_flow, joint_rk4_step, system_stages
from .linalg import mgs_qr, mgs_qr_stack
from .lyapunov import default_frame, skew_rule
from .system import LtvSystem

__all__ = [
    "ObserverConfig",
    "ObserverState",
    "compute_gain",
    "observer_step",
    "FrameTrack",
    "frame_track",
    "gain_stack",
    "DirectionDetectability",
    "DetectabilityReport",
    "detectability_report",
    "min_gain_suggestion",
    "gain_snapshots",
]


@dataclass(frozen=True)
class ObserverConfig:
    """Gain scalar ``p``, frame width ``k``, and the integration grid.

    ``detect_tol`` (1/s) is the smallest average Rt diagonal that counts
    as detectable; ``zero_band`` is the exponent band treated as
    non-negative.  Both are shared with the spectrum diagnostics so the
    design steps agree on which directions are non-stable.
    """

    p: float
    k: int
    step: StepConfig
    q0: np.ndarray | None = None
    detect_tol: float = 1e-3
    zero_band: float = 1e-3

    def __post_init__(self):
        if not (self.p > 0.0 and np.isfinite(self.p)):
            raise ValueError(f"gain p must be positive, got {self.p}")
        if self.k < 1:
            raise ValueError(f"frame width k must be >= 1, got {self.k}")

    def initial_frame(self, n):
        if self.k > n:
            raise ValueError(f"k={self.k} exceeds state dimension {n}")
        if self.q0 is None:
            return default_frame(n, self.k)
        q0 = np.asarray(self.q0, dtype=float)
        if q0.shape != (n, self.k):
            raise ValueError(f"q0 must have shape ({n}, {self.k}), got {q0.shape}")
        q, r = mgs_qr(q0)
        if np.any(np.diag(r) <= 0.0):
            raise ValueError("q0 columns are linearly dependent")
        return q


@dataclass
class ObserverState:
    """Estimate, reduced frame, and current time of one observer run."""

    x: np.ndarray
    q: np.ndarray
    t: float


def _gain_basis(c_val, q):
    """Qt with degenerate columns zeroed, plus diag(Rt) >= 0.

    Columns of C^T C Q that are numerically dependent get Rt_jj = 0 from
    the QR routine; their completion columns must not leak into the gain,
    so they are zeroed here and the matching frame direction is left
    uncorrected.
    """
    qt, rt = mgs_qr(c_val.T @ (c_val @ q))
    rdiag = np.diag(rt).copy()
    if np.any(rdiag == 0.0):
        qt = qt * (rdiag > 0.0)
    return qt, rdiag


def _gain_basis_stack(c_val, q):
    """:func:`_gain_basis` for stacks ``c_val (T, r, n)``, ``q (T, n, k)``.

    Returns Qt (T, n, k), diag(Rt) (T, k) and C^T C Q (T, n, k).
    :func:`mgs_qr_stack` refactors every matrix with a dependent column by
    :func:`mgs_qr`, whose zero pivots then zero the matching Qt column.
    """
    ctcq = np.swapaxes(c_val, 1, 2) @ (c_val @ q)
    qt, rt = mgs_qr_stack(ctcq)
    rdiag = np.diagonal(rt, axis1=1, axis2=2).copy()
    return qt * (rdiag > 0.0)[:, None, :], rdiag, ctcq


def gain_stack(c_val, q, p):
    """Gains L = p Q Qt^T C^T (T, n, r) for stacks of C and frames."""
    qt, _, _ = _gain_basis_stack(c_val, q)
    return p * (q @ (np.swapaxes(qt, 1, 2) @ np.swapaxes(c_val, 1, 2)))


def compute_gain(a_val, c_val, q, p):
    """Observer gain L = p Q Qt^T C^T and the Rt diagonal.

    ``a_val`` is accepted so callers can hand over the full stage
    evaluation, but the gain depends only on C and the frame.
    """
    qt, rdiag = _gain_basis(np.asarray(c_val, dtype=float), q)
    l = p * q @ (qt.T @ c_val.T)
    return l, rdiag


def _as_signal(v, width):
    """Normalize a signal argument to a callable t -> (width,) vector."""
    if v is None:
        zero = np.zeros(width)
        return lambda t: zero
    if callable(v):
        return lambda t: np.atleast_1d(np.asarray(v(t), dtype=float))
    value = np.atleast_1d(np.asarray(v, dtype=float))
    return lambda t: value


def observer_step(sys: LtvSystem, st: ObserverState, u, y, conf: ObserverConfig):
    """Advance estimate and frame by one step of size ``conf.step.h``.

    ``u`` and ``y`` may be constants (held over the step) or callables of
    time; the gain is recomputed inside every RK4 stage from that stage's
    frame, and the frame is re-orthonormalized after the step.
    """
    a_fn, c_fn, f_fn = sys.a.bind(), sys.c.bind(), sys.f.bind()
    u_fn = _as_signal(u, sys.q)
    y_fn = _as_signal(y, sys.r)
    p = conf.p
    h = conf.step.h

    def rhs(t, states):
        x, q = states
        a_val = a_fn(t)
        c_val = c_fn(t)
        qt, _ = _gain_basis(c_val, q)
        corr = p * (q @ (qt.T @ (c_val.T @ (y_fn(t) - c_val @ x))))
        dx = a_val @ x + f_fn(t) @ u_fn(t) + corr
        m = a_val @ q
        w = q.T @ m
        dq = m - q @ (w - skew_rule(w))
        return [dx, dq]

    x_new, q_new = joint_rk4_step(rhs, st.t, [st.x, st.q], h, project=(1,))
    return ObserverState(x=x_new, q=q_new, t=st.t + h)


@dataclass
class DirectionDetectability:
    """Verdict for one frame direction."""

    index: int
    lambda_hat: float
    r_bar: float
    detectable: bool
    mu_hat: float
    nonstable: bool


@dataclass
class DetectabilityReport:
    """Directional detectability along the frame flow.

    ``ok`` is False when some non-stable direction is invisible to the
    output (its average Rt diagonal stays under ``detect_tol``); no gain
    scalar can then push that error exponent negative.
    ``min_ctcq_sigma`` is the smallest singular value of C^T C Q seen on
    the horizon; a near-zero dip flags possible gain non-smoothness.
    """

    directions: list
    ok: bool
    p: float
    detect_tol: float
    zero_band: float
    min_ctcq_sigma: float
    q_final: np.ndarray = field(repr=False)
    history_t: np.ndarray = field(repr=False)
    history_lambda: np.ndarray = field(repr=False)
    history_rbar: np.ndarray = field(repr=False)
    config: StepConfig = field(repr=False)

    @property
    def failed_directions(self):
        return [d for d in self.directions if d.nonstable and not d.detectable]


@dataclass
class FrameTrack:
    """The reduced frame flow on the step grid, with its diagnostics.

    ``frames[i]`` is the frame at ``t[i]``; ``b_diag[i]`` and ``r_diag[i]``
    are diag(Q^T A Q) and diag(Rt) of C^T C Q there.  ``min_ctcq_sigma``
    is the smallest singular value of C^T C Q on the grid (a near-zero dip
    flags possible gain non-smoothness) and ``max_orth_defect`` the worst
    ``||Q^T Q - I||_F``.
    """

    t: np.ndarray = field(repr=False)
    frames: np.ndarray = field(repr=False)
    b_diag: np.ndarray = field(repr=False)
    r_diag: np.ndarray = field(repr=False)
    min_ctcq_sigma: float
    max_orth_defect: float


def frame_track(sys: LtvSystem, conf: ObserverConfig, n_steps=None):
    """Step the frame over the first ``n_steps`` grid steps (default all).

    The frame runs through :func:`ltvobs.integrators.frame_flow` with the
    stage matrices from a grid evaluation of each chunk; the diagnostics
    are computed per chunk on the stacked grid frames.
    """
    c_grid = sys.c.bind_grid()
    cfg = conf.step
    n, k = sys.n, conf.k
    n_steps = cfg.n_steps if n_steps is None else n_steps
    t = cfg.t0 + cfg.h * np.arange(n_steps + 1)
    frames = np.empty((n_steps + 1, n, k))
    b_diag = np.empty((n_steps + 1, k))
    r_diag = np.empty((n_steps + 1, k))
    sigma = np.empty(n_steps + 1)
    defect = np.empty(n_steps + 1)
    eye_k = np.eye(k)

    def diagnose(lo, hi, a_val):
        q = frames[lo:hi]
        b_diag[lo:hi] = np.einsum("tij,tij->tj", q, a_val @ q)
        _, r_diag[lo:hi], ctcq = _gain_basis_stack(c_grid(t[lo:hi]), q)
        sigma[lo:hi] = np.linalg.svd(ctcq, compute_uv=False)[:, -1]
        gram = q.mT @ q - eye_k
        defect[lo:hi] = np.sqrt((gram * gram).sum(axis=(1, 2)))

    _, stages = system_stages(sys.a, cfg)
    frames[0] = conf.initial_frame(n)
    diagnose(0, 1, sys.a.bind_grid()(t[:1]))
    for lo, hi, grid, chunk in frame_flow(stages, frames[0], cfg, n_steps):
        frames[lo + 1 : hi + 1] = chunk[1:]
        diagnose(lo + 1, hi + 1, grid[1:])
    return FrameTrack(
        t=t,
        frames=frames,
        b_diag=b_diag,
        r_diag=r_diag,
        min_ctcq_sigma=float(sigma.min()),
        max_orth_defect=float(defect.max()),
    )


def _trapezoid_running(values, h):
    """Running trapezoid integrals of a grid series, summed step by step."""
    steps = (0.5 * h) * (values[:-1] + values[1:])
    start = np.zeros((1,) + values.shape[1:])
    return np.cumsum(np.concatenate([start, steps]), axis=0)


def detectability_report(
    sys: LtvSystem, conf: ObserverConfig, sample_stride=None, track=None
):
    """Average diag(Rt) and diag(B) per direction along the frame flow.

    Exponent averages come from the same pass, so the non-stable
    classification and the detectability verdict refer to one frame
    trajectory.  ``track`` is the :func:`frame_track` of ``conf``'s frame
    and grid; the gain scalar enters only the predicted exponents, so one
    track serves every ``p``.  It is computed here when not given.
    """
    if track is None:
        track = frame_track(sys, conf)
    cfg = conf.step
    h = cfg.h
    n_steps = cfg.n_steps
    if track.t.size != n_steps + 1:
        raise ValueError(f"frame track has {track.t.size - 1} steps, the grid {n_steps}")
    stride = sample_stride or max(1, n_steps // 4000)
    b_int = _trapezoid_running(track.b_diag, h)
    rd_int = _trapezoid_running(track.r_diag, h)

    rec = np.arange(stride, n_steps + 1, stride)
    if rec.size == 0 or rec[-1] != n_steps:
        rec = np.append(rec, n_steps)
    elapsed = (cfg.t0 + rec * h) - cfg.t0

    lam = b_int[-1] / cfg.horizon
    rbar = rd_int[-1] / cfg.horizon
    directions = []
    ok = True
    for j in range(conf.k):
        nonstable = lam[j] >= -conf.zero_band
        detectable = rbar[j] > conf.detect_tol
        if nonstable and not detectable:
            ok = False
        directions.append(
            DirectionDetectability(
                index=j,
                lambda_hat=float(lam[j]),
                r_bar=float(rbar[j]),
                detectable=bool(detectable),
                mu_hat=float(lam[j] - conf.p * rbar[j]),
                nonstable=bool(nonstable),
            )
        )
    return DetectabilityReport(
        directions=directions,
        ok=ok,
        p=conf.p,
        detect_tol=conf.detect_tol,
        zero_band=conf.zero_band,
        min_ctcq_sigma=track.min_ctcq_sigma,
        q_final=track.frames[-1],
        history_t=track.t[rec],
        history_lambda=b_int[rec] / elapsed[:, None],
        history_rbar=rd_int[rec] / elapsed[:, None],
        config=cfg,
    )


def min_gain_suggestion(report: DetectabilityReport, margin=1.0):
    """Smallest gain scalar pushing every non-stable error exponent to -margin.

    The predicted exponent of direction j is lambda_j - p * rbar_j, so
    requiring it <= -margin needs p >= (lambda_j + margin) / rbar_j; the
    suggestion is the maximum over the non-stable directions.  Raises
    when a non-stable direction is not detectable (no finite p works).
    """
    if margin < 0.0:
        raise ValueError("margin must be >= 0")
    worst = 0.0
    for d in report.directions:
        if not d.nonstable:
            continue
        if not d.detectable:
            raise StepPreconditionError(
                "ii",
                f"direction {d.index} is non-stable (lambda={d.lambda_hat:.4g}) "
                f"but not detectable (rbar={d.r_bar:.4g})",
            )
        worst = max(worst, (d.lambda_hat + margin) / d.r_bar)
    return worst


def gain_snapshots(sys: LtvSystem, conf: ObserverConfig, times):
    """Gain matrices L(t) sampled along the frame flow.

    ``times`` must lie on the step grid (within rounding); returned list
    pairs each requested time with the gain computed from the live frame.
    """
    cfg = conf.step
    c_fn = sys.c.bind()
    wanted = {}
    for t in np.atleast_1d(np.asarray(times, dtype=float)):
        i = int(round((t - cfg.t0) / cfg.h))
        if not 0 <= i <= cfg.n_steps or abs(cfg.time(i) - t) > 1e-9:
            raise ValueError(f"snapshot time {t} is off the step grid")
        wanted.setdefault(i, t)

    track = frame_track(sys, conf, n_steps=max(wanted) if wanted else 0)
    index = np.array(sorted(wanted), dtype=int)
    frames = track.frames[index]
    gains = gain_stack(sys.c.bind_grid()(track.t[index]), frames, conf.p)
    return [(cfg.time(i), l, q) for i, l, q in zip(index.tolist(), gains, frames)]
