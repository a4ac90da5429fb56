"""Tangent-space observer: gain, frame track, detectability diagnostics.

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
detectability report, the error-system rank test in
:mod:`ltvobs.strong_obs` and the pipeline runs in :mod:`ltvobs.cascade`
all read that one track.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StepPreconditionError
from .integrators import StepConfig, frame_flow, rk4_propagators
from .linalg import householder_qr, mgs_qr_stack, require_finite
from .lyapunov import NONSTABLE_BAND, frame_diagnostics, running_average, start_frame
from .system import LtvSystem

__all__ = [
    "ObserverConfig",
    "FrameTrack",
    "frame_track",
    "gain_stack",
    "stage_gains",
    "DirectionDetectability",
    "DetectabilityReport",
    "detectability_report",
    "min_gain_suggestion",
    "max_rk4_gain",
]

# the smallest average Rt diagonal (1/s) that counts as detectable
DETECT_TOL = 1e-3
# RK4 is stable on the negative real axis down to h lambda = -2.785
# (Hairer & Wanner, Solving ODEs II, IV.2)
RK4_REAL_LIMIT = 2.785


@dataclass(frozen=True)
class ObserverConfig:
    """Gain scalar ``p``, frame width ``k``, the integration grid and the start frame."""

    p: float
    k: int
    step: StepConfig
    q0: np.ndarray | None = None

    def __post_init__(self):
        if not (self.p > 0.0 and np.isfinite(self.p)):
            raise ValueError(f"gain p must be positive, got {self.p}")
        if self.k < 1:
            raise ValueError(f"frame width k must be >= 1, got {self.k}")

    def initial_frame(self, n):
        if self.k > n:
            raise ValueError(f"k={self.k} exceeds state dimension {n}")
        return start_frame(n, self.k, self.q0)


def _gain_basis_stack(c_val, q, t):
    """Gain bases Qt of C^T C Q for stacks ``c_val (T, r, n)``, ``q (T, n, k)`` at times ``t``.

    Returns Qt (T, n, k) and Rt (T, k, k), diag(Rt) >= 0.  A numerically
    dependent column of C^T C Q gets Rt_jj = 0 (:func:`mgs_qr_stack`
    refactors its matrix by :func:`~ltvobs.linalg.mgs_qr`), and its Qt
    column is zeroed, so the completion never leaks into the gain.  A
    C^T C Q that overflows raises :class:`NumericalError` naming its time.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ctcq = np.swapaxes(c_val, 1, 2) @ (c_val @ q)
    qt, rt = mgs_qr_stack(require_finite(ctcq, t, "C^T C Q"))
    rdiag = np.diagonal(rt, axis1=1, axis2=2)
    return qt * (rdiag > 0.0)[:, None, :], rt


def _gain_from_basis(c_val, q, qt, p):
    """Gains L = p Q Qt^T C^T (T, n, r) from the gain basis ``qt`` of ``q``."""
    return p * (q @ (np.swapaxes(qt, 1, 2) @ np.swapaxes(c_val, 1, 2)))


def gain_stack(c_val, q, p, t):
    """Gains L = p Q Qt^T C^T (T, n, r) for stacks of C and frames at times ``t`` (T,)."""
    return _gain_from_basis(c_val, q, _gain_basis_stack(c_val, q, t)[0], p)


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
    output (its average Rt diagonal stays under ``DETECT_TOL``); no gain
    scalar can then push that error exponent negative.
    ``min_ctcq_sigma`` is the smallest singular value of C^T C Q seen on
    the horizon; a near-zero dip flags possible gain non-smoothness.
    """

    directions: list
    ok: bool
    min_ctcq_sigma: float
    history_t: np.ndarray = field(repr=False)
    history_lambda: np.ndarray = field(repr=False)
    history_rbar: np.ndarray = field(repr=False)

    @property
    def failed_directions(self):
        return [d for d in self.directions if d.nonstable and not d.detectable]


@dataclass
class FrameTrack:
    """The reduced frame flow on the step grid, with its diagnostics.

    ``frames[i]`` is the frame at ``t[i]``; ``b_diag[i]`` and ``r_diag[i]``
    are diag(Q^T A Q) and diag(Rt) of C^T C Q there, and ``gain_basis[i]``
    the Qt (n, k) of that factorization with degenerate columns zeroed.
    No gain scalar enters Qt, so :meth:`gains` forms L = p Q Qt^T C^T from
    it for any p.  ``min_ctcq_sigma`` is the smallest singular value of
    C^T C Q on the grid, read off the k-by-k Rt (a near-zero dip flags
    possible gain non-smoothness), and ``max_orth_defect`` the worst
    ``||Q^T Q - I||_F``.
    """

    t: np.ndarray = field(repr=False)
    frames: np.ndarray = field(repr=False)
    b_diag: np.ndarray = field(repr=False)
    r_diag: np.ndarray = field(repr=False)
    gain_basis: np.ndarray = field(repr=False)
    min_ctcq_sigma: float
    max_orth_defect: float

    def gains(self, c_val, p, index):
        """Gains L (T, n, r) at the grid points ``index``, with ``c_val`` C there."""
        return _gain_from_basis(c_val, self.frames[index], self.gain_basis[index], p)


def frame_track(sys: LtvSystem, conf: ObserverConfig):
    """Step the frame over the grid of ``conf``.

    The frame runs through :func:`ltvobs.integrators.frame_flow`, which
    samples A per chunk; each chunk's grid frames and their diagnostics are
    stored at the grid points the chunk yields.
    """
    c_fn = sys.c.bind()
    cfg = conf.step
    n, k = sys.n, conf.k
    t = cfg.grid()
    frames, gain_basis = np.empty((2, t.size, n, k))
    b_diag, r_diag = np.empty((2, t.size, k))
    sigma, defect = np.empty((2, t.size))
    for s, grid, chunk, _ in frame_flow(sys.a.bind(), conf.initial_frame(n), cfg):
        frames[s] = chunk
        b_diag[s], defect[s] = frame_diagnostics(chunk, grid)
        # C^T C Q = Qt Rt with orthonormal Qt: both have the singular values of Rt
        gain_basis[s], rt = _gain_basis_stack(c_fn(t[s]), chunk, t[s])
        r_diag[s] = np.diagonal(rt, axis1=1, axis2=2)
        sigma[s] = np.linalg.svd(rt, compute_uv=False)[:, -1]
    return FrameTrack(
        t=t,
        frames=frames,
        b_diag=b_diag,
        r_diag=r_diag,
        gain_basis=gain_basis,
        min_ctcq_sigma=float(sigma.min()),
        max_orth_defect=float(defect.max()),
    )


def stage_gains(sys: LtvSystem, conf: ObserverConfig, track, lo, hi):
    """A, C and the gain L that the RK4 stages of grid steps ``lo .. hi - 1`` read.

    RK4 reads them at t, t + h/2 twice and t + h, so each step needs its
    grid values and one midpoint value.  The grid gains come from the
    track's grid frames and gain bases (:meth:`FrameTrack.gains`).  The
    midpoint frame is one discrete QR step of half a step from the grid
    frame Q(t), as :func:`frame_flow` takes its steps: the Householder QR
    of Phi_half Q(t) with diag R >= 0, where Phi_half is the RK4
    propagator of dx/dt = A x over [t, t + h/2] from A(t), A(t + h/4) and
    A(t + h/2).  Every frame a gain is formed from is therefore
    orthonormal.  Returns ``(grid, mid)``: ``grid`` holds A, C
    and L at grid points ``lo .. hi`` (T + 1, ...), ``mid`` at the T
    midpoints.
    """
    h = conf.step.h
    t_g = track.t[lo : hi + 1]
    t_m = t_g[:-1] + 0.5 * h
    a_fn, c_fn = sys.a.bind(), sys.c.bind()
    a_g, a_m = a_fn(t_g), a_fn(t_m)
    c_g, c_m = c_fn(t_g), c_fn(t_m)
    phi = rk4_propagators((a_g[:-1], a_fn(t_g[:-1] + 0.25 * h), a_m), 0.5 * h)
    q_m, _ = householder_qr(phi @ track.frames[lo:hi])
    l_g = track.gains(c_g, conf.p, slice(lo, hi + 1))
    return (a_g, c_g, l_g), (a_m, c_m, gain_stack(c_m, q_m, conf.p, t_m))


def detectability_report(conf: ObserverConfig, track: FrameTrack):
    """Average diag(Rt) and diag(B) per direction along the frame flow.

    Exponent averages come from the same pass, so the non-stable
    classification and the detectability verdict refer to one frame
    trajectory.  ``track`` is the :func:`frame_track` of ``conf``'s frame
    and grid; the gain scalar enters only the predicted exponents, so one
    track serves every ``p``.
    """
    cfg = conf.step
    n_steps = cfg.n_steps
    if track.t.size != n_steps + 1:
        raise ValueError(f"frame track has {track.t.size - 1} steps, the grid {n_steps}")
    b_avg = running_average(track.b_diag, cfg)
    r_avg = running_average(track.r_diag, cfg)

    directions = []
    for j, (lam, rbar) in enumerate(zip(b_avg.mean, r_avg.mean)):
        directions.append(
            DirectionDetectability(
                index=j,
                lambda_hat=float(lam),
                r_bar=float(rbar),
                detectable=bool(rbar > DETECT_TOL),
                mu_hat=float(lam - conf.p * rbar),
                nonstable=bool(lam >= -NONSTABLE_BAND),
            )
        )
    return DetectabilityReport(
        directions=directions,
        ok=not any(d.nonstable and not d.detectable for d in directions),
        min_ctcq_sigma=track.min_ctcq_sigma,
        history_t=b_avg.t,
        history_lambda=b_avg.history,
        history_rbar=r_avg.history,
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


def max_rk4_gain(track: FrameTrack, h):
    """Largest gain scalar whose error modes an RK4 step of size ``h`` keeps.

    In frame coordinates Q^T L C Q = p Rt, so the error's fast modes sit
    near -p diag Rt(t), and an RK4 step takes them at h p diag Rt.  RK4 is
    stable on the negative real axis down to h lambda = -RK4_REAL_LIMIT, so
    the gain may reach ``RK4_REAL_LIMIT / (h max diag Rt)`` over the track.
    Returns None when that bound is not finite (max diag Rt is 0): no gain
    reaches the limit.
    """
    scale = h * float(track.r_diag.max())
    if not scale > 0.0:
        return None
    p_max = RK4_REAL_LIMIT / scale
    return p_max if math.isfinite(p_max) else None
