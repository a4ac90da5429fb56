"""Lyapunov-spectrum approximation by the QR flow.

An orthonormal n-by-k frame follows the QR flow of
:mod:`ltvobs.integrators`; the time averages of the diagonal entries
``B_ii = Q_i^T A Q_i`` converge to the k leading Lyapunov exponents for
almost every starting frame.  The summed log diagonals of the flow's R
factors estimate the same exponents by a second route.  Regularity of the
underlying system is judged from the diagonal series: forward regularity
from the spread of the running averages over the tail of the horizon, and
the stronger integral condition from the tail mass of the epsilon-shifted
diagonal.
"""

from dataclasses import dataclass, field

import numpy as np

from .integrators import StepConfig, frame_flow, history_stride, system_stages
from .linalg import mgs_qr

__all__ = [
    "default_frame",
    "start_frame",
    "SpectrumEstimate",
    "estimate_spectrum",
    "nonstable_dimension",
    "DirectionRegularity",
    "RegularityReport",
    "regularity_report",
]


def default_frame(n, k):
    """Default starting frame: the first k columns of the identity."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return np.eye(n, k)


def start_frame(n, k, q0=None):
    """Starting frame of a width-k flow: ``q0`` orthonormalized, or the default.

    ``q0`` must be n-by-k with independent columns.
    """
    if q0 is None:
        return default_frame(n, k)
    q0 = np.asarray(q0, dtype=float)
    if q0.shape != (n, k):
        raise ValueError(f"q0 must have shape ({n}, {k}), got {q0.shape}")
    q, r = mgs_qr(q0)
    if np.any(np.diag(r) <= 0.0):
        raise ValueError("q0 columns are linearly dependent")
    return q


@dataclass
class SpectrumEstimate:
    """Output of :func:`estimate_spectrum`.

    ``exponents`` is sorted non-increasing; ``exponents_by_direction``
    keeps the frame-column order used by the histories and by the
    detectability pairing.  ``exponents_log_r`` are the same directions'
    exponents from the summed ``log diag R`` of the flow's QR steps; they
    differ from the diag(Q^T A Q) averages only by the integration error,
    so their gap checks the propagators.
    """

    exponents: np.ndarray
    exponents_by_direction: np.ndarray
    exponents_log_r: np.ndarray
    integrals: np.ndarray
    q_final: np.ndarray
    history_t: np.ndarray
    history_lambda: np.ndarray
    history_b: np.ndarray
    max_orth_defect: float
    config: StepConfig = field(repr=False)

    def __post_init__(self):
        if np.any(np.diff(self.exponents) > 0):
            raise ValueError("exponents must be sorted non-increasing")
        if np.any(np.diff(self.history_t) <= 0):
            raise ValueError("history timestamps must increase strictly")

    @property
    def k(self):
        return self.exponents.shape[0]


def estimate_spectrum(a, k, cfg, q0=None):
    """Approximate the k leading Lyapunov exponents of ``dx/dt = A(t) x``.

    Parameters
    ----------
    a : MatrixExpr or callable
        System matrix, ``t -> (n, n)``.
    k : int
        Number of exponents (frame width), ``1 <= k <= n``.
    cfg : StepConfig
        Integration grid; the exponents are finite-horizon averages over
        ``[t0, t_end]``.
    q0 : ndarray, optional
        Starting frame; defaults to the first k identity columns.  A
        non-orthonormal frame is orthonormalized first.

    Returns
    -------
    SpectrumEstimate
    """
    n, stages = system_stages(a, cfg)
    q = start_frame(n, k, q0)

    h = cfg.h
    n_steps = cfg.n_steps
    stride = history_stride(n_steps)

    integrals = np.zeros(k)
    log_growth = np.zeros(k)
    eye_k = np.eye(k)
    max_defect = 0.0
    hist_t, hist_lam, hist_b = [], [], []

    for lo, hi, grid, frames, log_r in frame_flow(stages, q, cfg):
        log_growth += log_r.sum(axis=0)
        b = np.einsum("tij,tij->tj", frames, grid @ frames)
        steps = (0.5 * h) * (b[:-1] + b[1:])
        running = np.cumsum(np.concatenate([integrals[None], steps]), axis=0)[1:]
        integrals = running[-1]
        gram = frames[1:].mT @ frames[1:] - eye_k
        max_defect = max(max_defect, float(np.sqrt((gram * gram).sum(axis=(1, 2))).max()))
        index = np.arange(lo + 1, hi + 1)
        keep = (index % stride == 0) | (index == n_steps)
        t_keep = cfg.t0 + h * index[keep]
        hist_t.append(t_keep)
        hist_lam.append(running[keep] / (t_keep - cfg.t0)[:, None])
        hist_b.append(b[1:][keep])
    q = frames[-1]

    by_direction = integrals / cfg.horizon
    return SpectrumEstimate(
        exponents=np.sort(by_direction)[::-1],
        exponents_by_direction=by_direction,
        exponents_log_r=log_growth / cfg.horizon,
        integrals=integrals.copy(),
        q_final=q,
        history_t=np.concatenate(hist_t),
        history_lambda=np.concatenate(hist_lam),
        history_b=np.concatenate(hist_b),
        max_orth_defect=max_defect,
        config=cfg,
    )


def nonstable_dimension(estimate, zero_band=1e-3):
    """Number of exponents that are not safely negative.

    Counts ``lambda_hat >= -zero_band`` so exponents that are zero up to
    estimation error land in the non-stable set.
    """
    return int(np.count_nonzero(estimate.exponents >= -zero_band))


@dataclass
class DirectionRegularity:
    """Regularity diagnostics for one frame direction."""

    lambda_hat: float
    limsup_estimate: float
    liminf_estimate: float
    gap: float
    forward_regular: bool
    tail_mass: float
    strong_regular: bool
    branch: str  # "stable" or "nonstable": which epsilon shift was tested


@dataclass
class RegularityReport:
    directions: list
    epsilon: float
    window_fraction: float
    zero_band: float
    strong_tol: float

    @property
    def forward_regular(self):
        return all(d.forward_regular for d in self.directions)

    @property
    def strong_regular(self):
        return all(d.strong_regular for d in self.directions)


def _window_means(t, y, t_lo, t_hi, width):
    means = []
    edge = t_lo
    while edge < t_hi - 1e-12:
        hi = min(edge + width, t_hi)
        mask = (t >= edge - 1e-12) & (t <= hi + 1e-12)
        if np.count_nonzero(mask) >= 2:
            tw, yw = t[mask], y[mask]
            means.append(np.trapezoid(yw, tw) / (tw[-1] - tw[0]))
        edge = hi
    return means


def regularity_report(
    t,
    b,
    epsilon=1e-2,
    window_fraction=0.1,
    zero_band=1e-3,
    strong_tol=0.05,
):
    """Judge forward and strong forward regularity from a diagonal series.

    Parameters
    ----------
    t : ndarray, shape (N,)
        Sample times, strictly increasing.
    b : ndarray, shape (N,) or (N, k)
        Sampled ``B_ii`` series, one column per direction.
    epsilon : float
        Shift used in the integral (quasi-integrability) test, per second.
    window_fraction : float
        Window width as a fraction of the horizon for the running-average
        spread test.
    zero_band : float
        The spread verdict allows a gap up to ``10 * zero_band``.
    strong_tol : float
        Allowed tail mass of the shifted diagonal over the last half of
        the horizon.

    Notes
    -----
    Forward regularity is proxied by the spread of window means of the
    running average over the last half of the horizon.  The strong
    verdict tests quasi-integrability only: tail mass of
    ``max(B_ii + eps, 0)`` for a stable direction and of
    ``max(eps - B_ii, 0)`` for a non-stable one.  On short horizons a
    direction can pass the integral test while its running average still
    drifts, so the two verdicts are reported independently.
    """
    t = np.asarray(t, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    if t.ndim != 1 or b.shape[0] != t.shape[0]:
        raise ValueError("need matching t (N,) and b (N, k) series")
    if t.shape[0] < 8:
        raise ValueError("series too short for regularity diagnostics")
    span = t[-1] - t[0]
    t_mid = t[0] + 0.5 * span
    width = window_fraction * span
    tail = t >= t_mid - 1e-12

    directions = []
    for i in range(b.shape[1]):
        bi = b[:, i]
        cum = np.concatenate(
            ([0.0], np.cumsum(0.5 * np.diff(t) * (bi[1:] + bi[:-1])))
        )
        lam_hat = cum[-1] / span
        running = cum[1:] / (t[1:] - t[0])
        means = _window_means(t[1:], running, t_mid, t[-1], width)
        if not means:
            means = [running[-1]]
        limsup_est, liminf_est = max(means), min(means)
        gap = limsup_est - liminf_est
        forward = gap <= 10.0 * zero_band

        if lam_hat < 0.0:
            shifted = np.maximum(bi + epsilon, 0.0)
            branch = "stable"
        else:
            shifted = np.maximum(epsilon - bi, 0.0)
            branch = "nonstable"
        tail_mass = float(np.trapezoid(shifted[tail], t[tail]))
        directions.append(
            DirectionRegularity(
                lambda_hat=float(lam_hat),
                limsup_estimate=float(limsup_est),
                liminf_estimate=float(liminf_est),
                gap=float(gap),
                forward_regular=bool(forward),
                tail_mass=tail_mass,
                strong_regular=bool(tail_mass <= strong_tol),
                branch=branch,
            )
        )
    return RegularityReport(
        directions=directions,
        epsilon=epsilon,
        window_fraction=window_fraction,
        zero_band=zero_band,
        strong_tol=strong_tol,
    )
