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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .integrators import frame_flow
from .linalg import mgs_qr
from .system import as_sampler

__all__ = [
    "start_frame",
    "history_index",
    "RunningAverage",
    "running_average",
    "frame_diagnostics",
    "SpectrumEstimate",
    "estimate_spectrum",
    "nonstable_dimension",
    "DirectionRegularity",
    "RegularityReport",
    "tail_mass",
    "regularity_report",
]

# exponents at or above -NONSTABLE_BAND count as non-stable: an exponent
# that is zero up to estimation error is treated as non-negative by every
# design step
NONSTABLE_BAND = 1e-3
# regularity diagnostics: the shift of the integral test (1/s), the window
# of the running-average spread test as a fraction of the horizon, and the
# allowed tail mass of the shifted diagonal over the last half horizon
REGULARITY_SHIFT = 1e-2
REGULARITY_WINDOW = 0.1
TAIL_MASS_TOL = 0.05


def start_frame(n, k, q0=None):
    """Starting frame of a width-k flow: ``q0`` orthonormalized.

    ``q0`` must be finite and n-by-k with independent columns; without it
    the frame is the first k columns of the identity.
    """
    if q0 is None:
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        return np.eye(n, k)
    q0 = np.asarray(q0, dtype=float)
    if q0.shape != (n, k):
        raise ValueError(f"q0 must have shape ({n}, {k}), got {q0.shape}")
    if not np.isfinite(q0).all():
        raise ValueError("q0 has non-finite entries")
    q, r = mgs_qr(q0)
    if np.any(np.diag(r) <= 0.0):
        raise ValueError("q0 columns are linearly dependent")
    return q


def history_index(cfg):
    """Grid indices of a run's recorded history: every stride-th step and the last.

    The stride keeps a few thousand samples per run.  Index 0, where no
    running average exists yet, is not among them.
    """
    n_steps = cfg.n_steps
    stride = max(1, n_steps // 4000)
    index = np.arange(stride, n_steps + 1, stride)
    if index[-1] != n_steps:
        index = np.append(index, n_steps)
    return index


class RunningAverage(NamedTuple):
    """Output of :func:`running_average`."""

    integral: np.ndarray
    mean: np.ndarray
    index: np.ndarray
    t: np.ndarray
    history: np.ndarray


def running_average(series, cfg):
    """Trapezoid time averages of a grid series ``(N + 1, k)`` on the grid of ``cfg``.

    Returns the integrals over the horizon, the averages ``integral /
    horizon``, and the running averages over ``[t0, t]`` at the times
    ``t`` of the grid points :func:`history_index` picks.  The steps are
    summed in sequence by one cumsum, so a stream of per-chunk partial sums
    chained the same way gives the same bits.
    """
    steps = (0.5 * cfg.h) * (series[:-1] + series[1:])
    start = np.zeros((1,) + steps.shape[1:])
    running = np.cumsum(np.concatenate([start, steps]), axis=0)
    integral = running[-1].copy()
    index = history_index(cfg)
    t = cfg.time(index)
    return RunningAverage(
        integral=integral,
        mean=integral / cfg.horizon,
        index=index,
        t=t,
        history=running[index] / (t - cfg.t0)[:, None],
    )


def frame_diagnostics(frames, m):
    """diag(Q^T M Q) (T, k) and ``||Q^T Q - I||_F`` (T,) of frames (T, n, k).

    ``m`` (T, n, n) holds the matrix at each frame's grid point.
    """
    b = np.einsum("tij,tij->tj", frames, m @ frames)
    gram = frames.mT @ frames - np.eye(frames.shape[-1])
    return b, np.sqrt((gram * gram).sum(axis=(1, 2)))


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

    def __post_init__(self):
        if np.any(np.diff(self.exponents) > 0):
            raise ValueError("exponents must be sorted non-increasing")
        if np.any(np.diff(self.history_t) <= 0):
            raise ValueError("history timestamps must increase strictly")


def estimate_spectrum(a, k, cfg):
    """Approximate the k leading Lyapunov exponents of ``dx/dt = A(t) x``.

    Parameters
    ----------
    a : MatrixExpr or callable
        System matrix, ``t -> (n, n)``.
    k : int
        Number of exponents (frame width), ``1 <= k <= n``.
    cfg : StepConfig
        Integration grid; the exponents are finite-horizon averages over
        ``[t0, t_end]``.  The frame starts from the first k identity
        columns.

    Returns
    -------
    SpectrumEstimate
    """
    a = as_sampler(a)
    n = a(np.array([cfg.t0])).shape[-1]
    diag = np.empty((cfg.n_steps + 1, k))
    log_growth = np.zeros(k)
    max_defect = 0.0
    for index, grid, frames, log_r in frame_flow(a, start_frame(n, k), cfg):
        log_growth += log_r.sum(axis=0)
        diag[index], defect = frame_diagnostics(frames, grid)
        max_defect = max(max_defect, float(defect.max()))

    avg = running_average(diag, cfg)
    return SpectrumEstimate(
        exponents=np.sort(avg.mean)[::-1],
        exponents_by_direction=avg.mean,
        exponents_log_r=log_growth / cfg.horizon,
        integrals=avg.integral,
        q_final=frames[-1],
        history_t=avg.t,
        history_lambda=avg.history,
        history_b=diag[avg.index],
        max_orth_defect=max_defect,
    )


def nonstable_dimension(estimate):
    """Number of exponents that are not safely negative.

    Counts ``lambda_hat >= -NONSTABLE_BAND`` so exponents that are zero up
    to estimation error land in the non-stable set.
    """
    return int(np.count_nonzero(estimate.exponents >= -NONSTABLE_BAND))


@dataclass
class DirectionRegularity:
    """Regularity diagnostics for one frame direction."""

    lambda_hat: float
    forward_regular: bool
    tail_mass: float
    strong_regular: bool
    branch: str  # "stable" or "nonstable": which epsilon shift was tested


@dataclass
class RegularityReport:
    directions: list

    @property
    def forward_regular(self):
        return all(d.forward_regular for d in self.directions)

    @property
    def strong_regular(self):
        return all(d.strong_regular for d in self.directions)


def tail_mass(t, y):
    """Trapezoid integral of ``y`` over the last half horizon: the tail test's mass."""
    tail = t >= t[0] + 0.5 * (t[-1] - t[0]) - 1e-12
    return float(np.trapezoid(y[tail], t[tail]))


def regularity_report(t, b):
    """Judge forward and strong forward regularity from a diagonal series.

    Parameters
    ----------
    t : ndarray, shape (N,)
        Sample times, strictly increasing.
    b : ndarray, shape (N,) or (N, k)
        Sampled ``B_ii`` series, one column per direction.

    Notes
    -----
    Forward regularity is proxied by the spread of window means of the
    running average over the last half of the horizon: windows of
    ``REGULARITY_WINDOW`` times the horizon, and a spread of at most
    ``10 * NONSTABLE_BAND``.  The strong verdict tests quasi-integrability
    only: the :func:`tail_mass` of ``max(B_ii + eps, 0)`` for a stable
    direction and of ``max(eps - B_ii, 0)`` for a non-stable one, with
    ``eps = REGULARITY_SHIFT``, must stay at or under ``TAIL_MASS_TOL``.
    On short horizons a direction can pass the integral test while its
    running average still drifts, so the two verdicts are reported
    independently.
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
    t_run = t[1:]

    directions = []
    for i in range(b.shape[1]):
        bi = b[:, i]
        cum = np.cumsum(0.5 * np.diff(t) * (bi[1:] + bi[:-1]))
        lam_hat = cum[-1] / span
        running = cum / (t_run - t[0])
        # running-average means over the windows of the last half horizon
        means = []
        edge = t[0] + 0.5 * span
        while edge < t[-1] - 1e-12:
            hi = min(edge + REGULARITY_WINDOW * span, t[-1])
            mask = (t_run >= edge - 1e-12) & (t_run <= hi + 1e-12)
            if np.count_nonzero(mask) >= 2:
                tw = t_run[mask]
                means.append(np.trapezoid(running[mask], tw) / (tw[-1] - tw[0]))
            edge = hi
        means = means or [running[-1]]
        stable = lam_hat < 0.0
        shifted = bi + REGULARITY_SHIFT if stable else REGULARITY_SHIFT - bi
        mass = tail_mass(t, np.maximum(shifted, 0.0))
        directions.append(
            DirectionRegularity(
                lambda_hat=float(lam_hat),
                forward_regular=bool(max(means) - min(means) <= 10.0 * NONSTABLE_BAND),
                tail_mass=mass,
                strong_regular=bool(mass <= TAIL_MASS_TOL),
                branch="stable" if stable else "nonstable",
            )
        )
    return RegularityReport(directions=directions)
