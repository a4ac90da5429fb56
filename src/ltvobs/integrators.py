"""Fixed-step integrators: classic RK4 and the projected frame flow.

The frame step advances an orthonormal n-by-k matrix along

    dQ/dt = (I - Q Q^T) A(t) Q + Q S(Q^T A Q)

with the skew term S evaluated inside every RK4 stage from that stage's
frame, then snaps the result back onto the Stiefel manifold with one
Cholesky-QR retraction.  Projecting once per step (not per stage)
keeps the stage combination a genuine 4th-order rule while holding the
orthonormality defect at round-off.  ``projected_rk4_stages`` rebuilds the
unprojected stage frames of many such steps at once from their start
frames, for the callers that need the frame inside every stage.

Every QR flow in the package runs through :func:`frame_flow`: per chunk of
``CHUNK_STEPS`` steps it takes the stage matrices as one stack from a stage
source, steps the frame, and hands the chunk's grid frames back so the
caller records its diagnostics with batched numpy.  :func:`system_stages`
is the source of the flow under a system matrix A(t); a caller whose
stage matrices differ (the closed-loop error matrix, whose gain follows
the observer frame inside each stage) supplies its own.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .expr import MatrixExpr
from .linalg import cholesky_qr, mgs_qr

__all__ = [
    "StepConfig",
    "rk4_step",
    "skew_rule",
    "projected_rk4_step",
    "projected_rk4_stages",
    "system_stages",
    "frame_flow",
    "joint_rk4_step",
]

# steps per batch in the chunked grid loops: long enough to amortize the
# per-call overhead of numpy, short enough that no per-stage array spans
# the horizon
CHUNK_STEPS = 128


@dataclass(frozen=True)
class StepConfig:
    """Uniform time grid: step ``h`` over ``[t0, t_end]``."""

    h: float = 1e-3
    t0: float = 0.0
    t_end: float = 1.0

    def __post_init__(self):
        if not (self.h > 0.0 and np.isfinite(self.h)):
            raise ValueError(f"step size must be positive, got {self.h}")
        if not self.t_end > self.t0:
            raise ValueError(f"empty horizon [{self.t0}, {self.t_end}]")

    @property
    def n_steps(self):
        span = self.t_end - self.t0
        n = int(round(span / self.h))
        if abs(n * self.h - span) > 1e-9 * max(1.0, abs(span)):
            raise ValueError(f"horizon {span} is not a multiple of h={self.h}")
        return max(n, 1)

    @property
    def horizon(self):
        return self.t_end - self.t0

    def time(self, i):
        """i-th grid point, computed without accumulation drift."""
        return self.t0 + i * self.h

    def grid(self):
        return self.t0 + self.h * np.arange(self.n_steps + 1)


def rk4_step(f, t, x, h):
    """One classic Runge-Kutta-4 step of ``dx/dt = f(t, x)``.

    Raises :class:`NumericalError` if any stage produces a non-finite
    value.
    """
    k1 = np.asarray(f(t, x))
    k2 = np.asarray(f(t + 0.5 * h, x + 0.5 * h * k1))
    k3 = np.asarray(f(t + 0.5 * h, x + 0.5 * h * k2))
    k4 = np.asarray(f(t + h, x + h * k3))
    for i, k in enumerate((k1, k2, k3, k4)):
        if not np.all(np.isfinite(k)):
            raise NumericalError(f"non-finite RK4 stage {i + 1} at t={t}")
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@functools.lru_cache(maxsize=32)
def _strict_lower_mask(k):
    mask = np.tri(k, k, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


def skew_rule(w):
    """Skew stabilizer of the frame flow.

    Copies the strict lower triangle of ``W = Q^T A Q`` and mirrors it
    with opposite sign; the diagonal is zero.  ``w`` may be a stack
    ``(..., k, k)``.  The mask is cached per size; ``np.where`` with it
    gives bit for bit ``np.tril(w, -1)``.
    """
    lower = np.where(_strict_lower_mask(w.shape[-1]), w, 0.0)
    return lower - lower.mT


def projected_rk4_step(a, t, q, h, s_rule, a_stages=None):
    """Advance an orthonormal frame one step and re-orthonormalize.

    Parameters
    ----------
    a : callable
        ``t -> ndarray (n, n)`` system matrix.
    t, h : float
        Step start and size.
    q : ndarray, shape (n, k)
        Orthonormal frame.
    s_rule : callable
        Maps ``W = Q^T A Q`` to the skew stabilizer ``S``.
    a_stages : sequence, optional
        Precomputed ``(A(t), A(t+h/2), A(t+h))``, or four matrices
        ``(A1, A2, A3, A4)`` for the four RK4 stages when the matrix of the
        second and third stage differ, as in the closed-loop error flow
        whose gain follows another frame's stages.

    Returns
    -------
    ndarray, shape (n, k)
        The projected frame; ``||Q^T Q - I||_F`` stays at round-off.
    """
    if a_stages is None:
        a1, a2, a4 = a(t), a(t + 0.5 * h), a(t + h)
        a3 = a2
    elif len(a_stages) == 4:
        a1, a2, a3, a4 = a_stages
    else:
        a1, a2, a4 = a_stages
        a3 = a2

    def rhs(aa, qq):
        m = aa @ qq
        w = qq.T @ m
        return m - qq @ (w - s_rule(w))

    k1 = rhs(a1, q)
    k2 = rhs(a2, q + (0.5 * h) * k1)
    k3 = rhs(a3, q + (0.5 * h) * k2)
    k4 = rhs(a4, q + h * k3)
    qn = q + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    qn, r = cholesky_qr(qn)
    d = r.diagonal()
    if not (np.isfinite(qn).all() and (d > 1e-8).all()):
        raise NumericalError(f"frame rank collapse at t={t}: pivots {d}")
    return qn


def _frame_rhs_stack(a, q):
    """Frame-flow derivative for stacks ``a (T, n, n)``, ``q (T, n, k)``."""
    m = a @ q
    w = q.mT @ m
    return m - q @ (w - skew_rule(w))


def projected_rk4_stages(q, a1, a2, h):
    """Stage frames of :func:`projected_rk4_step` for a stack of steps.

    ``q`` (T, n, k) holds the start frames, ``a1`` and ``a2`` (T, n, n)
    the system matrix at each step's start and midpoint; the skew rule is
    :func:`skew_rule`.  Returns (4, T, n, k):
    the frames at which the four RK4 stages evaluate their derivative,
    ``q``, ``q + h/2 k1``, ``q + h/2 k2`` and ``q + h k3``.
    """
    out = np.empty((4,) + q.shape)
    out[0] = q
    out[1] = q + (0.5 * h) * _frame_rhs_stack(a1, q)
    out[2] = q + (0.5 * h) * _frame_rhs_stack(a2, out[1])
    out[3] = q + h * _frame_rhs_stack(a2, out[2])
    return out


def system_stages(a, cfg):
    """Stage source of the frame flow under a system matrix ``A(t)``.

    ``a`` is a :class:`MatrixExpr`, evaluated per chunk by its grid
    evaluator, or a callable ``t -> (n, n)``, called once at ``t0`` and
    then at ``t + h/2`` and ``t + h`` of every step, in step order.
    Returns ``(n, stages)``; ``stages(lo, hi)`` gives, for grid steps
    ``lo .. hi - 1``, the matrices at grid points ``lo .. hi`` (T + 1, n, n)
    and the stage stacks ``(A(t), A(t + h/2), A(t + h))`` of
    :func:`frame_flow`.  A callable source must be asked for consecutive
    chunks from step 0 on.
    """
    h = cfg.h
    if isinstance(a, MatrixExpr):
        if a.rows != a.cols:
            raise ValueError(f"system matrix must be square, got {a.shape}")
        a_grid = a.bind_grid()

        def stages(lo, hi):
            t = cfg.t0 + h * np.arange(lo, hi + 1)
            grid = a_grid(t)
            return grid, (grid[:-1], a_grid(t[:-1] + 0.5 * h), grid[1:])

        return a.rows, stages

    a0 = np.asarray(a(cfg.t0), dtype=float)
    n = a0.shape[0]
    if a0.shape != (n, n):
        raise ValueError(f"system matrix must be square, got {a0.shape}")
    last = [a0]

    def stages(lo, hi):
        grid = np.empty((hi - lo + 1, n, n))
        mid = np.empty((hi - lo, n, n))
        grid[0] = last[0]
        for j in range(hi - lo):
            t = cfg.time(lo + j)
            mid[j] = a(t + 0.5 * h)
            grid[j + 1] = a(cfg.time(lo + j + 1))
        last[0] = grid[-1]
        return grid, (grid[:-1], mid, grid[1:])

    return n, stages


def frame_flow(stages, q, cfg, n_steps=None):
    """Step the frame ``q`` over the grid of ``cfg``, one chunk at a time.

    ``stages(lo, hi)`` returns the matrices at grid points ``lo .. hi``
    (T + 1, n, n), which the caller records with, and the stage stacks of
    steps ``lo .. hi - 1``: three ``(A(t), A(t + h/2), A(t + h))`` or four,
    one per RK4 stage, each (T, n, n).  Each step is one
    :func:`projected_rk4_step` with :func:`skew_rule`.  Yields
    ``(lo, hi, grid, frames)`` per chunk of at most ``CHUNK_STEPS`` steps,
    ``frames`` (T + 1, n, k) holding the frames at grid points ``lo .. hi``.
    Runs the first ``n_steps`` steps (default all).
    """
    n_steps = cfg.n_steps if n_steps is None else n_steps
    h = cfg.h
    for lo in range(0, n_steps, CHUNK_STEPS):
        hi = min(lo + CHUNK_STEPS, n_steps)
        grid, stacks = stages(lo, hi)
        frames = np.empty((hi - lo + 1,) + q.shape)
        frames[0] = q
        for j in range(hi - lo):
            q = projected_rk4_step(
                None, cfg.time(lo + j), q, h, skew_rule, [s[j] for s in stacks]
            )
            frames[j + 1] = q
        yield lo, hi, grid, frames


def joint_rk4_step(rhs, t, states, h, project=()):
    """One RK4 step for several coupled array-valued states.

    ``rhs(t, states)`` returns the list of derivatives, one per state and
    of matching shape.  Each rhs call is one stage, so a caller that
    needs the same matrix evaluation for several components computes it
    once per stage inside rhs.  Components listed in ``project`` are
    orthonormal frames: after the combined update they are snapped back
    with modified Gram-Schmidt, mirroring :func:`projected_rk4_step`.
    """
    k1 = rhs(t, states)
    k2 = rhs(t + 0.5 * h, [x + (0.5 * h) * k for x, k in zip(states, k1)])
    k3 = rhs(t + 0.5 * h, [x + (0.5 * h) * k for x, k in zip(states, k2)])
    k4 = rhs(t + h, [x + h * k for x, k in zip(states, k3)])
    out = []
    for idx, parts in enumerate(zip(states, k1, k2, k3, k4)):
        x, d1, d2, d3, d4 = parts
        xn = x + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        if not np.all(np.isfinite(xn)):
            raise NumericalError(f"non-finite state component {idx} at t={t}")
        if idx in project:
            xn, r = mgs_qr(xn)
            if not np.all(np.diag(r) > 1e-8):
                raise NumericalError(f"frame rank collapse at t={t}")
        out.append(xn)
    return out
