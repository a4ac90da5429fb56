"""Fixed-step integrators: RK4 propagators and the QR frame flow.

The frame flow follows an orthonormal n-by-k matrix along

    dQ/dt = (I - Q Q^T) A(t) Q + Q S(Q^T A Q),

whose solution is exactly the Q factor of ``Phi(t, t0) Q0`` with
``Phi`` the transition matrix of ``dx/dt = A x``.  :func:`frame_flow`
therefore runs the discrete QR method (Dieci, Russell & Van Vleck, SIAM
J. Numer. Anal. 1997) and owns the walk over the grid: per chunk of steps
it samples A at the grid points and step midpoints and folds every step's
RK4 stages into a propagator ``Phi_i`` with stacked products
(:func:`rk4_propagators`).  The chunk is re-anchored at the end of every
block of steps whose propagators can grow X by at most about e^4.  The
first block applies ``X <- Phi_i X`` in a tight loop of ``np.dot`` calls;
every later block forms the running product of its own propagators, all
later blocks at once, one batched product per position in a block.  Only
what the next block starts from is done in sequence: the block's last
product applied to the frame it starts from, and the Householder QR of
that matrix alone.  One batched product then gives every later block's
matrices, and one batched Householder QR the checks, the frames and the
diagonals of R of every step of the chunk.  Both QRs go through the
LAPACK kernels of :mod:`~ltvobs.linalg`, which return Q with diag R >= 0
and build no R matrix.  The diagonal of each step's R factor gives the log
growth of every direction, a second exponent estimate next to the
diag(Q^T A Q) average.

:func:`projected_rk4_step` is the continuous form of the same flow, one
projected RK4 step at a time; no program path steps it, and it stays as
the per-step reference of the tests.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .linalg import householder_q, householder_qr, mgs_qr

__all__ = [
    "StepConfig",
    "skew_rule",
    "projected_rk4_step",
    "rk4_propagators",
    "frame_flow",
    "joint_rk4_step",
]

# steps per batch in the cascade's chunked grid loops, and the fewest per
# chunk of the frame flow, whose chunks hold about 8192 matrix entries per
# stage stack (128 steps at n = 8, 2048 at n = 2): long enough to amortize
# the per-call overhead of numpy, short enough that no per-stage array
# spans the horizon
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
        if not (np.isfinite([self.t0, self.t_end]).all() and self.t_end > self.t0):
            raise ValueError(f"empty or non-finite horizon [{self.t0}, {self.t_end}]")
        span = self.horizon
        steps = round(span / self.h)
        if steps < 1 or abs(steps * self.h - span) > 1e-9 * max(1.0, span):
            raise ValueError(f"horizon {span} is not a multiple of h={self.h}")

    @property
    def n_steps(self):
        return round(self.horizon / self.h)

    @property
    def horizon(self):
        return self.t_end - self.t0

    def time(self, i):
        """i-th grid point, computed without accumulation drift."""
        return self.t0 + i * self.h

    def grid(self):
        return self.t0 + self.h * np.arange(self.n_steps + 1)


def skew_rule(w):
    """Skew stabilizer of the frame flow.

    Copies the strict lower triangle of ``W = Q^T A Q`` and mirrors it
    with opposite sign; the diagonal is zero.  ``w`` may be a stack
    ``(..., k, k)``.
    """
    lower = np.tril(w, -1)
    return lower - lower.mT


def _frame_rhs_stack(a, q):
    """Frame-flow derivative for ``a (..., n, n)`` and ``q (..., n, k)``."""
    m = a @ q
    w = q.mT @ m
    return m - q @ (w - skew_rule(w))


def projected_rk4_step(t, q, h, a_stages):
    """Advance an orthonormal frame one step and re-orthonormalize.

    Parameters
    ----------
    t, h : float
        Step start and size; ``t`` only names the step in errors.
    q : ndarray, shape (n, k)
        Orthonormal frame.
    a_stages : sequence
        The system matrix ``(A(t), A(t+h/2), A(t+h))``.

    Returns
    -------
    ndarray, shape (n, k)
        The projected frame; ``||Q^T Q - I||_F`` stays at round-off.
    """
    a1, a2, a4 = a_stages
    k1 = _frame_rhs_stack(a1, q)
    k2 = _frame_rhs_stack(a2, q + (0.5 * h) * k1)
    k3 = _frame_rhs_stack(a2, q + (0.5 * h) * k2)
    k4 = _frame_rhs_stack(a4, q + h * k3)
    qn = q + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    qn, r = mgs_qr(qn)
    d = r.diagonal()
    if not (np.isfinite(qn).all() and (d > 1e-8).all()):
        raise NumericalError(f"frame rank collapse at t={t}: pivots {d}")
    return qn


def rk4_propagators(m, h, b=None):
    """Fold the RK4 stages of ``dz/dt = M_s z + b_s`` into per-step maps.

    ``m`` holds the stage matrices of T steps: three stacks
    ``(M(t), M(t + h/2), M(t + h))``, or four, one per RK4 stage, each
    (T, ..., d, d); the axes after T batch independent systems.  Returns
    ``Phi`` (T, ..., d, d), one RK4 step of ``dz/dt = M z`` applied to the
    identity.  With the four stage drives ``b``, each (T, ..., d), it
    returns ``(Phi, psi)``, psi (T, ..., d), so that each step is the
    affine map ``z -> Phi z + psi``.
    """
    if len(m) == 3:
        m = (m[0], m[1], m[1], m[2])
    p_prev = m[0]
    p_sum = p_prev.copy()
    if b is not None:
        c_prev = b[0]
        c_sum = c_prev.copy()
    for s, (frac, weight) in enumerate(((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)), 1):
        p_prev = m[s] + (frac * h) * (m[s] @ p_prev)
        p_sum += weight * p_prev
        if b is not None:
            c_prev = b[s] + (frac * h) * (m[s] @ c_prev[..., None])[..., 0]
            c_sum += weight * c_prev
    phi = (h / 6.0) * p_sum
    phi += np.eye(m[0].shape[-1])
    if b is None:
        return phi
    return phi, (h / 6.0) * c_sum


def frame_flow(a, q, cfg):
    """Step the frame ``q`` over the grid of ``cfg`` by the discrete QR method.

    ``a`` evaluates the system matrix, ``times (T,) -> (T, n, n)``, as
    :func:`~ltvobs.system.as_sampler` returns it.  A chunk holds at most
    ``max(CHUNK_STEPS, 8192 // n**2)`` steps, so each stage stack keeps
    about 8192 entries (64 KiB) whatever the dimension n.  For its steps
    ``lo .. hi - 1``, A is sampled at the grid points ``lo .. hi`` and the
    step midpoints, and the stages ``(A(t), A(t + h/2), A(t + h))`` fold
    into propagators ``Phi_i`` (:func:`rk4_propagators`).  The chunk is
    cut into blocks of ``b = floor(4 / (h max ||M||_1))`` steps over its
    stage matrices, between 1 and T.  This bounds the norm of every product
    of a block's propagators and of its inverse by about e^4, so cond(X)
    stays below about e^8 (3e3) and the backward-stable Householder QR
    keeps the frames at round-off.  The first block steps the last frame,
    ``X <- Phi_i X``, one ``np.dot`` per step.  In the same pass over the
    positions j of a block, the products ``P_j = Phi_j ... Phi_0`` of all
    later blocks advance together, one ``np.matmul`` per position.  Only
    the block ends are done in sequence: each block's end ``X = P Q`` is
    factored alone, ``X = Q R`` with diag R >= 0 by
    :func:`~ltvobs.linalg.householder_q`, and the next block starts from
    that Q; the chunk's last block end is left to the batch.  One batched
    product ``P Q`` then gives the frames X of every later block, and one
    batched QR of all the chunk's X (:func:`~ltvobs.linalg.householder_qr`)
    every frame and every diag R.  Both run the LAPACK kernels of
    ``np.linalg.qr`` without forming R; a matrix factored alone gives the
    same bits as in the batch, so each block starts from exactly the frame
    recorded at its start.  A chunk of one block makes one ``np.dot`` per
    step and the batched QR alone.

    Yields ``(index, grid, frames, log_r)`` per chunk: ``index`` slices
    the grid points ``0 .. hi`` for the first chunk and ``lo + 1 .. hi``
    for every later one, so each point ``0 .. N`` comes once, in order;
    ``grid`` and ``frames`` hold A (P, n, n) and the frame (P, n, k) at
    those P points, and ``log_r`` (T, k) each step's ``log diag R_i`` in
    ``Q_{i+1} R_i = Phi_i Q_i``, the first step of a block from its own R
    and every other step as the difference from the step before.  Raises
    ``ValueError`` naming the shape when A is not n-by-n for the n rows of
    ``q``.  Raises :class:`NumericalError` naming the step time when a step
    turns non-finite, or when a pivot ``|r_jj|`` is at or below 1e-8 times
    the largest column norm of its matrix.  Of several failing blocks the
    first raises, and within a block a non-finite step wins over a
    collapse; the flow stops at the first non-finite block end, so no QR
    and no log sees NaN or a zero pivot.
    """
    n = q.shape[0]
    n_steps = cfg.n_steps
    h = cfg.h
    chunk = max(CHUNK_STEPS, 8192 // n**2)
    # column sums as products with ones: the matmul kernels the steps use
    ones = np.ones(n)
    for lo in range(0, n_steps, chunk):
        hi = min(lo + chunk, n_steps)
        count = hi - lo
        t = cfg.time(np.arange(lo, hi + 1))
        grid = a(t)
        if grid.shape[1:] != (n, n):
            raise ValueError(f"system matrix must be {n}x{n}, got {grid.shape[1:]}")
        mid = a(t[:-1] + 0.5 * h)
        # one error state for the chunk's propagators, products and
        # block-end QRs: a non-finite product warns nothing and the finite
        # checks name it, and every matrix factored alone is factored again
        # by the batch below, under LAPACK's error state
        with np.errstate(all="ignore"):
            phi = rk4_propagators((grid[:-1], mid, grid[1:]), h)
            # the column sums of |M| as one product per stack; grid and mid
            # hold all three stage stacks
            growth = h * max(float((ones @ np.abs(s)).max()) for s in (grid, mid))
            # a NaN growth keeps the whole chunk; the finite check names it
            block = max(1, int(4.0 / growth)) if growth * count > 4.0 else count
            frames = np.empty((count + 1,) + q.shape)
            frames[0] = x = q
            # prods[s - block] = Phi_s ... Phi_b for each step s past the
            # first block, b the first step of its block: prods[j::block] are
            # the steps at position j of blocks 1, 2, ..., the last one shorter
            later = count - block
            prods = np.empty((later, n, n))
            prods[::block] = phi[block::block]
            # the frame each block starts from
            starts = np.empty((-(-count // block),) + q.shape)
            starts[0] = q
            stop = block
            for j in range(block):
                x = np.dot(phi[j], x, out=frames[j + 1])
                if 0 < j < later:
                    at = prods[j::block]
                    np.matmul(phi[block + j :: block], prods[j - 1 :: block][: len(at)], out=at)
            # a non-finite block end stops the flow before LAPACK sees it
            for b in range(1, len(starts)):
                if not np.isfinite(x).all():
                    break
                starts[b] = householder_q(x)
                stop = min(stop + block, count)
                x = np.dot(prods[stop - 1 - block], starts[b], out=frames[stop])
            if stop > block:
                np.matmul(
                    prods[: stop - block],
                    starts[np.arange(block, stop) // block],
                    out=frames[block + 1 : stop + 1],
                )
        raw = frames[1 : stop + 1]
        finite = np.isfinite(raw).all(axis=(1, 2))
        # the blocks before the one with the first non-finite step
        good = stop if finite.all() else int(np.argmin(finite)) // block * block
        x = raw[:good]
        qx, pivots = householder_qr(x)
        with np.errstate(over="ignore"):
            scale = np.sqrt((ones @ (x * x)).max(axis=1))
            # a frame whose squares overflow: its norms from the frame over its peak
            big = np.isinf(scale)
            if big.any():
                peak = np.abs(x[big]).max(axis=(1, 2), keepdims=True)
                scale[big] = peak[:, 0, 0] * np.sqrt((ones @ (x[big] / peak) ** 2).max(axis=1))
        collapse = (pivots <= 1e-8 * scale[:, None]).any(axis=1)
        if collapse.any():
            j = int(np.argmax(collapse))
            raise NumericalError(
                f"frame rank collapse at t={cfg.time(lo + j)}: pivots {pivots[j]}"
            )
        if good < stop:
            bad = lo + int(np.argmin(finite))
            raise NumericalError(f"non-finite frame flow at t={cfg.time(bad)}")
        raw[...] = qx
        log_pivots = np.log(pivots)
        log_r = np.diff(log_pivots, axis=0, prepend=0.0)
        log_r[block::block] = log_pivots[block::block]
        q = frames[-1]
        # grid point lo closed the chunk before
        skip = 1 if lo else 0
        yield slice(lo + skip, hi + 1), grid[skip:], frames[skip:], log_r


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
