"""Dense linear-algebra kernels used by the flows and rank tests.

Two QR factorizations live here.  :func:`householder_qr` is LAPACK's
Householder QR through the same gufuncs ``np.linalg.qr`` calls, for one
matrix or a stack; it returns Q with diag R >= 0 and only |diag R|, all
that :func:`~ltvobs.integrators.frame_flow`, the discrete QR method every
QR flow runs, reads from a factorization.  :func:`householder_q` is its Q
alone, for the block ends that flow factors one at a time inside one
error state of its own.  :func:`mgs_qr` is a hand-written
modified Gram-Schmidt with two conventions that library QR routines do
not guarantee: a nonnegative diagonal of R and a deterministic completion
rule for (numerically) dependent columns.  ``lyapunov.start_frame`` and
the observer's gain basis rely on them, and so do the per-step reference
steppers of :mod:`~ltvobs.integrators`.  ``mgs_qr_stack`` runs
the same elimination on a stack of matrices at once, for the gain basis
of many samples, and hands every matrix with a dependent column back to
``mgs_qr``, so both conventions hold for the stack too.  Rank decisions,
pseudoinverses and left-null projectors go through numpy's SVD with one
shared tolerance policy, on single matrices or on stacks of them.
"""

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NumericalError

__all__ = [
    "householder_qr",
    "householder_q",
    "mgs_qr",
    "mgs_qr_stack",
    "numerical_rank",
    "pinv",
    "orthogonal_projector_complement",
    "require_finite",
]

_EPS = np.finfo(float).eps


def _raise_qr_error(err, flag):
    raise np.linalg.LinAlgError(
        "Incorrect argument found while performing QR factorization"
    )


def _factor(x):
    """Q with diag R >= 0 and the signed diag R of a float64 copy of ``x``."""
    a = np.array(x, dtype=np.float64)
    tau = _umath_linalg.qr_r_raw(a, signature="d->d")
    q = _umath_linalg.qr_reduced(a, tau, signature="dd->d")
    diag = a.diagonal(0, -2, -1)
    q *= np.where(diag < 0.0, -1.0, 1.0)[..., None, :]
    return q, diag


def householder_q(x):
    """The Q factor of :func:`householder_qr`, under the caller's error state.

    The same LAPACK calls and the same bits as ``householder_qr(x)[0]``,
    without entering numpy's error state for each call: a caller that
    factors matrices one at a time holds one state around all of them.
    """
    return _factor(x)[0]


def householder_qr(x):
    """Householder QR of one matrix ``(n, k)`` or a stack ``(..., n, k)``.

    Returns ``(q, d)``: the reduced Q factor ``(..., n, min(n, k))``, its
    columns flipped where diag R < 0 so that diag R >= 0, and ``|diag R|``
    ``(..., min(n, k))``.  Up to that flip both are the bits of
    ``np.linalg.qr``, whose LAPACK gufuncs (``dgeqrf`` then ``dorgqr``) run
    here on a float64 copy of ``x``; ``x`` itself is never written.  The
    diagonal is read off the factored copy, so no R matrix is built.  The
    gufuncs loop over a stack one matrix at a time, so a matrix factored
    alone gives the same bits as inside a stack.  An invalid argument in
    LAPACK raises ``LinAlgError``, as in ``np.linalg.qr``.
    """
    with np.errstate(
        call=_raise_qr_error, invalid="call", over="ignore", divide="ignore", under="ignore"
    ):
        q, diag = _factor(x)
    return q, np.abs(diag)


def mgs_qr(x):
    """Modified Gram-Schmidt QR of an n-by-m matrix with n >= m.

    Parameters
    ----------
    x : ndarray, shape (n, m)
        Columns to orthonormalize.

    Returns
    -------
    q : ndarray, shape (n, m)
        Orthonormal columns; ``diag(r) >= 0``.
    r : ndarray, shape (m, m)
        Upper triangular.

    Notes
    -----
    A column whose pivot is at or below ``max(n, m) * eps * max column
    norm`` counts as dependent: it gets ``r[j, j] = 0`` and
    its Q column is replaced by the first canonical basis vector with a
    usable residual after orthogonalization against the accepted columns,
    so Q always carries a full orthonormal frame.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("mgs_qr expects a 2-d array")
    n, m = x.shape
    if n < m:
        raise ValueError(f"need n >= m, got shape {x.shape}")
    col_norms = np.sqrt((x * x).sum(axis=0))
    rank_tol = max(n, m) * _EPS * (col_norms.max() if m else 0.0)

    q = np.empty((n, m))
    r = np.zeros((m, m))
    for j in range(m):
        v = x[:, j].copy()
        for i in range(j):
            r[i, j] = q[:, i] @ v
            v -= r[i, j] * q[:, i]
        pivot = np.linalg.norm(v)
        if pivot <= rank_tol:
            r[j, j] = 0.0
            q[:, j] = _completion_column(q[:, :j], n)
        else:
            r[j, j] = pivot
            q[:, j] = v / pivot
    return q, r


def mgs_qr_stack(x):
    """:func:`mgs_qr` of every matrix in a stack ``(T, n, m)``.

    Returns ``(q, r)`` of shapes ``(T, n, m)`` and ``(T, m, m)``.  Each
    projection and norm is the same strided BLAS dot product that
    :func:`mgs_qr` takes, so a matrix whose pivots all clear the default
    tolerance gets bit-for-bit the factors :func:`mgs_qr` would return.
    A matrix with any pivot at or below it is refactored by :func:`mgs_qr`
    itself, which zeroes that pivot and completes the frame.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 3:
        raise ValueError("mgs_qr_stack expects a 3-d array")
    count, n, m = x.shape
    if n < m:
        raise ValueError(f"need n >= m, got shape {x.shape[1:]}")
    col_norms = np.sqrt((x * x).sum(axis=1))
    rank_tol = max(n, m) * _EPS * (col_norms.max(axis=1) if m else 0.0)

    q = np.empty((count, n, m))
    r = np.zeros((count, m, m))
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(m):
            v = x[:, :, j].copy()
            for i in range(j):
                qi = q[:, :, i]
                r[:, i, j] = (qi[:, None, :] @ v[:, :, None])[:, 0, 0]
                v -= r[:, i, j, None] * qi
            pivot = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
            r[:, j, j] = pivot
            q[:, :, j] = v / pivot[:, None]
    pivots = np.diagonal(r, axis1=1, axis2=2)
    for idx in np.flatnonzero(np.any(pivots <= rank_tol[:, None], axis=1)):
        q[idx], r[idx] = mgs_qr(x[idx])
    return q, r


def _completion_column(accepted, n):
    """First canonical basis vector that survives orthogonalization."""
    for l in range(n):
        v = np.zeros(n)
        v[l] = 1.0
        # two passes keep the replacement orthogonal to working precision
        for _ in range(2):
            for i in range(accepted.shape[1]):
                v -= (accepted[:, i] @ v) * accepted[:, i]
        norm = np.linalg.norm(v)
        if norm > 0.5:
            return v / norm
    raise NumericalError("could not complete orthonormal frame")


def numerical_rank(x):
    """Rank of ``x`` by counting singular values above the shared tolerance.

    The tolerance is ``max(rows, cols) * eps * sigma_max``; the zero
    matrix has rank 0 under this policy.  A stack ``(..., rows, cols)``
    gets an int array of ranks from one stacked SVD, each matrix with its
    own tolerance; a single matrix gets an int.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.size == 0:
        ranks = np.zeros(x.shape[:-2], dtype=int)
    else:
        s = np.linalg.svd(x, compute_uv=False)
        tol = max(x.shape[-2:]) * _EPS * s[..., :1]
        ranks = np.count_nonzero(s > tol, axis=-1)
    return int(ranks) if x.ndim == 2 else ranks


def pinv(x):
    """Moore-Penrose pseudoinverse with the shared rank tolerance.

    A stack ``(..., rows, cols)`` is inverted matrix by matrix, each with
    its own default tolerance.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    try:
        u, s, vt = np.linalg.svd(x, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    top = s[..., :1] if s.shape[-1] else np.zeros(s.shape[:-1] + (1,))
    tol = max(x.shape[-2:]) * _EPS * top
    recip = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0)
    inv = np.where(s > tol, recip, 0.0)
    return (np.swapaxes(vt, -1, -2) * inv[..., None, :]) @ np.swapaxes(u, -1, -2)


def require_finite(stack, times, what):
    """``stack`` (T, rows, cols), or NumericalError naming ``what`` and the first bad time."""
    bad = ~np.isfinite(stack).all(axis=(1, 2))
    if bad.any():
        raise NumericalError(f"{what} is not finite at t={times[np.argmax(bad)]}")
    return stack


def orthogonal_projector_complement(j):
    """Projector onto the orthogonal complement of the column span of ``j``.

    Returns ``K = I - J J^+``; for ``j == 0`` this is the identity.  The
    result is symmetrized so ``K = K^T`` holds exactly.  A stack
    ``(..., rows, cols)`` gets one projector ``(..., rows, rows)`` per
    matrix, each with the bits it has alone.
    """
    j = np.atleast_2d(np.asarray(j, dtype=float))
    k = np.eye(j.shape[-2]) - j @ pinv(j)
    return 0.5 * (k + k.mT)
