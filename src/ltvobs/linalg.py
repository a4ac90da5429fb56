"""Dense linear-algebra kernels used by the flows and rank tests.

The QR factorization here is a hand-written modified Gram-Schmidt: the
frame integrators re-orthonormalize with it every step and rely on two
conventions that library QR routines do not guarantee, a nonnegative
diagonal of R and a deterministic completion rule for (numerically)
dependent columns.  ``mgs_qr_stack`` runs the same elimination on a stack
of matrices at once and hands every matrix with a dependent column back to
``mgs_qr``, so both conventions hold for the stack too.  ``cholesky_qr`` is
the cheap retraction of a frame that is orthonormal up to one integration
step: a Cholesky factor of the Gram matrix, with ``mgs_qr`` taking over
whenever that factor is not safe to use.  Rank decisions and
pseudoinverses go through numpy's SVD with one shared tolerance policy.
"""

import math

import numpy as np

from .errors import NumericalError

__all__ = [
    "mgs_qr",
    "mgs_qr_stack",
    "cholesky_qr",
    "numerical_rank",
    "pinv",
    "orthogonal_projector_complement",
    "projector_complement_stack",
]

_EPS = np.finfo(float).eps


def default_rank_tol(x, sigma_max=None):
    """max(rows, cols) * eps * sigma_max, the usual SVD cutoff."""
    if sigma_max is None:
        sigma_max = np.linalg.norm(x, 2) if x.size else 0.0
    return max(x.shape) * _EPS * sigma_max


def mgs_qr(x, rank_tol=None):
    """Modified Gram-Schmidt QR of an n-by-m matrix with n >= m.

    Parameters
    ----------
    x : ndarray, shape (n, m)
        Columns to orthonormalize.
    rank_tol : float, optional
        Pivot cutoff below which a column counts as dependent.  Defaults
        to ``max(n, m) * eps * max column norm``.

    Returns
    -------
    q : ndarray, shape (n, m)
        Orthonormal columns; ``diag(r) >= 0``.
    r : ndarray, shape (m, m)
        Upper triangular.

    Notes
    -----
    A column whose pivot falls below ``rank_tol`` gets ``r[j, j] = 0`` and
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
    if rank_tol is None:
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


def cholesky_qr(x):
    """QR of an n-by-m matrix (n >= m) by a Cholesky factor of ``X^T X``.

    ``R`` is the transposed Cholesky factor of the Gram matrix and
    ``Q = X R^{-1}``, so ``diag(R) > 0``.  The Gram matrix squares the
    condition number of ``X``, which costs nothing on a frame one step away
    from orthonormal and is why ill-conditioned matrices belong to
    :func:`mgs_qr`.  The matrix is handed to :func:`mgs_qr` itself, with its
    zero pivots and completion columns, when it is not finite, when the
    factorization fails, or when a pivot is at or below ``mgs_qr``'s default
    tolerance ``max(n, m) * eps * max column norm``.

    Returns ``(q, r)`` of shapes ``(n, m)`` and ``(m, m)``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("cholesky_qr expects a 2-d array")
    n, m = x.shape
    if n < m:
        raise ValueError(f"need n >= m, got shape {x.shape}")
    gram = x.T @ x
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return mgs_qr(x)
    # a non-finite column makes the tolerance inf or nan and fails the test
    rank_tol = max(n, m) * _EPS * math.sqrt(gram.diagonal().max())
    if not (rank_tol < math.inf and (lower.diagonal() > rank_tol).all()):
        return mgs_qr(x)
    r = lower.T
    return x @ np.linalg.inv(r), r


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


def numerical_rank(x, tol=None):
    """Rank of ``x`` by counting singular values above ``tol``.

    ``tol`` defaults to ``max(rows, cols) * eps * sigma_max``; the zero
    matrix has rank 0 under this policy.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.size == 0:
        return 0
    s = np.linalg.svd(x, compute_uv=False)
    if tol is None:
        tol = max(x.shape) * _EPS * (s[0] if s.size else 0.0)
    return int(np.count_nonzero(s > tol))


def pinv(x, tol=None):
    """Moore-Penrose pseudoinverse with the shared rank tolerance.

    A stack ``(..., rows, cols)`` is inverted matrix by matrix, each with
    its own default tolerance.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    try:
        u, s, vt = np.linalg.svd(x, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    if tol is None:
        top = s[..., :1] if s.shape[-1] else np.zeros(s.shape[:-1] + (1,))
        tol = max(x.shape[-2:]) * _EPS * top
    recip = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0)
    inv = np.where(s > tol, recip, 0.0)
    return (np.swapaxes(vt, -1, -2) * inv[..., None, :]) @ np.swapaxes(u, -1, -2)


def orthogonal_projector_complement(j, tol=None):
    """Projector onto the orthogonal complement of the column span of ``j``.

    Returns ``K = I - J J^+``; for ``j == 0`` this is the identity.  The
    result is symmetrized so ``K = K^T`` holds exactly.
    """
    j = np.atleast_2d(np.asarray(j, dtype=float))
    k = np.eye(j.shape[0]) - j @ pinv(j, tol=tol)
    return 0.5 * (k + k.T)


def projector_complement_stack(j):
    """:func:`orthogonal_projector_complement` of every matrix in a stack.

    ``j`` has shape ``(T, rows, cols)``; returns the ``(T, rows, rows)``
    symmetrized projectors ``I - J J^+``.
    """
    j = np.asarray(j, dtype=float)
    k = np.eye(j.shape[1]) - j @ pinv(j)
    return 0.5 * (k + np.swapaxes(k, 1, 2))
