"""Householder and modified Gram-Schmidt QR, numerical rank, pinv, projectors."""

import numpy as np
import pytest

from ltvobs.linalg import (
    householder_q,
    householder_qr,
    mgs_qr,
    mgs_qr_stack,
    numerical_rank,
    orthogonal_projector_complement,
    pinv,
)


def test_mgs_identity():
    q, r = mgs_qr(np.eye(3))
    assert np.allclose(q, np.eye(3), atol=1e-15)
    assert np.allclose(r, np.eye(3), atol=1e-15)


def test_mgs_column_swap():
    q, r = mgs_qr(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(q, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
    assert np.allclose(r, np.eye(2), atol=1e-15)


def test_mgs_single_column():
    q, r = mgs_qr(np.array([[3.0], [4.0]]))
    assert np.allclose(q, [[0.6], [0.8]], atol=1e-15)
    assert np.allclose(r, [[5.0]], atol=1e-15)


def test_mgs_rank_deficient_marks_zero_diagonal():
    x = np.array([[1.0, 2.0], [2.0, 4.0]])
    q, r = mgs_qr(x)
    assert r[1, 1] == 0.0
    # the replacement column keeps the frame orthonormal and the
    # factorization exact (dependent column = combination of earlier ones)
    assert np.allclose(q.T @ q, np.eye(2), atol=1e-12)
    assert np.allclose(q @ r, x, atol=1e-12)


def test_mgs_random_properties(rng):
    for _ in range(300):
        m = int(rng.integers(1, 8))
        k = int(rng.integers(1, m + 1))
        x = rng.standard_normal((m, k))
        q, r = mgs_qr(x)
        assert q.shape == (m, k) and r.shape == (k, k)
        assert np.allclose(q.T @ q, np.eye(k), atol=1e-10)
        assert np.allclose(q @ r, x, atol=1e-10 * max(1.0, np.abs(x).max()))
        assert np.allclose(np.tril(r, -1), 0.0, atol=0.0)
        assert np.all(np.diag(r) >= 0.0)


def test_mgs_stack_is_mgs_per_matrix(rng):
    # the stacked elimination takes the same dot products, and matrices
    # with a dependent column go through mgs_qr: factors match bit for bit
    for n, m in ((8, 2), (2, 1), (5, 5)):
        x = rng.standard_normal((200, n, m))
        x[3] = 0.0
        x[7, :, -1] = 2.0 * x[7, :, 0] if m > 1 else 0.0
        q, r = mgs_qr_stack(x)
        for i in range(x.shape[0]):
            q_i, r_i = mgs_qr(x[i])
            assert np.array_equal(q[i], q_i) and np.array_equal(r[i], r_i)


def _library_qr(x):
    """``np.linalg.qr`` with Q's columns flipped where diag R < 0, and |diag R|."""
    q, r = np.linalg.qr(x)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * np.where(d < 0.0, -1.0, 1.0)[..., None, :], np.abs(d)


def test_householder_qr_is_numpy_qr_bit_for_bit(rng):
    zero_column = rng.standard_normal((4, 3))
    zero_column[:, 1] = 0.0
    cases = [
        rng.standard_normal((6, 2)),
        rng.standard_normal((5, 5)),
        np.array([[-3.0]]),
        zero_column,
        np.asfortranarray(rng.standard_normal((8, 3))),
        rng.standard_normal((7, 6))[::2, 1::2],  # a strided view
    ]
    flipped = 0
    for x in cases:
        q, d = householder_qr(x)
        q_ref, d_ref = _library_qr(x)
        assert q.shape == q_ref.shape and d.shape == d_ref.shape
        assert np.array_equal(q, q_ref) and np.array_equal(d, d_ref)
        assert (d >= 0.0).all()
        flipped += int((np.diagonal(np.linalg.qr(x)[1]) < 0.0).sum())
    # LAPACK's R has negative diagonals here, so the flip is exercised
    assert flipped > 0
    assert householder_qr(zero_column)[1][1] == 0.0
    # LAPACK leaves a 1x1 matrix as Q = 1, R = -3: the flip makes it -1, 3
    q, d = householder_qr(np.array([[-3.0]]))
    assert q[0, 0] == -1.0 and d[0] == 3.0


def test_householder_qr_stack_is_each_matrix_alone(rng):
    # frame_flow starts each block from a matrix factored alone, by Q alone,
    # and records it from the chunk's batch: the two must agree bit for bit
    for shape in ((200, 8, 3), (128, 5, 5), (64, 2, 1), (3, 4, 5, 2)):
        x = rng.standard_normal(shape)
        q, d = householder_qr(x)
        q_ref, d_ref = _library_qr(x)
        assert np.array_equal(q, q_ref) and np.array_equal(d, d_ref)
        for idx in np.ndindex(shape[:-2]):
            q_i, d_i = householder_qr(x[idx])
            assert np.array_equal(q[idx], q_i) and np.array_equal(d[idx], d_i)
            assert np.array_equal(householder_q(x[idx]), q_i)
    q, d = householder_qr(np.empty((0, 3, 2)))
    assert q.shape == (0, 3, 2) and d.shape == (0, 2)


def test_householder_qr_leaves_input_unmodified(rng):
    frames = rng.standard_normal((10, 5, 3))
    before = frames.copy()
    householder_qr(frames[2])
    householder_qr(frames[4:9])
    assert np.array_equal(frames, before)


def test_numerical_rank_examples():
    assert numerical_rank(np.eye(3)) == 3
    assert numerical_rank(np.zeros((2, 4))) == 0
    assert numerical_rank(np.diag([1.0, 1e-17])) == 1
    # relative tolerance: uniform scaling cannot change the rank
    x = np.array([[1.0, 2.0], [2.0, 4.000001]])
    assert numerical_rank(x) == numerical_rank(1e-9 * x) == 2


def test_numerical_rank_stack_matches_single(rng):
    # one stacked SVD, each matrix with its own default tolerance
    x = rng.standard_normal((12, 5, 3))
    x[2, :, 2] = x[2, :, 0] - x[2, :, 1]  # rank 2
    x[4] = 0.0
    x[7] *= 1e-12  # scaled down: the relative tolerance keeps rank 3
    x[9] = np.outer(rng.standard_normal(5), rng.standard_normal(3))  # rank 1
    ranks = numerical_rank(x)
    assert ranks.shape == (12,)
    assert [int(v) for v in ranks] == [numerical_rank(m) for m in x]
    assert (ranks[2], ranks[4], ranks[7], ranks[9]) == (2, 0, 3, 1)
    assert np.array_equal(numerical_rank(x.reshape(3, 4, 5, 3)), ranks.reshape(3, 4))
    assert np.array_equal(numerical_rank(np.zeros((6, 4, 0))), np.zeros(6, dtype=int))
    assert numerical_rank(np.zeros((0, 4, 2))).shape == (0,)


def test_pinv_examples():
    assert np.allclose(pinv(np.array([[2.0, 0.0], [0.0, 0.0]])), [[0.5, 0.0], [0.0, 0.0]])
    assert np.allclose(pinv(np.eye(3)), np.eye(3))


def test_pinv_penrose_identities(rng):
    for _ in range(200):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        rank = int(rng.integers(0, min(m, n) + 1))
        if rank == 0:
            a = np.zeros((m, n))
        else:
            a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        ap = pinv(a)
        assert np.allclose(a @ ap @ a, a, atol=1e-8 * max(1.0, np.abs(a).max()))
        assert np.allclose(ap @ a @ ap, ap, atol=1e-8 * max(1.0, np.abs(ap).max()))
        assert np.allclose((a @ ap).T, a @ ap, atol=1e-9)
        assert np.allclose((ap @ a).T, ap @ a, atol=1e-9)


def test_projector_complement_examples():
    assert np.allclose(orthogonal_projector_complement(np.zeros((2, 1))), np.eye(2))
    assert np.allclose(
        orthogonal_projector_complement(np.array([[1.0], [0.0]])),
        np.diag([0.0, 1.0]),
        atol=1e-14,
    )
    assert np.allclose(
        orthogonal_projector_complement(np.array([[1.0], [1.0]])),
        [[0.5, -0.5], [-0.5, 0.5]],
        atol=1e-14,
    )


def test_projector_complement_properties(rng):
    for _ in range(300):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 5))
        j = rng.standard_normal((n, m))
        if rng.random() < 0.3 and m > 1:
            j[:, -1] = j[:, 0]  # force rank deficiency sometimes
        k = orthogonal_projector_complement(j)
        assert np.allclose(k @ j, 0.0, atol=1e-9 * max(1.0, np.abs(j).max()))
        assert np.allclose(k @ k, k, atol=1e-10)
        assert np.allclose(k.T, k, atol=1e-12)
        # projector rank complements the column space dimension
        assert int(round(np.trace(k))) == n - numerical_rank(j)


def test_projector_stack_matches_single(rng):
    j = rng.standard_normal((20, 4, 2))
    j[5] = 0.0
    j[9, :, 1] = j[9, :, 0]
    k = orthogonal_projector_complement(j)
    assert k.shape == (20, 4, 4)
    for i in range(j.shape[0]):
        assert np.array_equal(k[i], orthogonal_projector_complement(j[i]))
