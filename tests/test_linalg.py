"""Rank-revealing modified Gram-Schmidt, numerical rank, pinv, projectors."""

import numpy as np
import pytest

from ltvobs.linalg import (
    cholesky_qr,
    mgs_qr,
    mgs_qr_stack,
    numerical_rank,
    orthogonal_projector_complement,
    pinv,
    projector_complement_stack,
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


@pytest.mark.parametrize("shape", [(8, 2), (8, 3), (8, 8), (6, 6), (2, 2)])
def test_cholesky_qr_matches_mgs_near_orthonormal(rng, shape):
    # the frames a projected step retracts: orthonormal up to one step
    for _ in range(20):
        q0, _ = mgs_qr(rng.standard_normal(shape))
        x = q0 + 1e-3 * rng.standard_normal(shape)
        q, r = cholesky_qr(x)
        q_m, r_m = mgs_qr(x)
        assert np.max(np.abs(q - q_m)) <= 1e-14
        assert np.max(np.abs(r - r_m)) <= 1e-14
        assert np.all(np.diag(r) > 0.0)
        assert np.array_equal(np.tril(r, -1), np.zeros_like(r))


def test_cholesky_qr_hands_rank_deficient_input_to_mgs():
    # the dependent column gets mgs_qr's zero pivot and completion column
    for x in (
        np.array([[1.0, 2.0], [2.0, 4.0]]),
        np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        np.zeros((3, 2)),
    ):
        q, r = cholesky_qr(x)
        q_m, r_m = mgs_qr(x)
        assert np.array_equal(q, q_m) and np.array_equal(r, r_m)
        assert r[-1, -1] == 0.0


def test_cholesky_qr_hands_non_finite_input_to_mgs():
    for bad in (np.nan, np.inf):
        x = np.eye(3, 2)
        x[1, 1] = bad
        with np.errstate(invalid="ignore"):  # inf * 0 inside the elimination
            q, r = cholesky_qr(x)
            q_m, r_m = mgs_qr(x)
        assert np.array_equal(q, q_m, equal_nan=True)
        assert np.array_equal(r, r_m, equal_nan=True)


def test_numerical_rank_examples():
    assert numerical_rank(np.eye(3)) == 3
    assert numerical_rank(np.zeros((2, 4))) == 0
    assert numerical_rank(np.diag([1.0, 1e-17])) == 1
    # relative tolerance: uniform scaling cannot change the rank
    x = np.array([[1.0, 2.0], [2.0, 4.000001]])
    assert numerical_rank(x) == numerical_rank(1e-9 * x) == 2
    assert numerical_rank(np.diag([1.0, 0.5]), tol=0.6) == 1


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
    k = projector_complement_stack(j)
    for i in range(j.shape[0]):
        assert np.allclose(k[i], orthogonal_projector_complement(j[i]), atol=1e-14)
