"""Checks of the compact SVD kernel, ``concm.structure.svd_compact``."""

import numpy as np
import pytest

from concm import rng
from concm.errors import InvalidInput
from concm.structure import svd_compact


def frob(a):
    return np.linalg.norm(a)


def check_factorization(a, w, lam, v):
    n = a.shape[1]
    rec = w @ np.diag(lam) @ v.T
    assert frob(rec - a) <= 1e-9 * max(frob(a), 1e-12)
    assert np.abs(w.T @ w - np.eye(n)).max() <= 1e-10
    assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-10
    assert np.all(lam >= 0.0)
    assert np.all(np.diff(lam) <= 1e-12)


def test_identity():
    w, lam, v = svd_compact(np.eye(3))
    np.testing.assert_allclose(lam, [1.0, 1.0, 1.0])
    check_factorization(np.eye(3), w, lam, v)
    assert np.abs((w @ v.T).T @ (w @ v.T) - np.eye(3)).max() < 1e-12


def test_diagonal():
    a = np.diag([3.0, 2.0])
    w, lam, v = svd_compact(a)
    np.testing.assert_allclose(lam, [3.0, 2.0])
    check_factorization(a, w, lam, v)


def test_seeded_8x5_against_gram_eigendecomposition():
    a = rng.gaussian(rng.stream(42, "svd-fixture"), (8, 5))
    w, lam, v = svd_compact(a)
    check_factorization(a, w, lam, v)
    # independent oracle: eigenvalues of the 5x5 Gram matrix
    evals = np.linalg.eigvalsh(a.T @ a)[::-1]
    np.testing.assert_allclose(lam ** 2, np.clip(evals, 0.0, None),
                               rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("seed,d,n", [(0, 12, 7), (1, 64, 64), (2, 33, 20),
                                      (3, 64, 3), (4, 50, 49), (5, 2, 2)])
def test_random_shapes(seed, d, n):
    a = rng.gaussian(rng.stream(seed, "svd-shapes"), (d, n))
    w, lam, v = svd_compact(a)
    check_factorization(a, w, lam, v)


def test_sweep_up_to_64():
    gen = rng.stream(6, "svd-sweep")
    for _ in range(25):
        n = int(gen.integers(1, 65))
        d = int(gen.integers(n, 65))
        a = rng.gaussian(gen, (d, n)) * float(gen.integers(1, 100))
        w, lam, v = svd_compact(a)
        check_factorization(a, w, lam, v)


def test_rank_deficient_input_still_orthonormal():
    gen = rng.stream(7, "svd-rank")
    cols = rng.gaussian(gen, (10, 3))
    a = np.column_stack([cols, cols[:, 0], cols[:, 1] + cols[:, 2]])
    w, lam, v = svd_compact(a)
    check_factorization(a, w, lam, v)
    assert np.sum(lam > 1e-9) == 3


def test_zero_matrix():
    w, lam, v = svd_compact(np.zeros((4, 2)))
    np.testing.assert_allclose(lam, 0.0)
    assert np.abs(w.T @ w - np.eye(2)).max() <= 1e-12


def test_deterministic():
    a = rng.gaussian(rng.stream(9, "svd-det"), (9, 4))
    first = svd_compact(a)
    second = svd_compact(a.copy())
    for x, y in zip(first, second):
        assert np.array_equal(x, y)


def test_invalid_inputs():
    with pytest.raises(InvalidInput):
        svd_compact(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(InvalidInput):
        svd_compact(np.ones((2, 3)))  # d < n
    with pytest.raises(InvalidInput):
        svd_compact(np.ones(3))  # not 2-D

