import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concm import rng
from concm.errors import DimensionTooSmall, ShapeError
from concm.structure import (InitialStructure, StructureMatrix, centering,
                             geometric_optimality_deviation, initial_structure,
                             nearest_optimal_structure, random_optimal_structure,
                             structure_matching_rate)


def random_init(seed, d, n):
    cols = rng.gaussian(rng.stream(seed, "init-fixture"), (d, n))
    cols /= np.linalg.norm(cols, axis=0)
    return InitialStructure(columns=cols, class_ids=tuple(range(n)),
                            historical=np.zeros(n, dtype=bool))


def test_initial_structure_base_session_identity_projector():
    # identity map, prototypes e1, e2, e3 in R^8: the columns are a copy
    new = np.eye(8)[:, :3]
    init = initial_structure(None, new)
    assert init.columns.tobytes() == new.tobytes()
    assert init.columns.flags.c_contiguous
    assert not np.shares_memory(init.columns, new)
    # projected rows passed as their transposed view, as the session does
    rows = new.T.copy()
    init_t = initial_structure(None, rows.T)
    assert init_t.columns.flags.c_contiguous
    assert not np.shares_memory(init_t.columns, rows)
    assert init.class_ids == (0, 1, 2)
    assert not init.historical.any()


def test_initial_structure_distills_old_columns_bit_exactly():
    prev = random_optimal_structure(3, 8, seed=0)
    new = rng.gaussian(rng.stream(1, "m"), (8, 2))
    new /= np.linalg.norm(new, axis=0)
    init = initial_structure(prev, new)
    assert np.array_equal(init.columns[:, :3], prev.columns)
    assert init.columns[:, 3:].tobytes() == np.ascontiguousarray(new).tobytes()
    assert init.class_ids == (0, 1, 2, 3, 4)
    assert init.historical.tolist() == [True, True, True, False, False]


def test_update_is_optimal_and_centered():
    init = random_init(3, 8, 4)
    out = nearest_optimal_structure(init)
    assert geometric_optimality_deviation(out) <= 1e-8
    assert np.abs(out.columns.sum(axis=1)).max() <= 1e-8
    np.testing.assert_allclose(np.linalg.norm(out.columns, axis=0), 1.0,
                               atol=1e-8)


def test_update_fixed_point():
    init = random_init(4, 10, 5)
    first = nearest_optimal_structure(init)
    again = nearest_optimal_structure(
        InitialStructure(columns=first.columns.copy(), class_ids=first.class_ids,
                         historical=np.zeros(5, dtype=bool)))
    assert np.abs(again.columns - first.columns).max() <= 1e-8


def test_update_two_classes_analytic():
    gen = rng.stream(5, "pair")
    a, b = rng.gaussian(gen, (3,)), rng.gaussian(gen, (3,))
    init = InitialStructure(columns=np.column_stack([a, b]), class_ids=(0, 1),
                            historical=np.zeros(2, dtype=bool))
    out = nearest_optimal_structure(init)
    u = (a - b) / np.linalg.norm(a - b)
    np.testing.assert_allclose(out.columns[:, 0], u, atol=1e-10)
    np.testing.assert_allclose(out.columns[:, 1], -u, atol=1e-10)


def test_update_three_classes_gram():
    init = random_init(6, 8, 3)
    out = nearest_optimal_structure(init)
    gram = out.columns.T @ out.columns
    np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-8)
    off = gram[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, -0.5, atol=1e-8)


def test_update_maximizes_trace_over_random_candidates():
    m = centering(4)
    k = np.sqrt(4 / 3)
    for seed in range(5):
        init = random_init(100 + seed, 7, 4)
        best = np.trace(init.columns.T @ nearest_optimal_structure(init).columns)
        gens = rng.gaussian(rng.stream(seed, "cands"), (2000, 7, 4))
        q, r = np.linalg.qr(gens)
        q = q * np.where(np.diagonal(r, axis1=1, axis2=2)[:, None, :] < 0, -1.0, 1.0)
        objs = np.einsum("ij,bij->b", init.columns, k * (q @ m))
        assert best >= objs.max() - 1e-10


def test_gram_equals_scaled_centering():
    init = random_init(8, 12, 6)
    out = nearest_optimal_structure(init)
    gram = out.columns.T @ out.columns
    np.testing.assert_allclose(gram, (6 / 5) * centering(6), atol=1e-9)


def test_alignment_factor_is_column_orthonormal():
    from concm.structure import svd_compact
    init = random_init(9, 12, 6)
    w, _, v = svd_compact(init.columns @ centering(6))
    u = w @ v.T
    assert np.abs(u.T @ u - np.eye(6)).max() <= 1e-9


def test_rank_deficient_flagged(caplog):
    cols = np.ones((6, 3))
    cols[:, 1] = np.arange(6)
    dup = np.column_stack([cols[:, 0], cols[:, 0], cols[:, 1]])
    init = InitialStructure(columns=dup, class_ids=(0, 1, 2),
                            historical=np.zeros(3, dtype=bool))
    with caplog.at_level(logging.WARNING, logger="concm.structure"):
        out = nearest_optimal_structure(init)
    assert out.rank_deficient
    assert geometric_optimality_deviation(out) <= 1e-8
    assert any("rank deficient" in r.message for r in caplog.records)


@st.composite
def structures_with_duplicates(draw):
    """Unit columns in which column j copies column src[j] when src[j] < j."""
    n = draw(st.integers(2, 12))
    d = draw(st.integers(n + 1, n + 8))
    src = [draw(st.integers(0, j)) for j in range(n)]
    cols = rng.gaussian(rng.stream(draw(st.integers(0, 2 ** 16)), "dup"), (d, n))
    cols /= np.linalg.norm(cols, axis=0)
    for j, k in enumerate(src):
        cols[:, j] = cols[:, k]
    distinct = sum(k == j for j, k in enumerate(src))
    init = InitialStructure(columns=cols, class_ids=tuple(range(n)),
                            historical=np.zeros(n, dtype=bool))
    return init, distinct


@settings(max_examples=150, deadline=None)
@given(problem=structures_with_duplicates(), cand_seed=st.integers(0, 2 ** 16))
def test_update_property_etf_optimal_and_rank_flag(problem, cand_seed):
    init, distinct = problem
    d, n = init.columns.shape
    out = nearest_optimal_structure(init)
    assert geometric_optimality_deviation(out) <= 1e-8
    best = float(np.einsum("ij,ij->", init.columns, out.columns))
    q, r = np.linalg.qr(rng.gaussian(rng.stream(cand_seed, "cands"), (200, d, n)))
    q = q * np.where(np.diagonal(r, axis1=1, axis2=2)[:, None, :] < 0, -1.0, 1.0)
    cands = np.sqrt(n / (n - 1.0)) * (q @ centering(n))
    assert best >= np.einsum("ij,bij->b", init.columns, cands).max() - 1e-10
    # generic distinct columns with d > n: the centered rank is distinct - 1
    assert out.rank_deficient == (distinct - 1 < n - 1)


def test_dimension_too_small():
    init = random_init(0, 4, 4)
    with pytest.raises(DimensionTooSmall):
        nearest_optimal_structure(init)
    with pytest.raises(DimensionTooSmall):
        random_optimal_structure(5, 5, seed=0)


def test_deviation_of_random_unit_columns_is_large():
    for seed in range(10):
        cols = rng.gaussian(rng.stream(seed, "dev"), (16, 5))
        cols /= np.linalg.norm(cols, axis=0)
        s = StructureMatrix(columns=cols, class_ids=tuple(range(5)))
        assert geometric_optimality_deviation(s) > 1e-3


def test_etf_off_diagonal_value_n60():
    s = random_optimal_structure(60, 80, seed=1)
    gram = s.columns.T @ s.columns
    off = gram[~np.eye(60, dtype=bool)]
    np.testing.assert_allclose(off, -1.0 / 59.0, atol=1e-8)


def test_random_structure_deterministic():
    a = random_optimal_structure(3, 8, seed=0)
    b = random_optimal_structure(3, 8, seed=0)
    assert np.array_equal(a.columns, b.columns)
    c = random_optimal_structure(3, 8, seed=1)
    assert not np.array_equal(a.columns, c.columns)


def test_smr_identical_is_one():
    s = random_optimal_structure(4, 9, seed=3)
    init = InitialStructure(columns=s.columns.copy(), class_ids=s.class_ids,
                            historical=np.zeros(4, dtype=bool))
    assert structure_matching_rate(init, s) == pytest.approx(1.0)


def test_smr_random_orthogonal_concentrates_near_zero():
    # 100 seeded trials of 32 classes in d_g = 512: mean column cosine stays
    # within 0.05, 6.4 null standard deviations (1 / sqrt(32 * 512))
    values = []
    for seed in range(100):
        init = random_init(seed, 512, 32)
        target = random_optimal_structure(32, 512, seed=seed + 1000)
        values.append(structure_matching_rate(init, target))
    assert max(abs(v) for v in values) <= 0.05


def test_smr_shape_mismatch():
    a = random_optimal_structure(3, 8, seed=0)
    b = random_optimal_structure(4, 8, seed=0)
    with pytest.raises(ShapeError):
        structure_matching_rate(a, b)
