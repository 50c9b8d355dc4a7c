import math
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from concm import rng
from concm.augment import (PrototypeRepository, class_statistics, epoch_labels,
                           novel_covariance, sample_augmented, shot_variance,
                           transfer_weights)
from concm.autodiff import Tape, zero_norm_rows
from concm.data import FeatureSet
from concm.errors import (DegenerateInput, InsufficientSamples, InvalidConfig,
                          InvalidStats, MissingClass)
from concm.projector import init_projector_params, plan_epoch, train_projector
from concm.structure import random_optimal_structure


def test_two_point_statistics():
    fs = FeatureSet(features=np.array([[1.0, 1.0], [3.0, 3.0]]),
                    labels=np.array([0, 0]), class_names=("c",))
    means, variances = class_statistics(fs)
    np.testing.assert_allclose(means, [[2.0, 2.0]])
    np.testing.assert_allclose(variances, [[1.0, 1.0]])  # population variance


def test_constant_class_zero_variance():
    fs = FeatureSet(features=np.ones((5, 3)), labels=np.zeros(5, dtype=int),
                    class_names=("c",))
    np.testing.assert_allclose(class_statistics(fs)[1], 0.0)


def test_statistics_recover_planted_covariance():
    # 10 % is 5 standard errors of the sample variance (sqrt(2 / n) of it)
    true_cov = np.array([0.5, 1.0, 2.0, 0.25])
    gen = rng.stream(14, "cov-fixture")
    feats = 3.0 + rng.gaussian(gen, (5000, 4)) * np.sqrt(true_cov)
    fs = FeatureSet(features=feats, labels=np.zeros(5000, dtype=int),
                    class_names=("c",))
    variances = class_statistics(fs)[1][0]
    assert np.all(np.abs(variances - true_cov) <= 0.1 * true_cov)


def test_insufficient_samples():
    fs = FeatureSet(features=np.ones((1, 2)), labels=np.array([0]),
                    class_names=("c",))
    with pytest.raises(InsufficientSamples):
        class_statistics(fs)


def test_shot_variance_single_shot_is_zero():
    np.testing.assert_array_equal(shot_variance(np.ones((1, 4))), np.zeros(4))


def make_repo(means, variances, exact):
    """A repository of the given rows in order, class k named c<k>."""
    repo = PrototypeRepository()
    for k, (mean, var, is_exact) in enumerate(zip(means, variances, exact)):
        repo = repo.extended([f"c{k}"], [mean], [var], is_exact)
    return repo


def base_fixture():
    return make_repo([[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [2.0, 0.5]],
                     [True, True])


def test_transfer_weights_sharpness():
    # cosines (1, 0) at gamma = 16: weights e^16/(e^16+1) and 1/(e^16+1)
    w = transfer_weights(np.array([2.0, 0.0]), base_fixture(), gamma=16.0)
    expected_small = 1.0 / (math.exp(16.0) + 1.0)
    assert w[0] == pytest.approx(1.0 - expected_small, rel=1e-12)
    assert w[1] == pytest.approx(expected_small, rel=1e-9)
    assert w.sum() == pytest.approx(1.0)


def test_transfer_weights_uniform_for_equal_cosines():
    base = base_fixture()
    p = np.array([1.0, 1.0])
    w = transfer_weights(p, base, gamma=16.0)
    np.testing.assert_allclose(w, [0.5, 0.5])


def test_transfer_weights_degenerate_prototype():
    with pytest.raises(DegenerateInput):
        transfer_weights(np.zeros(2), base_fixture(), gamma=16.0)
    # a zero-norm base mean is named; novel rows are no transfer source
    repo = make_repo([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], np.ones((3, 2)),
                     [True, True, False])
    with pytest.raises(DegenerateInput, match="base prototype 'c1'"):
        transfer_weights(np.ones(2), repo, gamma=16.0)
    w = transfer_weights(np.ones(2), make_repo(
        repo.means[[0, 2]], repo.variances[[0, 2]], [True, False]), 16.0)
    assert w.tolist() == [1.0]


def test_transfer_matches_the_per_class_loop():
    # the loop form over base classes: the weighted variance sum keeps its
    # order (bit-equal); the cosines are summed in another order.  (C, d)
    # prototype rows give the stacked one-row results
    repo = random_repo(9, 7)
    gen = rng.stream(5, "transfer-reference")
    base = np.flatnonzero(repo.exact)
    for shape in [(7,), (1, 7), (4, 7)]:
        p = rng.gaussian(gen, shape)
        shot_cov = gen.random(shape)
        w = transfer_weights(p, repo, gamma=16.0)
        cov = novel_covariance(shot_cov, repo, w, 0.6)
        assert w.shape == shape[:-1] + (base.size,) and cov.shape == shape
        for row, row_w, row_cov, row_shot in zip(
                *map(np.atleast_2d, (p, w, cov, shot_cov))):
            cosines = np.array([repo.means[k] @ row
                                / (np.linalg.norm(repo.means[k])
                                   * np.linalg.norm(row)) for k in base])
            want = np.exp(16.0 * (cosines - cosines.max()))
            np.testing.assert_allclose(row_w, want / want.sum(),
                                       rtol=64 * np.finfo(float).eps)
            np.testing.assert_allclose(row_w, transfer_weights(row, repo, 16.0),
                                       rtol=1e-12, atol=1e-12)
            transferred = np.zeros(7)
            for k, wk in zip(base, row_w):
                transferred += wk * repo.variances[k]
            assert row_cov.tobytes() == \
                (0.6 * (row_shot + transferred)).tobytes() == \
                novel_covariance(row_shot, repo, row_w, 0.6).tobytes()


@pytest.mark.parametrize("scale", [1e-13, 1e-50, 1e-100, 1e-150])
def test_transfer_weights_do_not_depend_on_the_scale_of_the_means(scale):
    # cosines are scale-free, so a mean is degenerate only under the
    # package's one zero-norm rule (zero_norm_rows); one prototype or rows
    repo = random_repo(6, 5)
    tiny = make_repo(repo.means * scale, repo.variances, repo.exact)
    for shape in [(5,), (3, 5)]:
        p = rng.gaussian(rng.stream(3, "prototype"), shape)
        np.testing.assert_allclose(transfer_weights(p * scale, tiny, 16.0),
                                   transfer_weights(p, repo, 16.0), rtol=1e-12)


def test_novel_covariance_arithmetic():
    base = base_fixture()
    w = np.array([0.5, 0.5])
    # weighted base sum = (1.5, 0.75); shot cov (1, 1); beta 0.6
    out = novel_covariance(np.array([1.0, 1.0]), base, w, beta=0.6)
    np.testing.assert_allclose(out, 0.6 * np.array([2.5, 1.75]))


def test_novel_covariance_single_shot_positive():
    base = base_fixture()
    w = np.array([1.0, 0.0])
    out = novel_covariance(np.zeros(2), base, w, beta=0.6)
    assert np.all(out > 0.0)


def test_novel_covariance_errors():
    base = base_fixture()
    with pytest.raises(InvalidConfig):
        novel_covariance(np.ones(2), base, np.array([1.0, 0.0]), beta=0.0)
    with pytest.raises(InvalidStats):
        novel_covariance(np.array([-1.0, 0.0]), base, np.array([1.0, 0.0]),
                         beta=0.6)


def full_epoch(repo, counts, seed, epoch=0, replay=None):
    """Every row of an epoch, in class order (its full layout), asked for
    in one call, with the class id of each row as ``labels``; ``counts``
    are the draws per base and per novel class."""
    labels = epoch_labels(repo, *counts, replay)
    aug = sample_augmented(repo, *counts, seed, epoch, replay)
    out = np.empty((labels.size, repo.means.shape[1]))
    return SimpleNamespace(features=aug.rows(np.arange(labels.size), out),
                           labels=labels, n_samples=aug.n_samples)


def repo_fixture():
    return make_repo([[5.0, -3.0], [0.0, 2.0]], [[0.0, 0.0], [4.0, 1.0]],
                     [True, False])


def test_sampling_zero_covariance_returns_mean():
    repo = repo_fixture()
    fs = full_epoch(repo, (10, 5), seed=0)
    rows = fs.features[fs.labels == 0]
    assert rows.shape == (10, 2)
    np.testing.assert_array_equal(rows, np.tile([5.0, -3.0], (10, 1)))


def test_sampling_counts_and_names():
    repo = repo_fixture()
    fs = full_epoch(repo, (100, 50), seed=0)
    assert (fs.labels == 0).sum() == 100 and (fs.labels == 1).sum() == 50


def test_sampling_clt_mean_bound():
    cov = np.array([4.0, 1.0, 0.25])
    repo = make_repo([[1.0, -2.0, 0.5]], [cov], [True])
    fs = full_epoch(repo, (10000, 1), seed=3)
    err = np.abs(fs.features.mean(axis=0) - repo.means[0])
    assert np.all(err <= 3.0 * np.sqrt(cov) / math.sqrt(10000))


def test_resampling_deterministic_per_epoch():
    repo = repo_fixture()
    a = full_epoch(repo, (100, 50), seed=5, epoch=2)
    b = full_epoch(repo, (100, 50), seed=5, epoch=2)
    assert np.array_equal(a.features, b.features)
    c = full_epoch(repo, (100, 50), seed=5, epoch=3)
    assert not np.array_equal(a.features, c.features)


def test_sampling_bitwise_equals_per_class_reference():
    # the per-class draw mean + z * sqrt(cov), stacked in class order
    gen = rng.stream(7, "stats")
    stats = [(rng.gaussian(gen, (9,)) * 3.0, gen.random(9) * 2.0)
             for _ in range(5)]
    repo = make_repo(*zip(*stats), [True] * 3 + [False] * 2)
    counts = (11, 4)
    for epoch in (0, 3):
        fs = full_epoch(repo, counts, seed=2, epoch=epoch)
        want, labels = [], []
        for cid, (mean, var) in enumerate(stats):
            n = counts[0] if cid < 3 else counts[1]
            z = rng.gaussian(rng.stream(2, "augment", epoch, cid), (n, 9))
            want.append(mean + z * np.sqrt(var))
            labels += [cid] * n
        assert fs.features.tobytes() == np.vstack(want).tobytes()
        assert fs.labels.tolist() == labels
        assert fs.labels.dtype == np.int64


@settings(max_examples=60, deadline=None)
@given(exact=st.lists(st.booleans(), min_size=1, max_size=6),
       new_exact=st.booleans(), d=st.integers(1, 5),
       base=st.integers(1, 6), novel=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32), epoch=st.integers(0, 5))
def test_adding_a_class_leaves_other_classes_draws_unchanged(
        exact, new_exact, d, base, novel, seed, epoch):
    gen = rng.stream(seed, "independence-stats")

    def stats():
        return [rng.gaussian(gen, (1, d)), gen.random((1, d)) * 2.0]

    repo = PrototypeRepository()
    for cid, is_exact in enumerate(exact):
        repo = repo.extended([f"c{cid}"], *stats(), is_exact)
    counts = (base, novel)
    before = full_epoch(repo, counts, seed=seed, epoch=epoch)
    repo = repo.extended(["new"], *stats(), new_exact)
    after = full_epoch(repo, counts, seed=seed, epoch=epoch)
    for cid in range(len(exact)):
        assert after.features[after.labels == cid].tobytes() == \
            before.features[before.labels == cid].tobytes()
    assert (after.labels == len(exact)).sum() == (base if new_exact else novel)


@settings(max_examples=60, deadline=None)
@given(columns=st.lists(st.one_of(st.none(),
                                  st.floats(-1e3, 1e3).map(lambda v: v + 0.0)),
                        min_size=2, max_size=8),
       n_base=st.integers(1, 4), per_class=st.integers(2, 6),
       shots=st.integers(1, 5), duplicate_shots=st.booleans(),
       scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2 ** 32))
def test_zero_variance_dimensions_draw_the_class_mean(columns, n_base, per_class,
                                                      shots, duplicate_shots,
                                                      scale, seed):
    # units a backbone never fires (exactly zero in every row) or that hold
    # one constant have zero base and shot variance, so every draw repeats
    # the class mean there; duplicate shot rows have zero shot variance
    const = np.array([c is not None for c in columns])
    values = np.array([0.0 if c is None else c for c in columns])[const]
    # a zero-norm row is no FeatureSet; the zero-mean assume below
    # discarded the all-zero case before FeatureSet checked it
    assume(zero_norm_rows(values[None]).size == 0 or not const.all())
    gen = rng.stream(seed, "dead-units")

    def rows(n):
        x = rng.gaussian(gen, (n, const.size)) * scale + 1.0
        x[:, const] = values
        return x

    base = FeatureSet(features=rows(n_base * per_class),
                      labels=np.repeat(np.arange(n_base), per_class),
                      class_names=tuple(f"b{c}" for c in range(n_base)))
    repo = PrototypeRepository().extended(base.class_names,
                                          *class_statistics(base), exact=True)
    for var in repo.variances:
        assert var[const].tobytes() == np.zeros(values.size).tobytes()
    shot_rows = np.repeat(rows(1), shots, axis=0) if duplicate_shots else rows(shots)
    mean = shot_rows.mean(axis=0)
    assume(np.linalg.norm(mean) > 1e-9)
    shot_cov = shot_variance(shot_rows)
    zero = const | duplicate_shots
    assert shot_cov[zero].tobytes() == np.zeros(zero.sum()).tobytes()
    weights = transfer_weights(mean, repo, gamma=16.0)
    cov = novel_covariance(shot_cov, repo, weights, 0.6)
    repo = repo.extended(["novel", "shots"], [mean, mean], [cov, shot_cov],
                         exact=False)
    fs = full_epoch(repo, (5, 7), seed=seed)
    for cid, (name, mean) in enumerate(zip(repo.names, repo.means)):
        cols = zero if name == "shots" else const
        drawn = fs.features[fs.labels == cid][:, cols]
        assert drawn.tobytes() == np.broadcast_to(
            mean[cols], drawn.shape).tobytes()


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 8), n_base=st.integers(1, 5),
       scale=st.floats(1e-3, 1e3), gamma=st.floats(0.1, 64.0),
       beta=st.floats(1e-3, 1.0), seed=st.integers(0, 2 ** 32))
def test_one_shot_session_statistics_and_draws_are_finite(d, n_base, scale,
                                                          gamma, beta, seed):
    gen = rng.stream(seed, "one-shot")
    repo = make_repo(*zip(*[(rng.gaussian(gen, (d,)) * scale + 1.0,
                             gen.random(d) * scale ** 2)
                            for _ in range(n_base)]), [True] * n_base)
    shot = rng.gaussian(gen, (1, d)) * scale
    assume(np.linalg.norm(shot) > 1e-9)
    shot_cov = shot_variance(shot)
    assert shot_cov.tobytes() == np.zeros(d).tobytes()
    weights = transfer_weights(shot[0], repo, gamma)
    cov = novel_covariance(shot_cov, repo, weights, beta)
    assert cov.shape == (d,) and np.all(np.isfinite(cov)) and np.all(cov >= 0.0)
    repo = repo.extended(["novel"], shot, [cov], exact=False)
    fs = full_epoch(repo, (3, 9), seed=seed)
    assert np.all(np.isfinite(fs.features))
    assert (fs.labels == n_base).sum() == 9


def random_repo(n_classes, d, seed=7, exact=None):
    """Random statistics; the last three classes are novel unless
    ``exact`` gives each class's flag."""
    gen = rng.stream(seed, "replay-stats")
    stats = [(rng.gaussian(gen, (d,)), gen.random(d)) for _ in range(n_classes)]
    if exact is None:
        exact = [cid < n_classes - 3 for cid in range(n_classes)]
    return make_repo(*zip(*stats), exact)


def replay_buffer(ids, d, k=3):
    return {cid: rng.gaussian(rng.stream(cid, "replay-rows"), (k, d))
            for cid in ids}


def test_replay_rows_follow_the_draws_by_class():
    repo = random_repo(8, 6)
    counts = (9, 4)
    plain = full_epoch(repo, counts, seed=3, epoch=1)
    # given out of order: the rows still come by ascending class id
    replay = replay_buffer([7, 5, 6], 6)
    fs = full_epoch(repo, counts, seed=3, epoch=1, replay=replay)
    n = plain.n_samples
    assert fs.features[:n].tobytes() == plain.features.tobytes()
    assert fs.labels[:n].tolist() == plain.labels.tolist()
    assert fs.features[n:].tobytes() == np.vstack(
        [replay[5], replay[6], replay[7]]).tobytes()
    assert fs.labels[n:].tolist() == [5] * 3 + [6] * 3 + [7] * 3


def shuffled_plan(labels, batch_size, seed, epoch, anchored):
    """``plan_epoch`` with the slots of each batch in a seeded random order."""
    return [b[rng.stream(seed, "slots", epoch, i).permutation(b.size)]
            for i, b in enumerate(plan_epoch(labels, batch_size, seed, epoch,
                                             anchored))]


def reference_steps(repo, counts, seed, replay, labels, epochs, batch_size,
                    anchored, plan=plan_epoch):
    """(rows, labels) of every training step: each class's stream drawn
    once per epoch, its rows handed out in slot order (batch by batch, in
    batch order), replay slots filled with their replay rows."""
    d = repo.means.shape[1]
    sizes = [counts[0] if e else counts[1] for e in repo.exact]
    drawn = sum(sizes)
    replayed = [row for cid in sorted(replay) for row in replay[cid]]
    steps = []
    for epoch in range(epochs):
        full = {}
        for cid, n in enumerate(sizes):
            z = rng.gaussian(rng.stream(seed, "augment", epoch, cid), (n, d))
            full[cid] = list(z * np.sqrt(repo.variances[cid]) + repo.means[cid])
        for idx in plan(labels, batch_size, seed, epoch, anchored):
            rows = [full[labels[i]].pop(0) if i < drawn else replayed[i - drawn]
                    for i in idx]
            steps.append((np.array(rows), labels[idx]))
    return steps


@settings(max_examples=80, deadline=None)
@given(exact=st.lists(st.booleans(), min_size=1, max_size=7),
       base=st.integers(1, 9), novel=st.integers(1, 9), d=st.integers(1, 4),
       replayed=st.dictionaries(st.integers(0, 6), st.integers(1, 5),
                                max_size=4),
       anchored=st.frozensets(st.integers(0, 7), max_size=4),
       batch_size=st.integers(1, 40), seed=st.integers(0, 2 ** 32),
       epochs=st.integers(1, 3), shuffled=st.booleans())
def test_batches_draw_each_class_stream_in_slot_order(
        exact, base, novel, d, replayed, anchored, batch_size, seed, epochs,
        shuffled):
    # planned batches come in ascending layout order; shuffled slots check
    # that any slot order gets each class's rows in slot order
    repo = random_repo(len(exact), d, seed=seed, exact=exact)
    replay = {c: rng.gaussian(rng.stream(c, "replay-rows"), (k, d))
              for c, k in replayed.items() if c < len(exact)}
    labels = epoch_labels(repo, base, novel, replay)
    n = len(repo)
    fed = []
    forward = Tape.forward

    def recording_forward(tape, feeds=None):
        fed.append((feeds["x"].copy(), feeds["onehot"].argmax(axis=1)))
        return forward(tape, feeds)

    plan = shuffled_plan if shuffled else plan_epoch
    with patch.object(Tape, "forward", recording_forward), \
            patch("concm.projector.plan_epoch", plan):
        train_projector(init_projector_params(d, 3, n + 2, seed=1),
                        random_optimal_structure(n + 1, n + 2, seed=2), anchored,
                        labels,
                        lambda epoch: sample_augmented(repo, base, novel, seed,
                                                       epoch, replay),
                        epochs=epochs, lr_max=0.0, warmup_steps=0,
                        batch_size=batch_size, seed=seed, tau=0.07)
    want = reference_steps(repo, (base, novel), seed, replay, labels, epochs,
                           batch_size, anchored, plan)
    assert len(fed) == len(want)
    for (x, y), (want_x, want_y) in zip(fed, want):
        assert x.tobytes() == want_x.tobytes()
        assert y.tolist() == want_y.tolist()


def test_epoch_with_replay_is_held_once(peak_bytes):
    # a batch is drawn straight into the caller's buffer, a run of slots at
    # a time: drawing it allocates little beyond the buffer
    repo = random_repo(12, 64)
    replay = replay_buffer(range(9, 12), 64, k=5)
    labels = epoch_labels(repo, 60, 30, replay)
    idx = np.flatnonzero(labels >= 6)[::-3][:128]
    assert (idx >= labels.size - 15).any()
    aug = sample_augmented(repo, 60, 30, 1, 2, replay)
    out = np.empty((128, 64))
    assert peak_bytes(lambda: aug.rows(idx, out)) < 1.25 * out.nbytes
    assert np.shares_memory(aug.rows(idx, out), out)


@pytest.mark.parametrize("n_base,n_novel", [(0, 50), (100, 0)])
def test_sampling_counts_below_one_rejected(n_base, n_novel):
    with pytest.raises(InvalidConfig, match="sample counts must be >= 1"):
        epoch_labels(repo_fixture(), n_base, n_novel)
    with pytest.raises(InvalidConfig, match="sample counts must be >= 1"):
        sample_augmented(repo_fixture(), n_base, n_novel, 0, 0)


def test_sampling_empty_repository_rejected():
    with pytest.raises(MissingClass):
        epoch_labels(PrototypeRepository(), 100, 50)
    with pytest.raises(MissingClass):
        sample_augmented(PrototypeRepository(), 100, 50, 0, 0)


def test_negative_stats_rejected():
    # the class at fault is named, and the repository is left as it was
    repo = base_fixture()
    means = np.zeros((3, 2))
    with pytest.raises(InvalidStats, match="'n1': negative variance"):
        repo.extended(["n0", "n1", "n2"], means,
                      [[0.0, 1.0], [-0.1, 1.0], [1.0, 1.0]], False)
    means[2, 0] = np.nan
    with pytest.raises(InvalidStats, match="'n2': non-finite statistics"):
        repo.extended(["n0", "n1", "n2"], means, np.ones((3, 2)), False)
    assert len(repo) == 2 and repo.names == ("c0", "c1")


def test_extended_appends_rows_as_the_next_class_ids():
    repo = base_fixture()
    new = repo.extended(["n0"], [[3.0, 4.0]], [[0.5, 0.25]], exact=False)
    assert new.names == ("c0", "c1", "n0")
    assert new.means.tolist() == [[1.0, 0.0], [0.0, 1.0], [3.0, 4.0]]
    assert new.variances.tolist() == [[1.0, 1.0], [2.0, 0.5], [0.5, 0.25]]
    assert new.exact.tolist() == [True, True, False]
    # the earlier repository is unchanged
    assert len(repo) == 2 and repo.means.shape == (2, 2)


def test_mean_and_covariance_similarity_correlate_on_benchmark():
    # classes sharing attributes have similar means and similar variances
    from concm.synth import GenConfig, generate_benchmark
    bench = generate_benchmark(GenConfig(seed=1))
    names = sorted(bench.truth)
    means = np.array([bench.truth[n].mean for n in names])
    covs = np.array([bench.truth[n].cov_diag for n in names])
    means_n = means / np.linalg.norm(means, axis=1, keepdims=True)
    covs_n = covs / np.linalg.norm(covs, axis=1, keepdims=True)
    mc = (means_n @ means_n.T)[np.triu_indices(len(names), k=1)]
    cc = (covs_n @ covs_n.T)[np.triu_indices(len(names), k=1)]
    r = np.corrcoef(mc, cc)[0, 1]
    assert r > 0.0
