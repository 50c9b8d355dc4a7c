import errno
import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from concm import buffers, rng
from concm.augment import (ClassStats, PrototypeRepository, SampleCounts,
                           class_statistics, novel_covariance, sample_augmented,
                           shot_variance, transfer_weights)
from concm.data import FeatureSet
from concm.errors import (DegenerateInput, InsufficientSamples, InvalidConfig,
                          InvalidStats, MissingClass)


def test_two_point_statistics():
    fs = FeatureSet(features=np.array([[0.0, 0.0], [2.0, 2.0]]),
                    labels=np.array([0, 0]), class_names=("c",))
    stats = class_statistics(fs)[0]
    np.testing.assert_allclose(stats.mean, [1.0, 1.0])
    np.testing.assert_allclose(stats.cov_diag, [1.0, 1.0])  # population variance
    assert stats.exact


def test_constant_class_zero_variance():
    fs = FeatureSet(features=np.ones((5, 3)), labels=np.zeros(5, dtype=int),
                    class_names=("c",))
    np.testing.assert_allclose(class_statistics(fs)[0].cov_diag, 0.0)


def test_statistics_recover_planted_covariance():
    true_cov = np.array([0.5, 1.0, 2.0, 0.25])
    gen = rng.stream(14, "cov-fixture")
    feats = 3.0 + rng.gaussian(gen, (600, 4)) * np.sqrt(true_cov)
    fs = FeatureSet(features=feats, labels=np.zeros(600, dtype=int),
                    class_names=("c",))
    stats = class_statistics(fs)[0]
    assert np.all(np.abs(stats.cov_diag - true_cov) <= 0.1 * true_cov)


def test_insufficient_samples():
    fs = FeatureSet(features=np.ones((1, 2)), labels=np.array([0]),
                    class_names=("c",))
    with pytest.raises(InsufficientSamples):
        class_statistics(fs)


def test_shot_variance_single_shot_is_zero():
    np.testing.assert_array_equal(shot_variance(np.ones((1, 4))), np.zeros(4))


def base_fixture():
    return [
        ClassStats(0, "b0", np.array([1.0, 0.0]), np.array([1.0, 1.0]), True),
        ClassStats(1, "b1", np.array([0.0, 1.0]), np.array([2.0, 0.5]), True),
    ]


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


def repo_fixture():
    repo = PrototypeRepository()
    repo.add(ClassStats(0, "b0", np.array([5.0, -3.0]), np.zeros(2), True))
    repo.add(ClassStats(1, "n0", np.array([0.0, 2.0]), np.array([4.0, 1.0]),
                        False))
    return repo


def test_sampling_zero_covariance_returns_mean():
    repo = repo_fixture()
    fs = sample_augmented(repo, SampleCounts(base=10, novel=5), seed=0)
    rows = fs.features[fs.labels == 0]
    assert rows.shape == (10, 2)
    np.testing.assert_array_equal(rows, np.tile([5.0, -3.0], (10, 1)))


def test_sampling_counts_and_names():
    repo = repo_fixture()
    fs = sample_augmented(repo, SampleCounts(), seed=0)
    assert fs.class_names == ("b0", "n0")
    assert (fs.labels == 0).sum() == 100 and (fs.labels == 1).sum() == 50


def test_sampling_clt_mean_bound():
    repo = PrototypeRepository()
    cov = np.array([4.0, 1.0, 0.25])
    repo.add(ClassStats(0, "c", np.array([1.0, -2.0, 0.5]), cov, True))
    fs = sample_augmented(repo, SampleCounts(base=10000, novel=1), seed=3)
    err = np.abs(fs.features.mean(axis=0) - repo.get(0).mean)
    assert np.all(err <= 3.0 * np.sqrt(cov) / math.sqrt(10000))


def test_resampling_deterministic_per_epoch():
    repo = repo_fixture()
    a = sample_augmented(repo, SampleCounts(), seed=5, epoch=2)
    b = sample_augmented(repo, SampleCounts(), seed=5, epoch=2)
    assert np.array_equal(a.features, b.features)
    c = sample_augmented(repo, SampleCounts(), seed=5, epoch=3)
    assert not np.array_equal(a.features, c.features)


def test_sampling_bitwise_equals_per_class_reference():
    # the per-class draw mean + z * sqrt(cov), stacked in class order
    gen = rng.stream(7, "stats")
    repo = PrototypeRepository()
    for cid in range(5):
        repo.add(ClassStats(cid, f"c{cid}", rng.gaussian(gen, (9,)) * 3.0,
                            rng.uniform(gen, 9) * 2.0, exact=cid < 3))
    counts = SampleCounts(base=11, novel=4)
    for epoch in (0, 3):
        fs = sample_augmented(repo, counts, seed=2, epoch=epoch)
        want, labels = [], []
        for e in repo.entries:
            n = counts.base if e.exact else counts.novel
            z = rng.gaussian(rng.stream(2, "augment", epoch, e.class_id), (n, 9))
            want.append(e.mean + z * np.sqrt(e.cov_diag))
            labels += [e.class_id] * n
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

    def stats(cid, is_exact):
        return ClassStats(cid, f"c{cid}", rng.gaussian(gen, (d,)),
                          rng.uniform(gen, d) * 2.0, is_exact)

    repo = PrototypeRepository()
    for cid, is_exact in enumerate(exact):
        repo.add(stats(cid, is_exact))
    counts = SampleCounts(base=base, novel=novel)
    before = sample_augmented(repo, counts, seed=seed, epoch=epoch)
    repo.add(stats(len(exact), new_exact))
    after = sample_augmented(repo, counts, seed=seed, epoch=epoch)
    for cid in range(len(exact)):
        assert after.features[after.labels == cid].tobytes() == \
            before.features[before.labels == cid].tobytes()
    assert (after.labels == len(exact)).sum() == (base if new_exact else novel)


@settings(max_examples=60, deadline=None)
@given(dead=st.lists(st.booleans(), min_size=2, max_size=8),
       n_base=st.integers(1, 4), per_class=st.integers(2, 6),
       shots=st.integers(1, 5), scale=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2 ** 32))
def test_zero_variance_dimensions_draw_the_class_mean(dead, n_base, per_class,
                                                      shots, scale, seed):
    # units a backbone never fires (exactly zero in every row) have zero
    # base and shot variance, so every draw repeats the class mean there
    dead = np.array(dead)
    gen = rng.stream(seed, "dead-units")

    def rows(n):
        x = rng.gaussian(gen, (n, dead.size)) * scale + 1.0
        x[:, dead] = 0.0
        return x

    base = FeatureSet(features=rows(n_base * per_class),
                      labels=np.repeat(np.arange(n_base), per_class),
                      class_names=tuple(f"b{c}" for c in range(n_base)))
    repo = PrototypeRepository()
    for stats in class_statistics(base):
        repo.add(stats)
    shot_rows = rows(shots)
    mean = shot_rows.mean(axis=0)
    assume(np.linalg.norm(mean) > 1e-9)
    weights = transfer_weights(mean, repo.entries, gamma=16.0)
    cov = novel_covariance(shot_variance(shot_rows), repo.entries, weights, 0.6)
    repo.add(ClassStats(n_base, "novel", mean, cov, exact=False))
    fs = sample_augmented(repo, SampleCounts(base=5, novel=7), seed=seed)
    for e in repo.entries:
        drawn = fs.features[fs.labels == e.class_id][:, dead]
        assert drawn.tobytes() == np.broadcast_to(
            e.mean[dead], drawn.shape).tobytes()


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 8), n_base=st.integers(1, 5),
       scale=st.floats(1e-3, 1e3), gamma=st.floats(0.1, 64.0),
       beta=st.floats(1e-3, 1.0), seed=st.integers(0, 2 ** 32))
def test_one_shot_session_statistics_and_draws_are_finite(d, n_base, scale,
                                                          gamma, beta, seed):
    gen = rng.stream(seed, "one-shot")
    repo = PrototypeRepository()
    for cid in range(n_base):
        repo.add(ClassStats(cid, f"b{cid}", rng.gaussian(gen, (d,)) * scale + 1.0,
                            rng.uniform(gen, d) * scale ** 2, exact=True))
    shot = rng.gaussian(gen, (1, d)) * scale
    assume(np.linalg.norm(shot) > 1e-9)
    shot_cov = shot_variance(shot)
    assert shot_cov.tobytes() == np.zeros(d).tobytes()
    weights = transfer_weights(shot[0], repo.entries, gamma)
    cov = novel_covariance(shot_cov, repo.entries, weights, beta)
    assert cov.shape == (d,) and np.all(np.isfinite(cov)) and np.all(cov >= 0.0)
    repo.add(ClassStats(n_base, "novel", shot[0], cov, exact=False))
    fs = sample_augmented(repo, SampleCounts(base=3, novel=9), seed=seed)
    assert np.all(np.isfinite(fs.features))
    assert (fs.labels == n_base).sum() == 9


def random_repo(n_classes, d, seed=7):
    gen = rng.stream(seed, "replay-stats")
    repo = PrototypeRepository()
    for cid in range(n_classes):
        repo.add(ClassStats(cid, f"c{cid}", rng.gaussian(gen, (d,)),
                            rng.uniform(gen, d), exact=cid < n_classes - 3))
    return repo


def replay_buffer(ids, d, k=3):
    return {cid: rng.gaussian(rng.stream(cid, "replay-rows"), (k, d))
            for cid in ids}


def test_replay_rows_follow_the_draws_by_class():
    repo = random_repo(8, 6)
    counts = SampleCounts(base=9, novel=4)
    plain = sample_augmented(repo, counts, seed=3, epoch=1)
    # given out of order: the rows still come by ascending class id
    replay = replay_buffer([7, 5, 6], 6)
    fs = sample_augmented(repo, counts, seed=3, epoch=1, replay=replay)
    n = plain.n_samples
    assert fs.features[:n].tobytes() == plain.features.tobytes()
    assert fs.labels[:n].tolist() == plain.labels.tolist()
    assert fs.features[n:].tobytes() == np.vstack(
        [replay[5], replay[6], replay[7]]).tobytes()
    assert fs.labels[n:].tolist() == [5] * 3 + [6] * 3 + [7] * 3
    assert fs.class_names == plain.class_names


def test_epoch_with_replay_is_held_once(mapping_of):
    # the draws and the replay rows share one array, so drawing an epoch
    # allocates little beyond it; the array lives in its own mapping, which
    # tracemalloc does not see, so everything traced comes on top of it
    repo = random_repo(12, 64)
    replay = replay_buffer(range(9, 12), 64, k=5)
    counts = SampleCounts(base=60, novel=30)
    tracemalloc.start()
    try:
        fs = sample_augmented(repo, counts, seed=1, epoch=2, replay=replay)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mapping_of(fs.features) is not None
    assert fs.features.nbytes + peak < 1.25 * fs.features.nbytes


def test_epoch_mapping_is_released_with_its_feature_set(mapping_of):
    fs = sample_augmented(random_repo(5, 8), SampleCounts(), seed=2,
                          replay=replay_buffer([4], 8))
    ref = weakref.ref(mapping_of(fs.features))
    del fs
    gc.collect()
    assert ref() is None


def no_memory(*args):
    raise OSError(errno.ENOMEM, "Cannot allocate memory")


def test_failed_epoch_mapping_is_a_memory_error(monkeypatch):
    monkeypatch.setattr(buffers.mmap, "mmap", no_memory)
    with pytest.raises(MemoryError):
        sample_augmented(random_repo(4, 3), SampleCounts(), seed=0)


def test_failed_epoch_mapping_exits_2(tmp_path, capsys, monkeypatch):
    from concm.cli import main
    gen = dict(base_classes=4, sessions=1, way=2, shot=2, d_f=8, d_s=4,
               pool_size=6, attrs_per_class=2, base_samples=10,
               test_samples=4, seed=1)
    (tmp_path / "gen.json").write_text(json.dumps(gen))
    assert main(["gen", "--config", str(tmp_path / "gen.json"),
                 "--out", str(tmp_path / "data")]) == 0
    cfg = json.loads((tmp_path / "data" / "config.json").read_text())
    (tmp_path / "run.json").write_text(json.dumps(dict(cfg, meta_episodes=2)))
    monkeypatch.setattr(buffers.mmap, "mmap", no_memory)
    assert main(["run", "--manifest", str(tmp_path / "data" / "manifest.json"),
                 "--config", str(tmp_path / "run.json"),
                 "--out", str(tmp_path / "run")]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "MemoryError"


def test_sampling_empty_repository_rejected():
    with pytest.raises(MissingClass):
        sample_augmented(PrototypeRepository(), SampleCounts(), seed=0)


def test_negative_stats_rejected():
    with pytest.raises(InvalidStats):
        ClassStats(0, "c", np.zeros(2), np.array([-0.1, 1.0]), True)


def test_repository_ordering_enforced():
    from concm.errors import MissingClass
    repo = PrototypeRepository()
    with pytest.raises(MissingClass):
        repo.add(ClassStats(3, "c", np.zeros(2), np.zeros(2), True))


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
