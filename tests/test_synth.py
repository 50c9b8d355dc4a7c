import json

import numpy as np
import pytest

from concm.attributes import build_knowledge, build_pool
from concm.errors import InvalidConfig
from concm.synth import GenConfig, generate_benchmark, write_benchmark


def small_cfg(**kw):
    defaults = dict(base_classes=6, sessions=2, way=3, shot=5, d_f=16, d_s=6,
                    pool_size=8, attrs_per_class=3, base_samples=20,
                    test_samples=5, seed=0)
    defaults.update(kw)
    return GenConfig(**defaults)


def test_shapes_and_split():
    bench = generate_benchmark(small_cfg())
    assert len(bench.train_sets) == 3 and len(bench.test_sets) == 3
    base = bench.train_sets[0]
    assert base.n_classes == 6 and base.n_samples == 120
    for t in (1, 2):
        fs = bench.train_sets[t]
        assert fs.n_classes == 3
        assert np.all(fs.counts() == 5)
    names = [n for fs in bench.train_sets for n in fs.class_names]
    assert len(names) == len(set(names)) == 12


def test_same_seed_identical_different_seed_not():
    a = generate_benchmark(small_cfg())
    b = generate_benchmark(small_cfg())
    assert np.array_equal(a.train_sets[0].features, b.train_sets[0].features)
    assert np.array_equal(a.test_sets[2].features, b.test_sets[2].features)
    c = generate_benchmark(small_cfg(seed=1))
    assert not np.array_equal(a.train_sets[0].features,
                              c.train_sets[0].features)


def test_every_pool_attribute_covered_by_base():
    bench = generate_benchmark(small_cfg())
    covered = set()
    for name in bench.train_sets[0].class_names:
        covered.update(bench.table.attributes_for(name))
    assert covered == set(f"attr_{i:02d}" for i in range(8))


def test_distinct_attribute_subsets():
    bench = generate_benchmark(small_cfg())
    combos = {tuple(sorted(t.attributes)) for t in bench.truth.values()}
    assert len(combos) == 12


def test_planted_association_round_trips_through_build_knowledge():
    bench = generate_benchmark(small_cfg())
    all_names = [n for fs in bench.train_sets for n in fs.class_names]
    kn = build_knowledge(all_names, bench.embeddings, bench.table,
                         build_pool(bench.train_sets[0], bench.table,
                                    bench.embeddings))
    for j, name in enumerate(all_names):
        planted = set(bench.truth[name].attributes)
        got = {kn.pool.names[i] for i in np.flatnonzero(kn.assoc.r[:, j])}
        assert got == planted


def test_means_are_attribute_sums_plus_small_unique():
    cfg = small_cfg(unique_scale=0.0)
    bench = generate_benchmark(cfg)
    for name, truth in bench.truth.items():
        attr_sum = np.sum([bench.attribute_visual[a] for a in truth.attributes],
                          axis=0)
        np.testing.assert_allclose(truth.mean, attr_sum, atol=1e-12)


def test_infeasible_configs_rejected():
    with pytest.raises(InvalidConfig):
        generate_benchmark(small_cfg(pool_size=4, attrs_per_class=2,
                                     base_classes=6, sessions=2, way=3))
    with pytest.raises(InvalidConfig):
        generate_benchmark(small_cfg(attrs_per_class=0))
    with pytest.raises(InvalidConfig):
        generate_benchmark(small_cfg(noise=0.0))
    # 10 base classes of 3 attributes cover at most 30 of a 40-attribute pool
    with pytest.raises(InvalidConfig, match="no base class"):
        generate_benchmark(small_cfg(base_classes=10, pool_size=40))
    with pytest.raises(InvalidConfig, match="pool_size"):
        generate_benchmark(small_cfg(base_classes=5000, pool_size=10_001))
    # each size alone, and the generated arrays together, are capped
    with pytest.raises(InvalidConfig, match="d_f = 10000000000000 "):
        generate_benchmark(small_cfg(d_f=10 ** 13))
    with pytest.raises(InvalidConfig, match="over the cap"):
        generate_benchmark(small_cfg(sessions=100_000, way=1000))


def test_write_benchmark_files(tmp_path):
    bench = generate_benchmark(small_cfg())
    manifest_path = write_benchmark(bench, tmp_path / "out")
    out = tmp_path / "out"
    for fname in ("base.csv", "session_01.csv", "session_02.csv", "test_00.csv",
                  "attributes.json", "semantic.csv", "truth.json",
                  "manifest.json"):
        assert (out / fname).exists()
    assert manifest_path == out / "manifest.json"

    from concm.data import load_manifest, load_features
    m = load_manifest(manifest_path)
    fs = load_features(m.base)
    assert np.array_equal(fs.features, bench.train_sets[0].features)
    assert len(m.tests) == 3
    assert json.loads(manifest_path.read_text())["truth"] == "truth.json"


def test_write_benchmark_deterministic_bytes(tmp_path):
    bench = generate_benchmark(small_cfg())
    write_benchmark(bench, tmp_path / "a")
    write_benchmark(generate_benchmark(small_cfg()), tmp_path / "b")
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()
