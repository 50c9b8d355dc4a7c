import weakref
from dataclasses import replace

import numpy as np
import pytest

from concm import rng, session
from concm.data import FeatureSet
from concm.errors import InvalidConfig, ProtocolViolation
from concm.metrics import report_to_json
from concm.session import (PipelineInputs, SessionConfig, run_base_session,
                           run_incremental_session, run_pipeline)
from concm.structure import (geometric_optimality_deviation,
                             random_optimal_structure, structure_matching_rate)
from concm.synth import GenConfig, generate_benchmark


def tiny_gen(seed=0):
    return GenConfig(base_classes=6, sessions=2, way=3, shot=5, d_f=24, d_s=8,
                     pool_size=8, attrs_per_class=3, base_samples=40,
                     test_samples=12, seed=seed)


def tiny_cfg(seed=0, **kw):
    defaults = dict(way=3, shot=5, sessions=2, base_classes=6, d_g=24,
                    lr_projector=0.5, epochs_base=12, epochs_incremental=6,
                    meta_episodes=40, batch_size=48, seed=seed)
    defaults.update(kw)
    return SessionConfig(**defaults)


@pytest.fixture(scope="module")
def bench():
    return generate_benchmark(tiny_gen())


@pytest.fixture(scope="module")
def inputs(bench):
    return PipelineInputs(config=tiny_cfg(), train_sets=bench.train_sets,
                          test_sets=bench.test_sets, table=bench.table,
                          embeddings=bench.embeddings)


@pytest.fixture(scope="module")
def base_state(bench):
    return run_base_session(tiny_cfg(), bench.train_sets[0], bench.table,
                            bench.embeddings)


def test_base_session_structure_and_accuracy(bench, base_state):
    state = base_state
    assert state.t == 0 and state.n_classes == 6
    assert geometric_optimality_deviation(state.structure) <= 1e-8
    from concm.session import evaluate_session
    rec = evaluate_session(state, bench.test_sets[0].features,
                           bench.test_sets[0].labels)
    assert rec.top1 > 100.0 / 6.0  # well above chance
    assert rec.nacc is None and rec.hm is None


def test_incremental_session_growth_and_distillation(bench, base_state):
    state1 = run_incremental_session(base_state, bench.train_sets[1],
                                     bench.table, bench.embeddings)
    assert state1.t == 1 and state1.n_classes == 9
    assert geometric_optimality_deviation(state1.structure) <= 1e-8
    # old initial-structure columns equal the previous target columns exactly
    assert np.array_equal(state1.initial.columns[:, :6],
                          base_state.structure.columns)
    # base statistics never mutate across sessions
    for cid in range(6):
        assert state1.repository.get(cid).mean is base_state.repository.get(cid).mean
    # replay keeps all five shots per novel class
    assert sorted(state1.replay) == [6, 7, 8]
    assert all(v.shape == (5, 24) for v in state1.replay.values())
    # matched update stays closer to the initial structure than a random ETF
    smr_random = structure_matching_rate(
        state1.initial, random_optimal_structure(9, 24, seed=123))
    assert state1.smr > smr_random


def test_incremental_protocol_violations(bench, base_state):
    fs = bench.train_sets[1]
    wrong_way = FeatureSet(features=fs.features[fs.labels < 2],
                           labels=fs.labels[fs.labels < 2],
                           class_names=fs.class_names[:2])
    with pytest.raises(ProtocolViolation):
        run_incremental_session(base_state, wrong_way, bench.table,
                                bench.embeddings)
    dup = FeatureSet(features=fs.features, labels=fs.labels,
                     class_names=("class_00",) + fs.class_names[1:])
    with pytest.raises(ProtocolViolation):
        run_incremental_session(base_state, dup, bench.table, bench.embeddings)
    short = FeatureSet(features=fs.features[1:], labels=fs.labels[1:],
                       class_names=fs.class_names)
    with pytest.raises(ProtocolViolation):
        run_incremental_session(base_state, short, bench.table,
                                bench.embeddings)


def test_pipeline_deterministic_reports(inputs):
    a = run_pipeline(inputs, strategy="concm")
    b = run_pipeline(inputs, strategy="concm")
    assert report_to_json(a.report) == report_to_json(b.report)


def test_pipeline_seed_changes_report(inputs):
    a = run_pipeline(inputs, strategy="concm")
    b = run_pipeline(inputs, strategy="concm", seed=99)
    assert report_to_json(a.report) != report_to_json(b.report)


def test_pipeline_replay_zero_completes(bench):
    cfg = tiny_cfg(replay_per_class=0, epochs_base=6, epochs_incremental=3,
                   meta_episodes=10)
    inputs = PipelineInputs(config=cfg, train_sets=bench.train_sets,
                            test_sets=bench.test_sets, table=bench.table,
                            embeddings=bench.embeddings)
    result = run_pipeline(inputs, strategy="concm")
    assert result.state.replay == {}
    assert len(result.report.sessions) == 3


def test_pipeline_strategies(bench):
    cfg = tiny_cfg(epochs_base=6, epochs_incremental=3, meta_episodes=10)
    inputs = PipelineInputs(config=cfg, train_sets=bench.train_sets,
                            test_sets=bench.test_sets, table=bench.table,
                            embeddings=bench.embeddings)
    rm = run_pipeline(inputs, strategy="rm")
    assert all(abs(r.smr) < 0.5 for r in rm.report.sessions[1:])
    fs_run = run_pipeline(inputs, strategy="fs")
    # a fixed structure sized for all 12 classes is not optimal for fewer
    assert geometric_optimality_deviation(fs_run.traces[1].structure) > 1e-3
    # but the final session uses all pre-allocated columns, which do form an ETF
    assert geometric_optimality_deviation(fs_run.state.structure) <= 1e-8
    frozen = run_pipeline(inputs, strategy="frozen")
    assert np.array_equal(frozen.state.theta_g.w1,
                          run_base_session(cfg, bench.train_sets[0], bench.table,
                                           bench.embeddings,
                                           strategy="frozen").theta_g.w1)
    with pytest.raises(InvalidConfig):
        run_pipeline(inputs, strategy="nope")


def test_fs_sessions_use_prefix_of_seeded_full_structure(bench):
    cfg = tiny_cfg(epochs_base=2, epochs_incremental=1, meta_episodes=3)
    inputs = PipelineInputs(config=cfg, train_sets=bench.train_sets,
                            test_sets=bench.test_sets, table=bench.table,
                            embeddings=bench.embeddings)
    full = random_optimal_structure(cfg.total_classes, cfg.d_g,
                                    rng.derive_seed(cfg.seed, "fs"))
    traces = run_pipeline(inputs, strategy="fs").traces
    assert [tr.structure.num_classes for tr in traces] == [6, 9, 12]
    for tr in traces:
        n = tr.structure.num_classes
        assert np.array_equal(tr.structure.columns, full.columns[:, :n])
        assert tr.structure.class_ids == tuple(range(n))


def test_pipeline_without_test_files_falls_back_to_train(bench):
    cfg = tiny_cfg(epochs_base=4, epochs_incremental=2, meta_episodes=5)
    inputs = PipelineInputs(config=cfg, train_sets=bench.train_sets,
                            test_sets=[], table=bench.table,
                            embeddings=bench.embeddings)
    result = run_pipeline(inputs, strategy="frozen")
    assert len(result.report.sessions) == 3


def test_pipeline_base_only_run(bench):
    cfg = tiny_cfg(sessions=0, epochs_base=4, meta_episodes=5)
    inputs = PipelineInputs(config=cfg, train_sets=bench.train_sets[:1],
                            test_sets=bench.test_sets[:1], table=bench.table,
                            embeddings=bench.embeddings)
    result = run_pipeline(inputs, strategy="frozen")
    assert len(result.report.sessions) == 1
    assert result.report.ahm is None
    assert result.report.pd == pytest.approx(0.0)
    from concm.metrics import report_from_json, report_to_json
    assert report_from_json(report_to_json(result.report)).ahm is None


def test_config_validation(tmp_path):
    with pytest.raises(InvalidConfig):
        SessionConfig(base_classes=1).validate()
    with pytest.raises(InvalidConfig):
        SessionConfig(d_g=20, base_classes=10, way=5, sessions=4).validate()
    with pytest.raises(InvalidConfig):
        SessionConfig(alpha=1.5).validate()
    path = tmp_path / "cfg.json"
    path.write_text('{"nonsense": 1}')
    with pytest.raises(InvalidConfig):
        SessionConfig.from_json(path)


def test_config_json_round_trip(tmp_path):
    import dataclasses
    import json
    cfg = tiny_cfg(alpha=0.75)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    back = SessionConfig.from_json(path)
    assert back == cfg


def test_base_session_wrong_class_count(bench):
    cfg = tiny_cfg(base_classes=7)
    with pytest.raises(ProtocolViolation):
        run_base_session(cfg, bench.train_sets[0], bench.table,
                         bench.embeddings)


def test_uncovered_novel_class_falls_back_to_raw_prototype(bench, base_state):
    # empty attribute list: no pool overlap, so the blended prototype must
    # equal the raw shot mean
    from concm.attributes import AttributeTable
    novel = bench.train_sets[1]
    bare = dict(bench.table.classes)
    victim = novel.class_names[0]
    bare[victim] = []
    state1 = run_incremental_session(base_state, novel, AttributeTable(bare),
                                     bench.embeddings)
    cid = 6
    raw_mean = novel.class_features(0).mean(axis=0)
    np.testing.assert_allclose(state1.repository.get(cid).mean, raw_mean,
                               rtol=0, atol=1e-12)
    # covered classes are actually calibrated (blend differs from raw)
    other_raw = novel.class_features(1).mean(axis=0)
    assert not np.allclose(state1.repository.get(7).mean, other_raw)


def test_pipeline_holds_one_augmentation_epoch_at_a_time(inputs, monkeypatch):
    # when an epoch is drawn, every earlier draw has been released: the
    # first draw is not pinned for the session, nor the last by training
    drawn = []
    real = session.sample_augmented

    def sample(*args, **kwargs):
        assert all(ref() is None for ref in drawn), len(drawn)
        out = real(*args, **kwargs)
        drawn.append(weakref.ref(out.features))
        return out

    monkeypatch.setattr(session, "sample_augmented", sample)
    config = tiny_cfg(epochs_base=3, epochs_incremental=2, meta_episodes=5)
    run_pipeline(replace(inputs, config=config))
    assert len(drawn) == 3 + 2 * 2
