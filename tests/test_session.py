import logging
import weakref
from dataclasses import replace
from typing import get_type_hints

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from concm import augment, rng, session, synth
from concm.attributes import AttributeTable
from concm.data import FeatureSet, load_config
from concm.errors import InvalidConfig, ProtocolViolation
from concm.metrics import report_from_json, report_to_json
from concm.projector import init_projector_params, project
from concm.session import (PipelineInputs, SessionConfig, run_base_session,
                           run_incremental_session, run_pipeline,
                           session_record)
from concm.session import _evaluation_labels
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
    rec = session_record(state, [(bench.test_sets[0].features,
                                  bench.test_sets[0].labels)])
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
    assert state1.repository.means[:6].tobytes() == \
        base_state.repository.means.tobytes()
    assert state1.repository.names[:6] == base_state.repository.names
    assert state1.repository.exact.tolist() == [True] * 6 + [False] * 3
    # replay keeps all five shots per novel class
    assert sorted(state1.replay) == [6, 7, 8]
    assert all(v.shape == (5, 24) for v in state1.replay.values())
    # matched update stays closer to the initial structure than a random ETF
    smr_random = structure_matching_rate(
        state1.initial, random_optimal_structure(9, 24, seed=123))
    assert state1.smr > smr_random


def test_initial_structure_columns_are_projected_repository_means(bench,
                                                                  base_state):
    # the new columns are one projection, before the session's training,
    # of the new classes' repository prototypes: the exact base means at
    # t = 0, the calibrated novel prototypes at t = 1
    def expected(theta_g, repo, ids):
        return np.ascontiguousarray(project(theta_g, repo.means[ids]).T)

    cfg = tiny_cfg()
    theta0 = init_projector_params(24, 24, cfg.d_g,
                                   seed=rng.derive_seed(cfg.seed, "projector"))
    assert base_state.initial.columns.tobytes() == expected(
        theta0, base_state.repository, range(6)).tobytes()
    state1 = run_incremental_session(base_state, bench.train_sets[1],
                                     bench.table, bench.embeddings)
    assert state1.initial.columns[:, 6:].tobytes() == expected(
        base_state.theta_g, state1.repository, range(6, 9)).tobytes()


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
    # a library caller may pass what a config file cannot: NaN
    for name in ("beta", "gamma", "tau", "lr_projector", "lr_calibration"):
        with pytest.raises(InvalidConfig, match=name):
            SessionConfig(**{name: math.nan}).validate()
    path = tmp_path / "cfg.json"
    path.write_text('{"nonsense": 1}')
    with pytest.raises(InvalidConfig):
        load_config(SessionConfig, path)


def _wrongly_typed(cls):
    """(field, value) for each field of ``cls`` and a value its annotation
    forbids: 2.5 and True for an int, an int beyond the float range for a
    float."""
    wrong = {int: {"2.5": 2.5, "True": True}, float: {"10**400": 10 ** 400}}
    return [pytest.param(name, value, id=f"{name}-{label}")
            for name, hint in get_type_hints(cls).items()
            for label, value in wrong[hint].items()]


@pytest.mark.parametrize("name,value", _wrongly_typed(SessionConfig))
def test_session_config_built_in_code_is_checked_before_training(
        inputs, monkeypatch, name, value):
    # a config built in code gets the checks of a config file, in validate,
    # before any meta-training episode
    episodes = []
    monkeypatch.setattr(session, "meta_train",
                        lambda *a, **k: episodes.append(a))
    with pytest.raises(InvalidConfig, match=f"^{name} must be "):
        run_pipeline(replace(inputs, config=replace(inputs.config,
                                                    **{name: value})))
    assert episodes == []


@pytest.mark.parametrize("name,value", _wrongly_typed(GenConfig))
def test_gen_config_built_in_code_is_checked_before_generating(
        monkeypatch, name, value):
    drawn = []
    monkeypatch.setattr(synth, "_unit_rows", lambda *a: drawn.append(a))
    with pytest.raises(InvalidConfig, match=f"^{name} must be "):
        generate_benchmark(replace(tiny_gen(), **{name: value}))
    assert drawn == []


def test_config_json_round_trip(tmp_path):
    import dataclasses
    import json
    cfg = tiny_cfg(alpha=0.75)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    back = load_config(SessionConfig, path)
    assert back == cfg


def test_base_session_wrong_class_count(bench):
    cfg = tiny_cfg(base_classes=7)
    with pytest.raises(ProtocolViolation):
        run_base_session(cfg, bench.train_sets[0], bench.table,
                         bench.embeddings)


@pytest.mark.parametrize("sessions,n_tests,error", [
    (1, 3, InvalidConfig),         # a training set left over
    (3, 3, InvalidConfig),         # a session without a training set
    (2, 2, ProtocolViolation),     # a training set without a test set
    (2, 4, ProtocolViolation)])    # a test set left over
def test_set_counts_are_checked_before_the_base_session(
        inputs, monkeypatch, sessions, n_tests, error):
    episodes = []
    monkeypatch.setattr(session, "meta_train",
                        lambda *a, **k: episodes.append(a))
    tests = (inputs.test_sets * 2)[:n_tests]
    with pytest.raises(error, match="sessions|test sets"):
        run_pipeline(replace(inputs, test_sets=tests,
                             config=replace(inputs.config, sessions=sessions)))
    assert episodes == []


def test_uncovered_novel_class_falls_back_to_raw_prototype(bench, base_state,
                                                          monkeypatch):
    # empty attribute list: no pool overlap, so the blended prototype must
    # equal the raw shot mean
    from concm.attributes import AttributeTable, build_knowledge
    from concm.calibration import Prototype, blend, calibrate
    novel = bench.train_sets[1]
    bare = dict(bench.table.classes)
    victim = novel.class_names[0]
    bare[victim] = []
    calls = []

    def spy(*args):
        calls.append(args[0].class_name)
        return calibrate(*args)

    monkeypatch.setattr(session, "calibrate", spy)
    state1 = run_incremental_session(base_state, novel, AttributeTable(bare),
                                     bench.embeddings)
    cid = 6
    raw_mean = novel.class_features(0).mean(axis=0)
    np.testing.assert_allclose(state1.repository.means[cid], raw_mean,
                               rtol=0, atol=1e-12)
    # covered classes are actually calibrated (blend differs from raw)
    other_raw = novel.class_features(1).mean(axis=0)
    assert not np.allclose(state1.repository.means[7], other_raw)

    # the session's classes share one calibrate call; its rows (one graph,
    # one blend, one transfer) match the public one-row functions applied
    # class by class
    assert calls == [tuple(novel.class_names)]
    kn = build_knowledge(list(novel.class_names), bench.embeddings,
                         AttributeTable(bare), base_state.knowledge.pool)
    cfg, repo = base_state.config, base_state.repository
    for local, name in enumerate(novel.class_names):
        shots = novel.class_features(local)
        raw = Prototype(len(repo) + local, name, shots.mean(axis=0), "raw",
                        shots.shape[0])
        calibrated = calibrate(raw, kn.class_semantic[name], kn,
                               base_state.theta_h)
        mean = blend(raw, calibrated, cfg.alpha).mean
        cov = augment.novel_covariance(
            augment.class_statistics(FeatureSet(
                shots, np.zeros(len(shots), dtype=int), (name,)))[1][0], repo,
            augment.transfer_weights(mean, repo, cfg.gamma), cfg.beta)
        assert state1.repository.names[raw.class_id] == name
        np.testing.assert_allclose(state1.repository.means[raw.class_id], mean,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(state1.repository.variances[raw.class_id],
                                   cov, rtol=1e-12, atol=1e-12)


def test_uncovered_novel_class_is_warned_about_once(bench, caplog):
    # by the knowledge of the session that brings it: later sessions build
    # the knowledge of their own classes only, and its raw prototype is
    # not warned about again
    victim = bench.train_sets[1].class_names[0]
    classes = dict(bench.table.classes, **{victim: []})
    cfg = tiny_cfg(epochs_base=1, epochs_incremental=1, meta_episodes=2)
    with caplog.at_level(logging.WARNING, logger="concm"):
        run_pipeline(PipelineInputs(
            config=cfg, train_sets=bench.train_sets, test_sets=bench.test_sets,
            table=AttributeTable(classes), embeddings=bench.embeddings))
    assert [r.name for r in caplog.records if victim in r.getMessage()] == \
        ["concm.attributes"]


@settings(max_examples=12, deadline=None)
@given(base=st.integers(3, 5), way=st.integers(1, 3), sessions=st.integers(0, 3),
       shot=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_structure_dimension_just_above_class_count(base, way, sessions, shot,
                                                    seed):
    # d_g = N + 1 leaves the ETF of N classes one spare dimension
    gen = GenConfig(base_classes=base, sessions=sessions, way=way, shot=shot,
                    d_f=12, d_s=6, pool_size=6, attrs_per_class=2,
                    base_samples=8, test_samples=4, seed=seed)
    bench = generate_benchmark(gen)
    cfg = SessionConfig(base_classes=base, sessions=sessions, way=way,
                        shot=shot, d_g=gen.total_classes + 1, batch_size=16,
                        epochs_base=3, epochs_incremental=2, meta_episodes=4,
                        meta_shots=3, n_aug_base=12, n_aug_novel=8, seed=seed)
    result = run_pipeline(PipelineInputs(
        config=cfg, train_sets=bench.train_sets, test_sets=bench.test_sets,
        table=bench.table, embeddings=bench.embeddings))
    assert len(result.traces) == sessions + 1
    for tr in result.traces:
        assert geometric_optimality_deviation(tr.structure) <= 1e-8
    report = result.report
    figures = [report.base_acc, report.fa, report.pd]
    figures += [] if report.ahm is None else [report.ahm]
    for rec in report.sessions:
        figures += [rec.top1, rec.smr]
    assert all(math.isfinite(v) for v in figures)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_novel_classes_sharing_no_pool_attribute_keep_raw_prototypes(bench,
                                                                     data):
    # each novel class either keeps its attributes or gets a list that
    # misses the pool: empty, or of attributes no base class has
    pool = {a for name in bench.train_sets[0].class_names
            for a in bench.table.classes[name]}
    classes = dict(bench.table.classes)
    uncovered = set()
    for fs in bench.train_sets[1:]:
        for name in fs.class_names:
            if data.draw(st.booleans()):
                classes[name] = data.draw(st.lists(
                    st.sampled_from(["unseen_a", "unseen_b", "unseen_c"]),
                    max_size=3))
                uncovered.add(name)
    assert not pool & {a for n in uncovered for a in classes[n]}
    cfg = tiny_cfg(epochs_base=2, epochs_incremental=1, meta_episodes=3,
                   alpha=data.draw(st.floats(0.0, 1.0)))
    result = run_pipeline(PipelineInputs(
        config=cfg, train_sets=bench.train_sets, test_sets=bench.test_sets,
        table=AttributeTable(classes), embeddings=bench.embeddings))
    assert len(result.report.sessions) == cfg.sessions + 1
    repo = result.state.repository
    cid = cfg.base_classes
    for fs in bench.train_sets[1:]:
        for local, name in enumerate(fs.class_names):
            if name in uncovered:
                np.testing.assert_allclose(repo.means[cid],
                                           fs.class_features(local).mean(axis=0),
                                           rtol=0, atol=1e-12)
            cid += 1


@pytest.mark.parametrize("scale", [1e-13, 1e-50, 1e-100, 1e-150])
def test_base_set_at_a_tiny_scale_runs_every_session(inputs, scale):
    # the base means are tiny but not zero-norm, so the novel classes'
    # covariance transfer takes them like any other
    base = inputs.train_sets[0]
    tiny = FeatureSet(features=base.features * scale, labels=base.labels,
                      class_names=base.class_names)
    config = tiny_cfg(epochs_base=1, epochs_incremental=1, meta_episodes=2)
    result = run_pipeline(replace(inputs, config=config,
                                  train_sets=[tiny, *inputs.train_sets[1:]]))
    assert [r.t for r in result.report.sessions] == [0, 1, 2]
    assert np.isfinite(result.state.repository.variances).all()


@pytest.fixture(scope="module")
def short_run(inputs):
    """Inputs with a short schedule, and their report JSON."""
    short = replace(inputs, config=tiny_cfg(epochs_base=3, epochs_incremental=2,
                                            meta_episodes=10))
    return short, report_to_json(run_pipeline(short).report)


@settings(max_examples=20, deadline=None)
@given(k=st.integers(-60, 60))
@example(k=-60)
@example(k=60)
def test_report_does_not_depend_on_a_power_of_two_feature_unit(short_run, k):
    # the calibration net works in the pool's unit, a power of two taken
    # from the features; the rest of the pipeline scales with the features
    # or normalizes them, so features x 2**k give the same report bytes
    short, expected = short_run

    def scale(fs):
        return FeatureSet(features=np.ldexp(fs.features, k), labels=fs.labels,
                          class_names=fs.class_names)
    scaled = replace(short, train_sets=[scale(fs) for fs in short.train_sets],
                     test_sets=[scale(fs) for fs in short.test_sets])
    assert report_to_json(run_pipeline(scaled).report) == expected


# The (low, high) extremes of each field that validate accepts, for the
# tiny_gen benchmark: 6 base classes of 40 rows, 12 classes in all.  An end
# that session.LIMITS bounds is taken from there (None here).
_ENDS = dict(lr_projector=(None, None), lr_calibration=(None, None),
             tau=(None, 1e6), gamma=(1e-9, 1e9), beta=(1e-12, 1e12),
             alpha=(None, None), batch_size=(None, 3),
             replay_per_class=(None, 100), warmup_steps=(None, 10 ** 6),
             meta_warmup=(None, 10 ** 6), epochs_base=(None, 0),
             epochs_incremental=(None, 0), meta_episodes=(None, 0),
             n_aug_base=(None, 1), n_aug_novel=(None, 1),
             meta_shots=(None, 39), d_g=(13, 13))
EXTREMES = {key: tuple(bound if bound is not None else end for end, bound
                       in zip(ends, session.LIMITS.get(key, (None, None))))
            for key, ends in _ENDS.items()}


def _one_extreme(key):
    low, high = EXTREMES[key]
    values = st.floats(low, high) if isinstance(low, float) \
        else st.integers(low, high)
    return st.tuples(st.just(key), values)


def _at_both_ends(test):
    for key, ends in EXTREMES.items():
        for value in sorted(set(ends)):
            test = example(change=(key, value))(test)
    return test


@settings(max_examples=40, deadline=None)
@given(change=st.sampled_from(sorted(EXTREMES)).flatmap(_one_extreme))
@_at_both_ends
def test_every_extreme_config_runs_to_a_finite_report(inputs, change):
    # one field at a time at an extreme: the run ends in finite aggregates,
    # and its report survives the JSON round trip byte for byte
    key, value = change
    config = tiny_cfg(**{"epochs_base": 1, "epochs_incremental": 1,
                         "meta_episodes": 2, key: value})
    report = run_pipeline(replace(inputs, config=config)).report
    assert all(math.isfinite(v) for v in (report.ahm, report.fa, report.pd,
                                          report.base_acc))
    text = report_to_json(report)
    assert report_to_json(report_from_json(text)) == text


def test_pipeline_holds_one_augmentation_epoch_at_a_time(inputs, monkeypatch):
    # when an epoch's sampler is made, every earlier one has been released,
    # and every batch of a session is written into one batch-sized buffer
    drawn, buffers = [], []
    real, real_rows = session.sample_augmented, augment.AugmentedEpoch.rows

    def sample(*args, **kwargs):
        assert all(ref() is None for ref in drawn), len(drawn)
        out = real(*args, **kwargs)
        drawn.append(weakref.ref(out))
        return out

    def rows(self, idx, out):
        buffers.append(out)
        batch = real_rows(self, idx, out)
        assert np.shares_memory(batch, out)
        return batch

    monkeypatch.setattr(session, "sample_augmented", sample)
    monkeypatch.setattr(augment.AugmentedEpoch, "rows", rows)
    config = tiny_cfg(epochs_base=3, epochs_incremental=2, meta_episodes=5)
    run_pipeline(replace(inputs, config=config))
    assert len(drawn) == 3 + 2 * 2
    assert len({id(out) for out in buffers}) == 1 + 2
    assert all(out.shape == (config.batch_size, 24) for out in buffers)


def test_evaluation_heap_peak_holds_no_feature_rows(base_state, peak_bytes):
    # sets are evaluated one by one in fixed row blocks, so the peak (heap
    # and mappings) grows only by per-row labels and predictions: less than
    # a quarter of a feature row per evaluated row (the heap copies made it
    # 2.1 feature rows per row).  Both sizes fill whole 256-row blocks, so
    # the difference holds no change of block size.
    d, names = 256, [f"c{i}" for i in range(16)]
    structure = random_optimal_structure(16, d, seed=3)
    state = replace(base_state, t=1,
                    repository=augment.PrototypeRepository(names=tuple(names)),
                    config=replace(base_state.config, base_classes=8, d_g=d),
                    structure=replace(structure, class_ids=list(range(16))),
                    theta_g=init_projector_params(d, 64, d, seed=1))

    def peak(per_class):
        sets = [FeatureSet(features=rng.gaussian(rng.stream(per_class, k),
                                                 (8 * per_class, d)),
                           labels=np.repeat(np.arange(8), per_class),
                           class_names=tuple(names[8 * k:8 * k + 8]))
                for k in range(2)]
        return peak_bytes(lambda: session_record(state, (
            (fs.features, _evaluation_labels(fs, names)) for fs in sets)))

    small, large = peak(32), peak(256)
    assert large - small < (16 * 256 - 16 * 32) * d * 8 / 4, (small, large)


def test_evaluation_mappings_are_released_with_the_record(inputs, monkeypatch):
    # a session's predictions, class sums and the projections of their
    # blocks are gone before the next session trains
    held = []
    real_evaluate, real_project, real_fit = (session.evaluate_session,
                                             session.project, session._fit)

    def evaluate(state, features, labels, sums):
        preds = real_evaluate(state, features, labels, sums)
        held.extend([weakref.ref(preds), weakref.ref(sums)])
        return preds

    def project(params, x):
        z = real_project(params, x)
        held.append(weakref.ref(z))
        return z

    def fit(*args):
        assert all(ref() is None for ref in held)
        return real_fit(*args)

    monkeypatch.setattr(session, "evaluate_session", evaluate)
    monkeypatch.setattr(session, "project", project)
    monkeypatch.setattr(session, "_fit", fit)
    config = tiny_cfg(epochs_base=1, epochs_incremental=1, meta_episodes=2)
    run_pipeline(replace(inputs, config=config))
    assert len(held) > 2 * 3 and all(ref() is None for ref in held)


def test_trainers_and_sampler_take_the_config_values(inputs, monkeypatch):
    # every training setting off its default reaches the layer that uses it;
    # session t trains for epochs_base (t = 0) or epochs_incremental epochs
    # on the draws and replay rows its config asks for, with derived seeds
    config = tiny_cfg(seed=7, tau=0.11, lr_projector=0.3, lr_calibration=0.7,
                      epochs_base=2, epochs_incremental=1, warmup_steps=3,
                      batch_size=40, meta_episodes=3, meta_shots=4,
                      meta_warmup=5, n_aug_base=30, n_aug_novel=20,
                      replay_per_class=4)
    trained = ("seed", "tau", "lr_projector", "lr_calibration", "epochs_base",
               "epochs_incremental", "warmup_steps", "batch_size",
               "meta_episodes", "meta_shots", "meta_warmup", "n_aug_base",
               "n_aug_novel", "replay_per_class")
    assert all(getattr(config, k) != getattr(SessionConfig(), k) for k in trained)
    calls = {"meta": [], "train": [], "sample": []}

    def recorder(name, real):
        def record(*args, **kwargs):
            calls[name].append((args, kwargs))
            return real(*args, **kwargs)
        return record

    for name, attr in (("meta", "meta_train"), ("train", "train_projector"),
                       ("sample", "sample_augmented")):
        monkeypatch.setattr(session, attr,
                            recorder(name, getattr(session, attr)))
    run_pipeline(replace(inputs, config=config))

    [(_, meta)] = calls["meta"]
    assert meta == dict(shots=4, episodes=3, lr_max=0.7, warmup=5,
                        seed=rng.derive_seed(7, "meta"))
    epochs = [2, 1, 1]
    # rows per class: 6 base classes, then 3 novel ones per session, whose
    # replay rows join the sessions after theirs
    rows = [[30] * 6, [30] * 6 + [20] * 3, [30] * 6 + [24] * 3 + [20] * 3]
    assert len(calls["train"]) == 3
    for t, (args, kwargs) in enumerate(calls["train"]):
        assert kwargs == dict(epochs=epochs[t], lr_max=0.3, warmup_steps=3,
                              batch_size=40, seed=rng.derive_seed(7, "train", t),
                              tau=0.11)
    assert [args[1:5] for args, _ in calls["sample"]] == [
        (30, 20, rng.derive_seed(7, "augment", t), epoch)
        for t in range(3) for epoch in range(epochs[t])]
    for t, (args, _) in enumerate(calls["train"]):
        assert np.bincount(args[3](0).labels).tolist() == rows[t]
