import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concm import rng
from concm.attributes import AssociationMatrix, AttributePool, SemanticKnowledge
from concm.autodiff import Tape, grad_check
from concm.calibration import (CalibrationParams, Prototype, blend,
                               build_meta_tape, calibrate,
                               init_calibration_params, meta_train)
from concm.calibration import _class_rows, _draw_shots
from concm.data import FeatureSet
from concm.errors import (AllMasked, InsufficientSamples, InvalidConfig,
                          InvalidInput, TrainingDiverged)
from concm.optim import cosine_lr, sgd_step


def knowledge_fixture(d_f=8, d_s=5, n_attr=4, classes=("x", "y"), seed=0,
                      mask=None):
    gen = np.random.default_rng(seed)
    pool = AttributePool(names=tuple(f"a{i}" for i in range(n_attr)),
                         semantic=gen.standard_normal((n_attr, d_s)),
                         visual=gen.standard_normal((n_attr, d_f)))
    if mask is None:
        mask = gen.integers(0, 2, size=(n_attr, len(classes)))
        mask[0, :] = 1  # ensure coverage
    assoc = AssociationMatrix(r=np.asarray(mask, dtype=np.int8),
                              class_names=tuple(classes))
    sem = {c: gen.standard_normal(d_s) for c in classes}
    return SemanticKnowledge(pool=pool, class_semantic=sem, assoc=assoc)


def test_all_masked_raises():
    kn = knowledge_fixture(mask=np.zeros((4, 2)))
    params = init_calibration_params(8, 5, seed=0)
    proto = Prototype(0, "x", np.ones(8), "raw", 5)
    with pytest.raises(AllMasked):
        calibrate(proto, kn.class_semantic["x"], kn, params)
    # the all-class graph names the empty class when it is built
    kn = knowledge_fixture(mask=np.array([[1, 0], [1, 0], [0, 0], [1, 0]]))
    with pytest.raises(AllMasked, match="'y'"):
        build_meta_tape(params, kn, ["x", "y"])


def untaped_calibrate(mean, s_k, sel, pool, params):
    """Per-class reference: softmax over the class's associated attributes
    (pool rows ``sel``), encode, aggregate, decode."""
    def softplus(v):
        return np.logaddexp(0.0, v)

    s_sel, f_sel = pool.semantic[sel], pool.visual[sel]
    sem = (s_sel @ params.g_sem_attr) @ (s_k @ params.g_sem_cls)
    vis = (f_sel @ params.g_vis_attr) @ (mean @ params.g_vis_cls)
    scores = sem / (2 * math.sqrt(pool.d_s)) + vis / (2 * math.sqrt(pool.d_f))
    w = np.exp(scores - scores.max())
    w /= w.sum()
    enc = lambda m: softplus(m @ params.w_enc + params.b_enc)
    xi = enc(mean[None]) + w[None] @ enc(f_sel)
    return (xi @ params.w_dec + params.b_dec).ravel()


def test_calibrate_matches_untaped_reimplementation():
    kn = knowledge_fixture(seed=3)
    params = init_calibration_params(8, 5, seed=1)
    gen = np.random.default_rng(7)
    proto = Prototype(0, "x", gen.standard_normal(8), "raw", 5)
    s_k = kn.class_semantic["x"]
    out = calibrate(proto, s_k, kn, params)
    manual = untaped_calibrate(proto.mean, s_k,
                               np.flatnonzero(kn.assoc.column("x")), kn.pool,
                               params)
    np.testing.assert_allclose(out.mean, manual, rtol=1e-12, atol=1e-12)
    assert out.source == "calibrated"


@st.composite
def calibration_problems(draw):
    n_cls, n_attr = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    d_f, d_s = draw(st.integers(2, 8)), draw(st.integers(1, 5))
    rows = []
    for _ in range(n_cls):
        bits = draw(st.lists(st.booleans(), min_size=n_attr, max_size=n_attr))
        bits[draw(st.integers(0, n_attr - 1))] = True  # at least one attribute
        rows.append(bits)
    classes = tuple(f"c{i}" for i in range(n_cls))
    kn = knowledge_fixture(d_f=d_f, d_s=d_s, n_attr=n_attr, classes=classes,
                           seed=draw(st.integers(0, 2 ** 16)),
                           mask=np.array(rows).T)
    return kn, classes, draw(st.integers(0, 2 ** 16))


@settings(max_examples=100, deadline=None)
@given(problem=calibration_problems())
def test_one_graph_matches_per_class_reference(problem):
    kn, classes, seed = problem
    params = init_calibration_params(kn.pool.d_f, kn.pool.d_s, seed=seed % 97)
    gen = np.random.default_rng(seed)
    feeds = {f"{kind}_{name}": gen.standard_normal((1, kn.pool.d_f))
             for kind in ("p_meta", "target") for name in classes}
    tape, loss = build_meta_tape(params, kn, list(classes))
    tape.forward(feeds)
    per_class, wants = [], []
    for name in classes:
        mean = feeds[f"p_meta_{name}"].ravel()
        want = untaped_calibrate(mean, kn.class_semantic[name],
                                 np.flatnonzero(kn.assoc.column(name)), kn.pool,
                                 params)
        got = calibrate(Prototype(0, name, mean, "raw", 5),
                        kn.class_semantic[name], kn, params)
        np.testing.assert_allclose(got.mean, want, rtol=1e-12, atol=1e-12)
        per_class.append(np.mean((want - feeds[f"target_{name}"].ravel()) ** 2))
        wants.append(want)
    np.testing.assert_allclose(float(tape.value(loss)), np.mean(per_class),
                               rtol=1e-12)
    # one call over every class: the rows form of the same graph
    rows = calibrate(
        Prototype(np.arange(len(classes)), classes,
                  np.vstack([feeds[f"p_meta_{n}"] for n in classes]), "raw", 5),
        np.array([kn.class_semantic[n] for n in classes]), kn, params)
    assert rows.mean.shape == (len(classes), kn.pool.d_f)
    np.testing.assert_allclose(rows.mean, wants, rtol=1e-12, atol=1e-12)


def test_calibrate_single_attribute_weight_one():
    kn = knowledge_fixture(mask=np.array([[1, 1], [0, 0], [0, 0], [0, 0]]))
    params = init_calibration_params(8, 5, seed=2)
    gen = np.random.default_rng(9)
    proto = Prototype(0, "x", gen.standard_normal(8), "raw", 5)
    out = calibrate(proto, kn.class_semantic["x"], kn, params)

    def softplus(v):
        return np.logaddexp(0.0, v)

    enc = lambda m: softplus(m @ params.w_enc + params.b_enc)
    xi = enc(proto.mean[None]) + enc(kn.pool.visual[0][None])
    manual = (xi @ params.w_dec + params.b_dec).ravel()
    np.testing.assert_allclose(out.mean, manual, rtol=1e-12)


def test_equal_scores_give_equal_softmax_weights():
    # two identical attributes associated with the class
    d_f, d_s = 6, 3
    gen = np.random.default_rng(4)
    row_s, row_f = gen.standard_normal(d_s), gen.standard_normal(d_f)
    pool = AttributePool(names=("a", "b"), semantic=np.vstack([row_s, row_s]),
                         visual=np.vstack([row_f, row_f]))
    assoc = AssociationMatrix(r=np.ones((2, 1), dtype=np.int8),
                              class_names=("c",))
    kn = SemanticKnowledge(pool=pool,
                           class_semantic={"c": gen.standard_normal(d_s)},
                           assoc=assoc)
    params = init_calibration_params(d_f, d_s, seed=5)
    proto = Prototype(0, "c", gen.standard_normal(d_f), "raw", 5)
    out = calibrate(proto, kn.class_semantic["c"], kn, params)

    def softplus(v):
        return np.logaddexp(0.0, v)

    enc = lambda m: softplus(m @ params.w_enc + params.b_enc)
    xi = enc(proto.mean[None]) + enc(row_f[None])  # 0.5 + 0.5 of the same row
    manual = (xi @ params.w_dec + params.b_dec).ravel()
    np.testing.assert_allclose(out.mean, manual, rtol=1e-12)


def test_blend():
    p = Prototype(0, "c", np.array([1.0, 0.0]), "raw", 5)
    q = Prototype(0, "c", np.array([0.0, 1.0]), "calibrated", 5)
    assert np.array_equal(blend(p, q, 1.0).mean, p.mean)
    np.testing.assert_allclose(blend(p, q, 0.6).mean, [0.6, 0.4])
    with pytest.raises(InvalidConfig):
        blend(p, q, 1.5)
    with pytest.raises(InvalidConfig):
        blend(p, q, -0.1)


def test_meta_loss_zero_when_outputs_equal_targets():
    kn = knowledge_fixture(seed=6)
    params = init_calibration_params(8, 5, seed=3)
    tape, loss = build_meta_tape(params, kn, ["x", "y"])
    gen = np.random.default_rng(11)
    feeds = {f"p_meta_{n}": gen.standard_normal((1, 8)) for n in ("x", "y")}
    feeds.update({f"target_{n}": np.zeros((1, 8)) for n in ("x", "y")})
    tape.forward(feeds)
    outs = {n: calibrate(Prototype(0, n, feeds[f"p_meta_{n}"].ravel(), "raw", 5),
                         kn.class_semantic[n], kn, params).mean
            for n in ("x", "y")}
    feeds.update({f"target_{n}": outs[n][None] for n in ("x", "y")})
    tape.forward(feeds)
    assert float(tape.value(loss)) == pytest.approx(0.0, abs=1e-24)


def test_meta_loss_gradient_check():
    kn = knowledge_fixture(seed=8)
    params = init_calibration_params(8, 5, seed=4)
    tape, loss = build_meta_tape(params, kn, ["x", "y"])
    gen = np.random.default_rng(12)
    feeds = {f"p_meta_{n}": gen.standard_normal((1, 8)) for n in ("x", "y")}
    feeds.update({f"target_{n}": gen.standard_normal((1, 8)) for n in ("x", "y")})
    assert grad_check(tape, feeds, loss) <= 1e-4


def test_meta_backward_pruning_keeps_gradients_bitwise(unpruned_backward):
    # the meta graph of acceptance criterion 4, against a pass that forms
    # every adjoint
    kn = knowledge_fixture(seed=200)
    tape, loss = build_meta_tape(init_calibration_params(8, 5, seed=300), kn,
                                 ["x", "y"])
    gen = np.random.default_rng(1)
    tape.forward({f"{kind}_{name}": gen.standard_normal((1, 8))
                  for kind in ("p_meta", "target") for name in ("x", "y")})
    got, want = tape.backward(loss), unpruned_backward(tape, loss)
    assert got.keys() == want.keys()
    for name in got:
        assert got[name].tobytes() == want[name].tobytes()


def test_one_step_descends():
    from concm.optim import sgd_step
    kn = knowledge_fixture(seed=9)
    params = init_calibration_params(8, 5, seed=5)
    tape, loss = build_meta_tape(params, kn, ["x", "y"])
    gen = np.random.default_rng(13)
    feeds = {f"p_meta_{n}": gen.standard_normal((1, 8)) for n in ("x", "y")}
    feeds.update({f"target_{n}": gen.standard_normal((1, 8)) for n in ("x", "y")})
    before = sgd_step(tape, loss, feeds, 1e-3, "episode 0")
    tape.forward(feeds)
    assert float(tape.value(loss)) < before


def episodic_fixture(seed=0, n_classes=4, per_class=12, d_f=8, d_s=4):
    gen = np.random.default_rng(seed)
    names = [f"c{i}" for i in range(n_classes)]
    feats = np.vstack([gen.standard_normal(d_f) + 0.3 * gen.standard_normal((per_class, d_f))
                       for _ in names])
    labels = np.repeat(np.arange(n_classes), per_class)
    fs = FeatureSet(features=feats, labels=labels, class_names=tuple(names))
    pool = AttributePool(names=("a0", "a1", "a2"),
                         semantic=gen.standard_normal((3, d_s)),
                         visual=gen.standard_normal((3, d_f)))
    mask = np.array([[1, 1, 0, 1], [0, 1, 1, 0], [1, 0, 1, 1]], dtype=np.int8)
    assoc = AssociationMatrix(r=mask, class_names=tuple(names))
    sem = {n: gen.standard_normal(d_s) for n in names}
    return fs, SemanticKnowledge(pool=pool, class_semantic=sem, assoc=assoc)


def test_meta_train_loss_moving_average_decreases():
    fs, kn = episodic_fixture()
    params = init_calibration_params(8, 4, seed=6)
    trained, trace = meta_train(fs, kn, params, shots=5, episodes=120,
                                lr_max=1.0, warmup=10, seed=1)
    window = 30
    avg = np.convolve(trace, np.ones(window) / window, mode="valid")
    assert avg[-1] < avg[0]
    assert not np.array_equal(trained.w_enc, params.w_enc)


def test_meta_train_returns_trained_float64_copies_and_keeps_its_input():
    # the input weights, float64 or float32, are left byte-unchanged; the
    # result shares no memory with them, and float32 weights train as
    # their float64 values do
    fs, kn = episodic_fixture()
    config = dict(shots=3, episodes=5, lr_max=0.5, warmup=1, seed=2)
    p64 = init_calibration_params(8, 4, seed=6)
    for dtype in (np.float64, np.float32):
        p = CalibrationParams(**{n: v.astype(dtype)
                                 for n, v in vars(p64).items()})
        before = {n: v.tobytes() for n, v in vars(p).items()}
        out, _ = meta_train(fs, kn, p, **config)
        want, _ = meta_train(fs, kn, CalibrationParams(
            **{n: v.astype(np.float64) for n, v in vars(p).items()}), **config)
        for n, v in vars(p).items():
            got = getattr(out, n)
            assert v.tobytes() == before[n]
            assert got.dtype == np.float64 and not np.shares_memory(got, v)
            assert not np.array_equal(got, v)
            assert got.tobytes() == getattr(want, n).tobytes()


@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.integers(2, 12), min_size=1, max_size=6),
       data=st.data(), seed=st.integers(0, 2 ** 32), episode=st.integers(0, 999))
def test_meta_episode_shots_distinct_in_class_and_deterministic(sizes, data,
                                                                seed, episode):
    shots = data.draw(st.integers(1, min(sizes) - 1))
    shuffle = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
    labels = shuffle.permutation(np.repeat(np.arange(len(sizes)), sizes))
    rows = _class_rows(labels, len(sizes))
    picks = _draw_shots(rows, shots, rng.stream(seed, "meta-episode", episode))
    again = _draw_shots(rows, shots, rng.stream(seed, "meta-episode", episode))
    assert picks.shape == (len(sizes), shots)
    np.testing.assert_array_equal(picks, again)
    for c, row in enumerate(picks):
        assert len(set(row.tolist())) == shots
        assert np.all(labels[row] == c)


def test_meta_train_feeds_the_gathered_shot_means(monkeypatch):
    fs, kn = episodic_fixture(per_class=9)
    fed, tapes = [], []
    real = Tape.forward

    def spy(self, feeds=None):
        fed.append({k: v.copy() for k, v in feeds.items()})
        tapes.append(self)
        return real(self, feeds)

    monkeypatch.setattr(Tape, "forward", spy)
    meta_train(fs, kn, init_calibration_params(8, 4, seed=6), shots=3,
               episodes=2, lr_max=1.0, warmup=20, seed=4)
    rows = _class_rows(fs.labels, fs.n_classes)
    for ep, feeds in enumerate(fed):
        shots = fs.features[_draw_shots(rows, 3, rng.stream(4, "meta-episode", ep))]
        for c in range(fs.n_classes):
            assert feeds["p_meta"][c].tobytes() == \
                shots[c].mean(axis=0).reshape(1, -1).tobytes()
    # the exact class means are one constant of the tape, row c for class c
    means = np.vstack([fs.class_features(c).mean(axis=0).reshape(1, -1)
                       for c in range(fs.n_classes)])
    assert any(node.op == "const" and node.payload.tobytes() == means.tobytes()
               for node in tapes[0]._nodes)


def test_meta_train_matches_the_per_class_meta_tape():
    # the reference: every episode fed through build_meta_tape's per-class
    # inputs, with the same shots, learning rates and SGD steps
    fs, kn = episodic_fixture(per_class=9)
    params = init_calibration_params(8, 4, seed=6)
    trained, trace = meta_train(fs, kn, params, shots=3, episodes=6,
                                lr_max=0.5, warmup=2, seed=4)

    tape, loss = build_meta_tape(params, kn, list(fs.class_names))
    rows = _class_rows(fs.labels, fs.n_classes)
    feeds = {f"target_{name}": fs.class_features(c).mean(axis=0).reshape(1, -1)
             for c, name in enumerate(fs.class_names)}
    ref_trace = []
    for ep in range(6):
        gen = rng.stream(4, "meta-episode", ep)
        protos = fs.features[_draw_shots(rows, 3, gen)].mean(axis=1)
        for name, proto in zip(fs.class_names, protos):
            feeds[f"p_meta_{name}"] = proto.reshape(1, -1)
        ref_trace.append(sgd_step(tape, loss, feeds, cosine_lr(ep, 6, 0.5, 2),
                                  f"episode {ep}"))
    assert trace == ref_trace
    for name in tape.param_names():
        assert getattr(trained, name).tobytes() == tape.param_value(name).tobytes()


@pytest.mark.parametrize("lr_max,message", [
    (1e200, "^meta-training episode 1: loss became nan$"),
    (math.inf, "^meta-training episode 0: param 'w_enc' contains non-finite"),
])
def test_meta_train_divergence_names_the_episode(lr_max, message):
    fs, kn = episodic_fixture()
    with np.errstate(all="ignore"), \
            pytest.raises(TrainingDiverged, match=message):
        meta_train(fs, kn, init_calibration_params(8, 4, seed=6), shots=3,
                   episodes=4, lr_max=lr_max, warmup=0, seed=4)


def test_meta_train_insufficient_samples():
    fs, kn = episodic_fixture(per_class=5)
    params = init_calibration_params(8, 4, seed=7)
    with pytest.raises(InsufficientSamples):
        meta_train(fs, kn, params, shots=5, episodes=5, lr_max=1.0, warmup=20,
                   seed=1)


def test_meta_train_rejects_zero_shots():
    fs, kn = episodic_fixture()
    with pytest.raises(InvalidConfig, match="shots must be >= 1"):
        meta_train(fs, kn, init_calibration_params(8, 4, seed=7), shots=0,
                   episodes=5, lr_max=1.0, warmup=20, seed=1)


def test_calibrate_copies_no_weights(peak_bytes):
    # the weights enter the graph as params held in place: one
    # calibration allocates less than the weights
    kn = knowledge_fixture(d_f=256, seed=11)
    params = init_calibration_params(256, 5, seed=9)
    weight_bytes = sum(v.nbytes for v in vars(params).values())
    proto = Prototype(0, "x", np.ones(256), "raw", 5)
    assert peak_bytes(lambda: calibrate(proto, kn.class_semantic["x"], kn,
                                        params)) < weight_bytes


@pytest.mark.parametrize("name", ["w_enc", "b_dec", "g_sem_cls", "g_vis_attr"])
def test_calibrate_non_finite_weight_names_it(name):
    kn = knowledge_fixture(seed=12)
    params = init_calibration_params(8, 5, seed=10)
    getattr(params, name)[0, 0] = math.inf
    proto = Prototype(0, "x", np.ones(8), "raw", 5)
    with pytest.raises(InvalidInput, match=f"'{name}' contains non-finite"):
        calibrate(proto, kn.class_semantic["x"], kn, params)


def test_calibrate_unknown_class():
    from concm.errors import UnknownClass
    kn = knowledge_fixture(seed=10)
    params = init_calibration_params(8, 5, seed=8)
    proto = Prototype(0, "not-a-class", np.ones(8), "raw", 5)
    with pytest.raises(UnknownClass):
        calibrate(proto, np.ones(5), kn, params)


def test_calibrate_rows_must_match_the_classes():
    from concm.errors import ShapeError
    kn = knowledge_fixture(seed=13)
    params = init_calibration_params(8, 5, seed=11)
    two = np.array([kn.class_semantic["x"], kn.class_semantic["y"]])
    for mean, s_k in [(np.ones((1, 8)), two), (np.ones((2, 7)), two),
                      (np.ones((2, 8)), two[:, :4])]:
        with pytest.raises(ShapeError):
            calibrate(Prototype(np.arange(2), ("x", "y"), mean, "raw", 5), s_k,
                      kn, params)
