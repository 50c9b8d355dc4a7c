import math
import re
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from concm import rng, session
from concm.augment import PrototypeRepository, sample_augmented
from concm.autodiff import _STEP_CHUNK, Tape, grad_check
from concm.errors import (DegenerateBatch, DegenerateInput, InvalidConfig,
                          InvalidInput, LabelOutOfRange, TrainingDiverged)
from concm.metrics import ClassSums, ncm_classify, similarity_stats
from concm.optim import cosine_lr
from concm.projector import (ProjectorParams, batch_masks,
                             build_contrastive_loss, build_matching_loss,
                             init_projector_params, plan_epoch, project,
                             projection_nodes, train_projector)
from concm.projector import _register
from concm.session import _BLOCK_ROWS, evaluate_session
from concm.structure import random_optimal_structure
from reference_graphs import (ReferenceTape, composed_contrastive_loss,
                              composed_matching_loss)


def matching_value(z, labels, structure) -> float:
    """Matching loss of the rows z, evaluated on the builder's graph."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    t = Tape()
    loss = build_matching_loss(t, t.constant(z), np.atleast_1d(labels), structure)
    t.forward({})
    return float(t.value(loss))


def contrastive_value(batch, structure, tau) -> float:
    """Contrastive loss of a (rows, labels, anchored classes) batch,
    evaluated on the builder's graph."""
    z, labels, anchored = batch
    t = Tape()
    loss = build_contrastive_loss(t, t.constant(z), labels, structure,
                                  anchored, tau)
    t.forward({})
    return float(t.value(loss))


def params_fixture(d_f=6, d_h=6, d_g=5, seed=0):
    return init_projector_params(d_f, d_h, d_g, seed=seed)


def test_project_unit_norm_and_scale_invariance():
    p = params_fixture()
    x = rng.gaussian(rng.stream(0, "proj"), (4, 6))
    z = project(p, x)
    np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-10)
    np.testing.assert_array_equal(project(p, 2.0 * x), z)
    # same values whether projected alone or in a batch (up to summation order)
    np.testing.assert_allclose(project(p, x[:1]), z[:1], rtol=0, atol=1e-12)


def test_project_deterministic():
    p = params_fixture(seed=3)
    x = rng.gaussian(rng.stream(1, "proj"), (1, 6))
    assert np.array_equal(project(p, x), project(p, x))


def test_project_zero_input():
    with pytest.raises(DegenerateInput):
        project(params_fixture(), np.zeros((1, 6)))


def test_project_rejects_row_whose_norm_overflows():
    # 1e200 squared overflows: the row has no finite direction
    with pytest.raises(DegenerateInput, match=re.escape("feature row(s) [1]")):
        project(params_fixture(4, 4, 3), np.array([[1.0, 2.0, 0.0, 0.0],
                                                   [1e200, 0.0, 0.0, 0.0]]))


def single_pass_projection(params, x):
    """Every row through the projection graph in one forward pass: the
    reference for the blocked projection."""
    t = Tape()
    z = projection_nodes(t, _register(t, params), t.constant(x))
    t.forward({})
    return t.value(z)


def evaluation_state(params, n_classes, seed):
    """The fields of a session state that evaluate_session reads."""
    structure = random_optimal_structure(n_classes, params.d_g, seed=seed)
    return SimpleNamespace(theta_g=params, structure=structure)


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 1000])
def test_project_in_blocks_equals_one_pass(n, monkeypatch):
    # evaluation projects its rows in fixed blocks, one project call each;
    # the new rows of the blocks equal one pass over every row, bit for bit
    calls = []

    def recording_project(params, x):
        z = project(params, x)
        calls.append(z)
        return z

    monkeypatch.setattr(session, "project", recording_project)
    p = params_fixture(12, 10, 9, seed=4)
    x = rng.gaussian(rng.stream(8, "blocks", str(n)), (n, 12))
    labels = np.arange(n) % 4
    state = evaluation_state(p, 4, seed=9)
    preds = evaluate_session(state, x, labels, ClassSums.zeros(4, 9))
    assert all(z.shape[0] == min(n, _BLOCK_ROWS) for z in calls)
    new = [min(_BLOCK_ROWS, n - start) for start in range(0, n, _BLOCK_ROWS)]
    assert len(calls) == len(new)
    z = np.concatenate([z[z.shape[0] - k:] for z, k in zip(calls, new)]) \
        if calls else np.empty((0, 9))
    assert z.tobytes() == single_pass_projection(p, x).tobytes()
    assert preds.tolist() == ncm_classify(z, state.structure).tolist()


def test_project_zero_norm_projected_row_names_its_row():
    # two hidden units that agree only on row 300, read out as their
    # difference: that row alone projects to zero
    p = ProjectorParams(w1=np.eye(2), b1=np.zeros((1, 2)),
                        w2=np.array([[1.0], [-1.0]]), b2=np.zeros((1, 1)))
    x = np.column_stack([np.arange(2.0, 1002.0), np.ones(1000)])
    x[300] = [3.0, 3.0]
    with pytest.raises(DegenerateInput,
                       match=re.escape("projected row(s) [300]")) as info:
        project(p, x)
    assert info.value.rows == [300]
    with pytest.raises(DegenerateInput, match=re.escape("row(s) [300]")):
        project(params_fixture(2, 2, 3), np.vstack([x[:300], [0.0, 0.0]]))


def test_project_peak_memory_does_not_grow_with_rows(peak_bytes):
    # evaluation holds one block's projection at a time: beyond its per-row
    # predictions, its peak does not grow with the rows it projects
    p = params_fixture(32, 32, 32, seed=5)
    state = evaluation_state(p, 4, seed=6)

    def extra_bytes(n):
        x = rng.gaussian(rng.stream(n, "peak"), (n, 32))
        labels = np.arange(n) % 4
        sums = ClassSums.zeros(4, 32)
        return peak_bytes(lambda: evaluate_session(state, x, labels, sums)) \
            - n * 8

    small, large = extra_bytes(2 * _BLOCK_ROWS), extra_bytes(16 * _BLOCK_ROWS)
    assert large <= small + 16 * 1024, (small, large)


def test_one_row_projection_copies_no_weights(peak_bytes):
    # the weights enter the graph as params held in place: projecting
    # one row allocates less than the weights
    p = params_fixture(256, 256, 256, seed=4)
    weight_bytes = sum(getattr(p, n).nbytes for n in ("w1", "b1", "w2", "b2"))
    x = rng.gaussian(rng.stream(4, "one-row"), (1, 256))
    assert peak_bytes(lambda: project(p, x)) < weight_bytes


@pytest.mark.parametrize("name", ["w1", "b1", "w2", "b2"])
def test_project_non_finite_weight_names_it(name):
    p = params_fixture(seed=9)
    getattr(p, name)[0, 0] = math.nan
    with pytest.raises(InvalidInput, match=f"'{name}' contains non-finite"):
        project(p, np.ones((2, 6)))


@pytest.mark.parametrize("d_f", [64, 512])
def test_projector_init_does_not_collapse(d_f):
    # the collapse indicator: mean cosine between the projections of 200
    # isotropic unit-norm rows at init.  With w1 ~ N(0, 1/d_f) it reads
    # 0.990-0.994 at d_f = 64 and 0.9989-0.9991 at d_f = 512 (init seeds
    # 0-4); with w1 ~ N(0, 1), 0.66-0.76 and 0.68-0.73.
    x = rng.gaussian(rng.stream(d_f, "collapse"), (200, d_f))
    z = project(init_projector_params(d_f, d_f, d_f, seed=0), x)
    sums = ClassSums.zeros(200, d_f)
    sums.add(z, np.arange(200))
    sim_cls, _ = similarity_stats(sums)
    assert sim_cls <= 0.9


def test_matching_loss_values():
    s = random_optimal_structure(2, 3, seed=1)
    # z on its own column: logits (1, -1)
    assert matching_value(s.columns[:, 0], 0, s) == pytest.approx(
        math.log(1.0 + math.exp(-2.0)), abs=1e-12)
    # z orthogonal to both columns: uniform logits
    u = s.columns[:, 0]
    v = np.array([1.0, 0.0, 0.0]) - (np.array([1.0, 0.0, 0.0]) @ u) * u
    v /= np.linalg.norm(v)
    assert matching_value(v, 0, s) == pytest.approx(math.log(2.0), abs=1e-12)


def test_matching_loss_nonnegative_and_label_check():
    s = random_optimal_structure(4, 7, seed=2)
    gen = rng.stream(2, "ml")
    for _ in range(20):
        z = rng.gaussian(gen, (7,))
        z /= np.linalg.norm(z)
        assert matching_value(z, 1, s) >= 0.0
    with pytest.raises(LabelOutOfRange):
        matching_value(s.columns[:, 0], 4, s)


def test_matching_loss_argmin_matches_ncm():
    from concm.metrics import ncm_classify
    s = random_optimal_structure(5, 9, seed=3)
    gen = rng.stream(3, "nc")
    for _ in range(25):
        z = rng.gaussian(gen, (9,))
        z /= np.linalg.norm(z)
        losses = [matching_value(z, k, s) for k in range(5)]
        assert ncm_classify(z[None], s).tolist() == [int(np.argmin(losses))]


def manual_supcon(z, labels, structure, anchored, tau):
    total = 0.0
    b = len(labels)
    for i in range(b):
        pos, denom = [], []
        for j in range(b):
            if j == i:
                continue
            sim = z[i] @ z[j] / tau
            denom.append(sim)
            if labels[j] == labels[i]:
                pos.append(sim)
        if labels[i] in anchored:
            sim = z[i] @ structure.columns[:, labels[i]] / tau
            denom.append(sim)
            pos.append(sim)
        log_denom = math.log(sum(math.exp(s) for s in denom))
        total += -sum(p - log_denom for p in pos) / len(pos)
    return total / b


def test_contrastive_loss_matches_manual_arithmetic():
    s = random_optimal_structure(3, 6, seed=4)
    gen = rng.stream(4, "cl")
    z = rng.gaussian(gen, (5, 6))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    labels = np.array([0, 0, 1, 1, 2])
    # the singleton class 2 needs its anchor for a nonempty positive set
    for anchored in (frozenset({2}), frozenset({0, 1, 2})):
        got = contrastive_value((z, labels, anchored), s, tau=0.07)
        want = manual_supcon(z, labels, s, anchored, 0.07)
        assert got == pytest.approx(want, rel=1e-12)
    got = contrastive_value((z[:4], labels[:4], frozenset()), s, 0.07)
    want = manual_supcon(z[:4], labels[:4], s, frozenset(), 0.07)
    assert got == pytest.approx(want, rel=1e-12)


def test_contrastive_identical_points_is_local_minimum():
    s = random_optimal_structure(2, 5, seed=5)
    z0 = s.columns[:, 0]
    z = np.tile(z0, (3, 1))
    labels = np.zeros(3, dtype=int)
    base = contrastive_value((z, labels, frozenset({0})), s, tau=0.5)
    gen = rng.stream(5, "pert")
    for _ in range(10):
        bump = rng.gaussian(gen, (5,)) * 0.05
        zp = z.copy()
        zp[0] = (z0 + bump) / np.linalg.norm(z0 + bump)
        pert = contrastive_value((zp, labels, frozenset({0})), s, tau=0.5)
        assert pert >= base - 1e-12


def test_contrastive_empty_positive_set():
    s = random_optimal_structure(2, 5, seed=6)
    z = rng.gaussian(rng.stream(6, "dp"), (2, 5))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    with pytest.raises(DegenerateBatch):
        contrastive_value((z, np.array([0, 1]), frozenset()), s, 0.07)
    with pytest.raises(InvalidConfig):
        contrastive_value((z, np.array([0, 1]), frozenset({0, 1})), s,
                         tau=0.0)


def test_large_temperature_shrinks_gradients():
    s = random_optimal_structure(2, 4, seed=7)
    gen = rng.stream(7, "temp")
    x = rng.gaussian(gen, (4, 4))
    labels = np.array([0, 0, 1, 1])

    def grad_norm(tau):
        t = Tape()
        pn = _register(t, params_fixture(4, 4, 4, seed=8))
        z = projection_nodes(t, pn, t.constant(x))
        loss = build_contrastive_loss(t, z, labels, s, frozenset(), tau)
        t.forward({})
        g = t.backward(loss)
        return math.sqrt(sum(float((v ** 2).sum()) for v in g.values()))

    assert grad_norm(100.0) < 0.05 * grad_norm(0.1)


def test_anchor_pull_decreases_loss():
    # moving a novel sample toward its structure column lowers the loss.
    # The sample is alone in its class, so the column is its only positive,
    # and the other class's rows are orthogonal to the plane of the move, so
    # only the sample's own term changes: -s/tau + log(2 + e^(s/tau)) in its
    # cosine s to the column, which falls as s grows
    labels = np.array([0, 0, 1])
    for seed in range(20):
        s = random_optimal_structure(3, 6, seed=seed)
        anchor = s.columns[:, 1]
        gen = rng.stream(seed, "anchor")
        q, _ = np.linalg.qr(np.column_stack([anchor, rng.gaussian(gen, (6, 5))]))
        z = np.empty((3, 6))
        z[:2] = rng.gaussian(gen, (2, 4)) @ q[:, 2:].T
        z[2] = q[:, :2] @ rng.gaussian(gen, (2,))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        near = z.copy()
        near[2] = (z[2] + 2.0 * anchor) / np.linalg.norm(z[2] + 2.0 * anchor)
        loss_far = contrastive_value((z, labels, frozenset({1})), s, 0.07)
        loss_near = contrastive_value((near, labels, frozenset({1})), s, 0.07)
        assert loss_near < loss_far


def test_gradient_checks_on_losses():
    s = random_optimal_structure(3, 5, seed=10)
    gen = rng.stream(10, "gc")
    x = rng.gaussian(gen, (6, 4))
    labels = np.array([0, 0, 1, 1, 2, 2])
    p = params_fixture(4, 4, 5, seed=11)

    t = Tape()
    pn = _register(t, p)
    z = projection_nodes(t, pn, t.constant(x))
    loss = build_matching_loss(t, z, labels, s)
    assert grad_check(t, {}, loss) <= 1e-4

    t2 = Tape()
    pn2 = _register(t2, p)
    z2 = projection_nodes(t2, pn2, t2.constant(x[:4]))
    loss2 = build_contrastive_loss(t2, z2, labels[:4], s, frozenset({1}), 0.07)
    assert grad_check(t2, {}, loss2) <= 1e-4

    t3 = Tape()
    pn3 = _register(t3, p)
    z3 = projection_nodes(t3, pn3, t3.constant(x))
    loss3 = t3.add(build_matching_loss(t3, z3, labels, s),
                   build_contrastive_loss(t3, z3, labels, s, frozenset({2}), 0.07))
    assert grad_check(t3, {}, loss3) <= 1e-4


def loss_value_and_z_grad(build, z):
    """Value and z-gradient of a loss built on a parameter node z."""
    t = ReferenceTape()
    loss = build(t, t.param("z", z))
    t.forward({})
    return float(t.value(loss)), t.backward(loss)["z"]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), present=st.sampled_from(["all", "some", "none"]),
       n_classes=st.integers(2, 6), per_class=st.integers(2, 5),
       tau=st.sampled_from([0.07, 0.5, 2.0]))
@example(seed=310, present="none", n_classes=2, per_class=2, tau=0.07)
def test_fused_losses_match_composed_graphs(seed, present, n_classes, per_class,
                                           tau):
    gen = rng.stream(seed, "fused")
    d_g = n_classes + 2
    s = random_optimal_structure(n_classes + 1, d_g, seed=seed % 1000)
    labels = np.repeat(np.arange(n_classes), per_class)
    z = rng.gaussian(gen, (labels.size, d_g))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    # the extra class n_classes never occurs in the batch
    anchored = {"all": frozenset(range(n_classes + 1)),
                "some": frozenset({0, n_classes}),
                "none": frozenset({n_classes})}[present]
    cases = [
        (lambda t, zn: build_matching_loss(t, zn, labels, s),
         lambda t, zn: composed_matching_loss(t, zn, labels, s)),
        (lambda t, zn: build_contrastive_loss(t, zn, labels, s, anchored, tau),
         lambda t, zn: composed_contrastive_loss(t, zn, labels, s, anchored, tau)),
    ]
    for fused, composed in cases:
        got, got_grad = loss_value_and_z_grad(fused, z)
        want, want_grad = loss_value_and_z_grad(composed, z)
        # a loss near 0 is a difference of order-1 terms, so its rounding
        # error is a few ulps of 1.0, not of itself (1.74e-4 at the example)
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=4 * np.finfo(np.float64).eps)
        np.testing.assert_allclose(got_grad, want_grad, rtol=1e-12,
                                   atol=1e-12 * np.abs(want_grad).max())


@pytest.mark.parametrize("anchored", [frozenset({0, 1, 2}), frozenset({1}),
                                      frozenset()])
def test_fused_loss_nodes_pass_grad_check(anchored):
    s = random_optimal_structure(3, 5, seed=30)
    z = rng.gaussian(rng.stream(30, "fused-gc"), (6, 5))
    labels = np.array([0, 0, 1, 1, 2, 2])
    for build in (lambda t, zn: build_matching_loss(t, zn, labels, s),
                  lambda t, zn: build_contrastive_loss(t, zn, labels, s,
                                                       anchored, 0.5)):
        t = Tape()
        loss = build(t, t.param("z", z))
        assert grad_check(t, {}, loss) <= 1e-6


def test_fused_losses_give_masks_no_adjoint(unpruned_backward):
    # masks fed as parameters still get a zero gradient
    s = random_optimal_structure(3, 5, seed=31)
    labels = np.array([0, 0, 1, 1, 2])
    m = batch_masks(labels, s, frozenset({2}))
    t = Tape()
    z = t.param("z", rng.gaussian(rng.stream(31, "z"), (5, 5)))
    nodes = {k: t.param(k, v) for k, v in m.items()}
    loss = t.add(t.cross_entropy(t.matmul(z, t.constant(s.columns)),
                                 nodes["onehot"]),
                 t.anchored_contrastive(z, nodes["anchor_cols"], nodes["pos"],
                                        nodes["own"], nodes["inv_pos"], 0.1))
    t.forward({})
    grads = unpruned_backward(t, loss)
    for k, v in m.items():
        assert not grads[k].any() and grads[k].shape == v.shape
    assert grads["z"].any()


def test_training_tape_stays_small(monkeypatch):
    built = []

    class Recorded(Tape):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr("concm.projector.Tape", Recorded)
    sched = dict(lr_max=0.1, epochs=1, warmup_steps=0, batch_size=24, seed=0,
                 tau=0.07)
    train_projector(params_fixture(6, 6, 8, seed=12),
                    random_optimal_structure(3, 8, seed=11), frozenset({1}),
                    planned(training_data()), **sched)
    assert len(built) == 1
    assert len(built[0]._nodes) <= 25


def training_data(seed=0, n=3, per=16, d=6):
    centers = rng.gaussian(rng.stream(seed, "centers"), (n, d)) * 2.0

    def epoch_data(epoch):
        gen = rng.stream(seed, "epoch", epoch)
        x = np.vstack([c + 0.3 * rng.gaussian(gen, (per, d)) for c in centers])
        return x, np.repeat(np.arange(n), per)

    return epoch_data


class Gathered:
    """An epoch source over a whole epoch's rows and their labels, gathered
    batch by batch."""

    def __init__(self, x, labels):
        self.x, self.labels = x, labels

    def rows(self, idx, out):
        return np.take(self.x, idx, axis=0, out=out[:idx.size])


def planned(data):
    """The epoch_data of train_projector from a source of whole epochs:
    each batch's rows gathered in the order asked for."""
    return lambda epoch: Gathered(*data(epoch))


def test_train_lr_zero_keeps_params():
    s = random_optimal_structure(3, 8, seed=11)
    p = params_fixture(6, 6, 8, seed=12)
    sched = dict(lr_max=0.0, epochs=2, warmup_steps=0, batch_size=24, seed=0,
                 tau=0.07)
    out, _ = train_projector(p, s, frozenset(), planned(training_data()),
                             **sched)
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(out, name), getattr(p, name))


def test_train_returns_trained_float64_copies_and_keeps_its_input():
    # the input weights, float64 or float32, are left byte-unchanged; the
    # result shares no memory with them, and float32 weights train as
    # their float64 values do
    s = random_optimal_structure(3, 8, seed=11)
    sched = dict(lr_max=0.1, epochs=2, warmup_steps=0, batch_size=24, seed=0,
                 tau=0.07)
    p64 = params_fixture(6, 6, 8, seed=12)
    for dtype in (np.float64, np.float32):
        p = ProjectorParams(**{n: v.astype(dtype) for n, v in vars(p64).items()})
        before = {n: v.tobytes() for n, v in vars(p).items()}
        out, _ = train_projector(p, s, frozenset(), planned(training_data()),
                                 **sched)
        want, _ = train_projector(ProjectorParams(
            **{n: v.astype(np.float64) for n, v in vars(p).items()}),
            s, frozenset(), planned(training_data()), **sched)
        for n, v in vars(p).items():
            got = getattr(out, n)
            assert v.tobytes() == before[n]
            assert got.dtype == np.float64 and not np.shares_memory(got, v)
            assert not np.array_equal(got, v)
            assert got.tobytes() == getattr(want, n).tobytes()


def test_train_loss_decreases():
    s = random_optimal_structure(3, 8, seed=12)
    p = params_fixture(6, 6, 8, seed=13)
    sched = dict(lr_max=0.1, epochs=6, warmup_steps=2, batch_size=24, seed=0,
                 tau=0.07)
    out, trace = train_projector(p, s, frozenset(), planned(training_data()),
                                 **sched)
    assert trace[-1] < trace[0]


def test_train_holds_one_epoch_at_a_time():
    # each epoch's source is released before the next epoch is requested,
    # and every step's rows are written into one batch-sized buffer
    s = random_optimal_structure(3, 8, seed=11)
    data = training_data()
    alive, buffers = [], []

    class Tracked(Gathered):
        def rows(self, idx, out):
            buffers.append(out)
            batch = super().rows(idx, out)
            assert np.shares_memory(batch, out)
            return batch

    def epoch_data(epoch):
        assert all(ref() is None for ref in alive), epoch
        source = Tracked(*data(epoch))
        alive.append(weakref.ref(source))
        return source

    sched = dict(lr_max=0.1, epochs=4, warmup_steps=0, batch_size=24, seed=0,
                 tau=0.07)
    train_projector(params_fixture(6, 6, 8, seed=12), s, frozenset(),
                    epoch_data, **sched)
    assert len(alive) == 4
    assert len(buffers) == 4 * 2
    assert all(out is buffers[0] for out in buffers)
    assert buffers[0].shape == (24, 6)


def test_train_peak_grows_by_less_than_a_batch_with_the_epoch(peak_bytes):
    # an epoch of 16,000 drawn rows at d = 256 is 32.8 MB; training on it
    # holds one batch of them at a time, so its peak (heap and mappings)
    # grows by less than one batch of rows over an epoch of 2,000
    d, batch_size = 256, 128
    gen = rng.stream(3, "one-batch")
    repo = PrototypeRepository()
    for cid in range(8):
        repo = repo.extended([f"c{cid}"], [rng.gaussian(gen, (d,))],
                             [gen.random(d)], exact=True)
    s = random_optimal_structure(8, 9, seed=1)
    sched = dict(lr_max=0.1, epochs=1, warmup_steps=0, batch_size=batch_size,
                 seed=0, tau=0.07)

    def peak(per_class):
        params = init_projector_params(d, 16, 9, seed=2)
        return peak_bytes(lambda: train_projector(
            params, s, frozenset(),
            lambda epoch: sample_augmented(repo, per_class, 1, 5, epoch),
            **sched))

    small, large = peak(250), peak(2000)
    assert large - small < batch_size * d * 8, (small, large)


def test_train_peak_holds_one_gradient_set(peak_bytes):
    # a step's gradients are spent in its update, so the peak holds the
    # tape's weights, one gradient set, the update's chunk buffer and at
    # most 16 arrays of one batch's rows (the batch buffer, the forward
    # values and the backward adjoints).  Gradients held into the next
    # step would add a second weight-sized set.
    d, batch_size = 256, 32
    gen = rng.stream(7, "one-gradient-set")
    repo = PrototypeRepository().extended(
        [f"c{k}" for k in range(8)], rng.gaussian(gen, (8, d)),
        gen.random((8, d)), exact=True)
    params = init_projector_params(d, d, d, seed=2)
    sched = dict(lr_max=0.1, epochs=1, warmup_steps=0, batch_size=batch_size,
                 seed=0, tau=0.07)
    peak = peak_bytes(lambda: train_projector(
        params, random_optimal_structure(8, d, seed=1), frozenset(),
        lambda epoch: sample_augmented(repo, 64, 1, 5, epoch), **sched))
    weight_bytes = sum(getattr(params, n).nbytes for n in ("w1", "b1", "w2", "b2"))
    bound = 2 * weight_bytes + _STEP_CHUNK * 8 + 16 * batch_size * d * 8
    assert peak < bound, (peak, bound)


def test_train_divergence_detected():
    # a step large enough to overflow the parameters must be reported, not
    # propagated as downstream shape/validation noise
    s = random_optimal_structure(3, 8, seed=13)
    p = params_fixture(6, 6, 8, seed=14)
    sched = dict(lr_max=1e200, epochs=3, warmup_steps=0, batch_size=24, seed=0,
                 tau=0.07)
    with np.errstate(all="ignore"), pytest.raises(
            TrainingDiverged, match=r"^step \d+: l2_normalize: non-finite row"):
        train_projector(p, s, frozenset(), planned(training_data()), **sched)


def test_train_non_finite_loss_names_the_step():
    # at tau = 1e-310, 1 / tau overflows to inf, and so do the similarities
    s = random_optimal_structure(3, 8, seed=13)
    p = params_fixture(6, 6, 8, seed=14)
    sched = dict(lr_max=0.1, epochs=3, warmup_steps=0, batch_size=24, seed=0,
                 tau=1e-310)
    with np.errstate(all="ignore"), pytest.raises(
            TrainingDiverged, match=r"^step \d+: loss became (inf|nan)$"):
        train_projector(p, s, frozenset(), planned(training_data()), **sched)


@pytest.mark.parametrize("tau", [1e-3, 1e-5])
def test_train_at_tiny_tau_keeps_a_finite_loss(tau):
    # 1 / tau far above log(max float) = 709: each row's exponentials are
    # taken relative to its largest similarity, so none overflows
    s = random_optimal_structure(3, 8, seed=13)
    p = params_fixture(6, 6, 8, seed=14)
    sched = dict(lr_max=0.1, epochs=3, warmup_steps=0, batch_size=24, seed=0,
                 tau=tau)
    with np.errstate(over="raise"):
        _, losses = train_projector(p, s, frozenset({2}),
                                    planned(training_data()), **sched)
    assert losses and np.isfinite(losses).all()


def test_pruned_backward_bitwise_equal_on_loss_graphs(unpruned_backward):
    # the projector graphs of acceptance criterion 4
    labels = np.array([0, 0, 1, 1, 2, 2])
    for point in range(3):
        s = random_optimal_structure(3, 6, seed=point)
        x = rng.gaussian(rng.stream(point, "acceptance-grad-x"), (6, 8))
        p = init_projector_params(8, 8, 6, seed=100 + point)
        graphs = []
        t = Tape()
        z = projection_nodes(t, _register(t, p), t.constant(x))
        graphs.append((t, build_matching_loss(t, z, labels, s)))
        t = Tape()
        z = projection_nodes(t, _register(t, p), t.constant(x[:4]))
        graphs.append((t, build_contrastive_loss(t, z, labels[:4], s,
                                                 frozenset({1}), tau=0.07)))
        t = Tape()
        z = projection_nodes(t, _register(t, p), t.constant(x))
        graphs.append((t, t.add(build_matching_loss(t, z, labels, s),
                                build_contrastive_loss(t, z, labels, s,
                                                       frozenset({2}), 0.07))))
        for t, loss in graphs:
            t.forward({})
            got, want = t.backward(loss), unpruned_backward(t, loss)
            for name in ("w1", "b1", "w2", "b2"):
                assert got[name].tobytes() == want[name].tobytes()


def session_graph(params, labels, structure, anchored, tau=0.07):
    """The once-built training graph: features and masks are tape inputs."""
    t = Tape()
    z = projection_nodes(t, _register(t, params), t.input("x"))
    loss = t.add(build_matching_loss(t, z, labels, structure),
                 build_contrastive_loss(t, z, labels, structure, anchored, tau))
    return t, loss


def test_graph_built_once_serves_another_batch():
    s = random_optimal_structure(4, 5, seed=20)
    gen = rng.stream(20, "feed")
    p = params_fixture(4, 4, 5, seed=21)
    y1, a1 = np.array([0, 0, 1, 1, 2, 2]), frozenset({1})
    y2, a2 = np.array([3, 0, 0, 2]), frozenset({2, 3})
    x1, x2 = rng.gaussian(gen, (6, 4)), rng.gaussian(gen, (4, 4))
    t, loss = session_graph(p, y1, s, a1)
    assert grad_check(t, {"x": x1, **batch_masks(y1, s, a1)}, loss) <= 1e-4
    feeds2 = {"x": x2, **batch_masks(y2, s, a2)}
    assert grad_check(t, feeds2, loss) <= 1e-4
    # the fed graph computes what a graph built for the second batch does
    fresh = Tape()
    z = projection_nodes(fresh, _register(fresh, p), fresh.constant(x2))
    fresh_loss = fresh.add(build_matching_loss(fresh, z, y2, s),
                           build_contrastive_loss(fresh, z, y2, s, a2, 0.07))
    fresh.forward({})
    t.forward(feeds2)
    assert float(t.value(loss)) == float(fresh.value(fresh_loss))


def test_batch_masks_checks():
    s = random_optimal_structure(3, 5, seed=22)
    with pytest.raises(LabelOutOfRange):
        batch_masks(np.array([0, 3]), s, frozenset())
    with pytest.raises(DegenerateBatch):
        batch_masks(np.array([0, 0, 1]), s, frozenset())
    m = batch_masks(np.array([0, 0, 1]), s, frozenset({1, 2}))
    assert m["anchor_cols"].shape == (5, 1) and m["own"].shape == (3, 1)
    np.testing.assert_array_equal(m["inv_pos"].ravel(), [1.0, 1.0, 1.0])
    m = batch_masks(np.array([0, 0]), s, frozenset({2}))
    assert m["anchor_cols"].shape == (5, 0) and m["own"].shape == (2, 0)


def reference_train(params, structure, anchored, epoch_data, *, epochs, lr_max,
                    warmup_steps, batch_size, seed, tau):
    """train_projector as a new tape per batch, built by the public
    builders, with copying SGD."""
    p = ProjectorParams(**{n: getattr(params, n).copy()
                           for n in ("w1", "b1", "w2", "b2")})
    first_x, first_y = epoch_data(0)
    total = epochs * max(1, math.ceil(first_y.size / batch_size))
    step, trace = 0, []
    for epoch in range(epochs):
        x, y = epoch_data(epoch)
        losses = []
        for idx in plan_epoch(y, batch_size, seed, epoch, anchored):
            t = Tape()
            z = projection_nodes(t, _register(t, p), t.constant(x[idx]))
            loss = t.add(build_matching_loss(t, z, y[idx], structure),
                         build_contrastive_loss(t, z, y[idx], structure,
                                                anchored, tau))
            t.forward({})
            losses.append(float(t.value(loss)))
            grads = t.backward(loss)
            lr = cosine_lr(step, total, lr_max, warmup_steps)
            for name, g in grads.items():
                setattr(p, name, t.param_value(name) - lr * g)
            step += 1
        trace.append(float(np.mean(losses)))
    return p, trace


def uneven_data(seed=0, counts=(14, 11, 7, 1), d=6):
    centers = rng.gaussian(rng.stream(seed, "centers"), (len(counts), d)) * 2.0

    def epoch_data(epoch):
        gen = rng.stream(seed, "epoch", epoch)
        x = np.vstack([c + 0.3 * rng.gaussian(gen, (n, d))
                       for c, n in zip(centers, counts)])
        return x, np.repeat(np.arange(len(counts)), counts)

    return epoch_data


@pytest.mark.parametrize("anchored", [frozenset({0, 1, 2, 3}),  # all present
                                      frozenset({3, 4}),         # some present
                                      frozenset({4})])           # none present
def test_train_matches_tape_per_batch_reference(anchored):
    s = random_optimal_structure(5, 8, seed=23)
    p = params_fixture(6, 6, 8, seed=24)
    sched = dict(lr_max=0.2, epochs=3, warmup_steps=2, batch_size=10, seed=5,
                 tau=0.1)
    got, got_trace = train_projector(p, s, anchored, planned(uneven_data()),
                                     **sched)
    want, want_trace = reference_train(p, s, anchored, uneven_data(), **sched)
    assert got_trace == want_trace
    for name in ("w1", "b1", "w2", "b2"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert not np.array_equal(getattr(got, name), getattr(p, name))


def test_train_zero_norm_feature_row_names_cause_and_step():
    s = random_optimal_structure(3, 8, seed=25)
    data = training_data()

    def with_zero_row(epoch):
        x, y = data(epoch)
        x = x.copy()
        if epoch == 1:
            x[5] = 0.0
        return x, y

    sched = dict(lr_max=0.1, epochs=2, warmup_steps=0, batch_size=48, seed=0,
                 tau=0.07)
    with pytest.raises(DegenerateInput, match=r"feature rows \[5\].*step 1"):
        train_projector(params_fixture(6, 6, 8), s, frozenset(),
                        planned(with_zero_row), **sched)


def test_train_zero_norm_projection_names_cause():
    s = random_optimal_structure(3, 8, seed=26)
    p = params_fixture(6, 6, 8)
    p.w2[:] = 0.0
    sched = dict(lr_max=0.1, epochs=1, warmup_steps=0, batch_size=48, seed=0,
                 tau=0.07)
    with pytest.raises(DegenerateInput, match="projected row.*step 0"):
        train_projector(p, s, frozenset(), planned(training_data()), **sched)


def test_train_non_finite_parameter_names_it():
    s = random_optimal_structure(3, 8, seed=27)
    sched = dict(lr_max=math.inf, epochs=1, warmup_steps=0, batch_size=24,
                 seed=0, tau=0.07)
    with np.errstate(all="ignore"), \
            pytest.raises(TrainingDiverged, match="step 0: param 'w1'"):
        train_projector(params_fixture(6, 6, 8), s, frozenset(),
                        planned(training_data()), **sched)


def balanced_batches_loop(labels, batch_size, seed, epoch, anchored):
    """The per-sample round-robin loop that plan_epoch's batching replaced."""
    gen = rng.stream(seed, "batches", epoch)
    classes = np.unique(labels)
    order = classes[gen.permutation(classes.size)]
    streams = {c: np.flatnonzero(labels == c)[gen.permutation(
        int((labels == c).sum()))] for c in order}
    interleaved = []
    cursors = {c: 0 for c in order}
    remaining = sum(s.size for s in streams.values())
    while remaining:
        for c in order:
            if cursors[c] < streams[c].size:
                interleaved.append(int(streams[c][cursors[c]]))
                cursors[c] += 1
                remaining -= 1
    batches = []
    for start in range(0, len(interleaved), batch_size):
        idx = np.asarray(interleaved[start:start + batch_size])
        batch_labels = labels[idx]
        uniq, counts = np.unique(batch_labels, return_counts=True)
        lonely = {int(c) for c, n in zip(uniq, counts)
                  if n == 1 and int(c) not in anchored}
        if lonely:
            idx = idx[~np.isin(batch_labels, sorted(lonely))]
        if idx.size >= 2:
            batches.append(idx)
    return batches


@settings(max_examples=200, deadline=None)
@given(labels=st.lists(st.integers(0, 7), max_size=60),
       anchored=st.frozensets(st.integers(0, 9), max_size=4),
       batch_size=st.integers(1, 25), seed=st.integers(0, 3),
       epoch=st.integers(0, 3))
def test_balanced_batches_match_round_robin_loop(labels, anchored, batch_size,
                                                 seed, epoch):
    labels = np.asarray(labels, dtype=np.int64)
    got = plan_epoch(labels, batch_size, seed, epoch, anchored)
    want = balanced_batches_loop(labels, batch_size, seed, epoch, anchored)
    assert len(got) == len(want)
    # the same rows in the same batches, each batch in ascending layout order
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, np.sort(w))
