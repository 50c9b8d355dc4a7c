import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concm import rng
from concm.autodiff import Tape, grad_check
from concm.errors import (DegenerateBatch, DegenerateInput, InvalidConfig,
                          LabelOutOfRange, TrainingDiverged)
from concm.metrics import similarity_stats
from concm.optim import cosine_lr
from concm.projector import (ProjectorParams, TrainSchedule, batch_masks,
                             build_contrastive_loss, build_matching_loss,
                             init_projector_params, project, projection_nodes,
                             train_projector)
from concm.projector import _BLOCK_ROWS, _balanced_batches, _onehot, _register
from concm.structure import random_optimal_structure


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


def composed_matching_loss(tape, z_node, labels, structure):
    """The matching loss as a graph of elementwise tape ops: the reference
    for the fused cross_entropy node."""
    logits = tape.matmul(z_node, tape.constant(structure.columns))
    ls = tape.log_softmax(logits, axis=1)
    onehot = tape.constant(_onehot(labels, structure.num_classes))
    picked = tape.sum(tape.mul(ls, onehot), axis=1)
    return tape.scale(tape.mean(picked), -1.0)


def composed_contrastive_loss(tape, z_node, labels, structure, anchored, tau):
    """The contrastive loss as a graph of elementwise tape ops: the
    reference for the fused anchored_contrastive node."""
    m = {k: tape.constant(v) for k, v in
         batch_masks(labels, structure, anchored).items()}
    sims = tape.scale(tape.matmul(z_node, tape.transpose(z_node)), 1.0 / tau)
    denom = tape.sum(tape.mul(tape.exp(sims), m["allow"]), axis=1)
    pos_sum = tape.sum(tape.mul(sims, m["pos"]), axis=1)
    asims = tape.scale(tape.matmul(z_node, m["anchor_cols"]), 1.0 / tau)
    denom = tape.add(denom, tape.sum(tape.mul(tape.exp(asims), m["own"]), axis=1))
    pos_sum = tape.add(pos_sum, tape.sum(tape.mul(asims, m["own"]), axis=1))
    per_sample = tape.sub(tape.log(denom), tape.mul(pos_sum, m["inv_pos"]))
    return tape.mean(per_sample)


def params_fixture(d_f=6, d_h=6, d_g=5, seed=0):
    return init_projector_params(d_f, d_h, d_g, seed=seed)


def test_project_unit_norm_and_scale_invariance():
    p = params_fixture()
    x = rng.gaussian(rng.stream(0, "proj"), (4, 6))
    z = project(p, x)
    np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-10)
    np.testing.assert_array_equal(project(p, 2.0 * x), z)
    # same values whether projected alone or in a batch (up to summation order)
    np.testing.assert_allclose(project(p, x[0]), z[0], rtol=0, atol=1e-12)


def test_project_deterministic():
    p = params_fixture(seed=3)
    x = rng.gaussian(rng.stream(1, "proj"), (6,))
    assert np.array_equal(project(p, x), project(p, x))


def test_project_zero_input():
    with pytest.raises(DegenerateInput):
        project(params_fixture(), np.zeros(6))


def single_pass_projection(params, x):
    """Every row through the projection graph in one forward pass: the
    reference for the blocked projection."""
    rows = np.atleast_2d(x)
    t = Tape()
    z = projection_nodes(t, _register(t, params), t.constant(rows))
    t.forward({})
    return t.value(z).ravel() if x.ndim == 1 else t.value(z)


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 1000, None])
def test_project_in_blocks_equals_one_pass(n, monkeypatch):
    fed = []
    forward = Tape.forward

    def counting_forward(tape, feeds=None):
        fed.append(feeds["x"].shape[0])
        return forward(tape, feeds)

    monkeypatch.setattr(Tape, "forward", counting_forward)
    p = params_fixture(12, 10, 9, seed=4)
    shape = (12,) if n is None else (n, 12)
    x = rng.gaussian(rng.stream(8, "blocks", str(n)), shape)
    z = project(p, x)
    monkeypatch.setattr(Tape, "forward", forward)
    want = single_pass_projection(p, x) if n != 0 else np.empty((0, 9))
    assert z.shape == want.shape
    assert z.tobytes() == want.tobytes()
    assert all(rows <= _BLOCK_ROWS for rows in fed)
    assert sum(fed) >= (1 if n is None else n)


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


def test_project_peak_memory_does_not_grow_with_rows(mapping_of):
    p = params_fixture(32, 32, 32, seed=5)

    def extra_bytes(n):
        x = rng.gaussian(rng.stream(n, "peak"), (n, 32))
        tracemalloc.start()
        try:
            z = project(p, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a mapped output is outside the traced heap: count it on top
        held = peak + (z.nbytes if mapping_of(z) is not None else 0)
        return held - z.nbytes

    small, large = extra_bytes(2 * _BLOCK_ROWS), extra_bytes(16 * _BLOCK_ROWS)
    assert large <= small + 16 * 1024, (small, large)


@pytest.mark.parametrize("d_f", [64, 512])
def test_projector_init_does_not_collapse(d_f):
    # the collapse indicator: mean cosine between the projections of 200
    # isotropic unit-norm rows at init.  With w1 ~ N(0, 1/d_f) it reads
    # 0.990-0.994 at d_f = 64 and 0.9989-0.9991 at d_f = 512 (init seeds
    # 0-4); with w1 ~ N(0, 1), 0.66-0.76 and 0.68-0.73.
    x = rng.gaussian(rng.stream(d_f, "collapse"), (200, d_f))
    z = project(init_projector_params(d_f, d_f, d_f, seed=0), x)
    sim_cls, _ = similarity_stats(z, np.arange(200))
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
        assert int(np.argmin(losses)) == ncm_classify(z, s)


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
    # moving a novel sample toward its structure column lowers the loss
    s = random_optimal_structure(3, 6, seed=9)
    gen = rng.stream(9, "anchor")
    z = rng.gaussian(gen, (4, 6))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    labels = np.array([0, 0, 1, 1])
    anchor = s.columns[:, 1]
    far = z.copy()
    far[2] = (z[2] + 0.0 * anchor)
    near = z.copy()
    near[2] = (z[2] + 2.0 * anchor) / np.linalg.norm(z[2] + 2.0 * anchor)
    loss_far = contrastive_value((far, labels, frozenset({1})), s, 0.07)
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
    t = Tape()
    loss = build(t, t.param("z", z))
    t.forward({})
    return float(t.value(loss)), t.backward(loss)["z"]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), present=st.sampled_from(["all", "some", "none"]),
       n_classes=st.integers(2, 6), per_class=st.integers(2, 5),
       tau=st.sampled_from([0.07, 0.5, 2.0]))
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
        np.testing.assert_allclose(got, want, rtol=1e-12)
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
                 t.anchored_contrastive(z, nodes["anchor_cols"], nodes["allow"],
                                        nodes["pos"], nodes["own"],
                                        nodes["inv_pos"], 0.1))
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
    sched = TrainSchedule(lr_max=0.1, epochs=1, warmup_steps=0, batch_size=24,
                          seed=0)
    train_projector(params_fixture(6, 6, 8, seed=12),
                    random_optimal_structure(3, 8, seed=11), frozenset({1}),
                    sched, training_data())
    assert len(built) == 1
    assert len(built[0]._nodes) <= 25


def training_data(seed=0, n=3, per=16, d=6):
    centers = rng.gaussian(rng.stream(seed, "centers"), (n, d)) * 2.0

    def epoch_data(epoch):
        gen = rng.stream(seed, "epoch", epoch)
        x = np.vstack([c + 0.3 * rng.gaussian(gen, (per, d)) for c in centers])
        return x, np.repeat(np.arange(n), per)

    return epoch_data


def test_train_lr_zero_keeps_params():
    s = random_optimal_structure(3, 8, seed=11)
    p = params_fixture(6, 6, 8, seed=12)
    sched = TrainSchedule(lr_max=0.0, epochs=2, warmup_steps=0, batch_size=24,
                          seed=0)
    out, _ = train_projector(p, s, frozenset(), sched, training_data())
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(out, name), getattr(p, name))


def test_train_loss_decreases():
    s = random_optimal_structure(3, 8, seed=12)
    p = params_fixture(6, 6, 8, seed=13)
    sched = TrainSchedule(lr_max=0.1, epochs=6, warmup_steps=2, batch_size=24,
                          seed=0)
    out, trace = train_projector(p, s, frozenset(), sched, training_data())
    assert trace[-1] < trace[0]


def test_train_holds_one_epoch_at_a_time():
    # each epoch's arrays are released before the next epoch is requested
    s = random_optimal_structure(3, 8, seed=11)
    data = training_data()
    alive = []

    def epoch_data(epoch):
        assert all(ref() is None for ref in alive), epoch
        x, y = data(epoch)
        alive.extend([weakref.ref(x), weakref.ref(y)])
        return x, y

    sched = TrainSchedule(lr_max=0.1, epochs=4, warmup_steps=0, batch_size=24,
                          seed=0)
    train_projector(params_fixture(6, 6, 8, seed=12), s, frozenset(), sched,
                    epoch_data)
    assert len(alive) == 8


def test_train_divergence_detected():
    # a step large enough to overflow the parameters must be reported, not
    # propagated as downstream shape/validation noise
    s = random_optimal_structure(3, 8, seed=13)
    p = params_fixture(6, 6, 8, seed=14)
    sched = TrainSchedule(lr_max=1e200, epochs=3, warmup_steps=0, batch_size=24,
                          seed=0)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
        train_projector(p, s, frozenset(), sched, training_data())


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


def reference_train(params, structure, anchored, schedule, epoch_data, tau):
    """train_projector as a new tape per batch, built by the public
    builders, with copying SGD."""
    p = ProjectorParams(**{n: getattr(params, n).copy()
                           for n in ("w1", "b1", "w2", "b2")})
    first_x, first_y = epoch_data(0)
    total = schedule.epochs * max(1, math.ceil(first_y.size / schedule.batch_size))
    step, trace = 0, []
    for epoch in range(schedule.epochs):
        x, y = epoch_data(epoch)
        losses = []
        for idx in _balanced_batches(y, schedule.batch_size, schedule.seed,
                                     epoch, anchored):
            t = Tape()
            z = projection_nodes(t, _register(t, p), t.constant(x[idx]))
            loss = t.add(build_matching_loss(t, z, y[idx], structure),
                         build_contrastive_loss(t, z, y[idx], structure,
                                                anchored, tau))
            t.forward({})
            losses.append(float(t.value(loss)))
            grads = t.backward(loss)
            lr = cosine_lr(step, total, schedule.lr_max, schedule.warmup_steps)
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
    sched = TrainSchedule(lr_max=0.2, epochs=3, warmup_steps=2, batch_size=10,
                          seed=5)
    got, got_trace = train_projector(p, s, anchored, sched, uneven_data(), tau=0.1)
    want, want_trace = reference_train(p, s, anchored, sched, uneven_data(), 0.1)
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

    sched = TrainSchedule(lr_max=0.1, epochs=2, warmup_steps=0, batch_size=48,
                          seed=0)
    with pytest.raises(DegenerateInput, match=r"feature rows \[5\].*step 1"):
        train_projector(params_fixture(6, 6, 8), s, frozenset(), sched,
                        with_zero_row)


def test_train_zero_norm_projection_names_cause():
    s = random_optimal_structure(3, 8, seed=26)
    p = params_fixture(6, 6, 8)
    p.w2[:] = 0.0
    sched = TrainSchedule(lr_max=0.1, epochs=1, warmup_steps=0, batch_size=48,
                          seed=0)
    with pytest.raises(DegenerateInput, match="projected row.*step 0"):
        train_projector(p, s, frozenset(), sched, training_data())


def test_train_non_finite_parameter_names_it():
    s = random_optimal_structure(3, 8, seed=27)
    sched = TrainSchedule(lr_max=math.inf, epochs=1, warmup_steps=0,
                          batch_size=24, seed=0)
    with np.errstate(all="ignore"), \
            pytest.raises(TrainingDiverged, match="step 0: param 'w1'"):
        train_projector(params_fixture(6, 6, 8), s, frozenset(), sched,
                        training_data())


def balanced_batches_loop(labels, batch_size, seed, epoch, anchored):
    """The per-sample round-robin loop _balanced_batches replaced."""
    gen = rng.stream(seed, "batches", epoch)
    classes = np.unique(labels)
    order = classes[rng.permutation(gen, classes.size)]
    streams = {c: np.flatnonzero(labels == c)[rng.permutation(
        gen, int((labels == c).sum()))] for c in order}
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
    got = _balanced_batches(labels, batch_size, seed, epoch, anchored)
    want = balanced_batches_loop(labels, batch_size, seed, epoch, anchored)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
