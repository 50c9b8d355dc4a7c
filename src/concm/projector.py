"""Feature-to-geometry projector, its losses, and per-session training.

The projector is a two-layer MLP wrapped in L2 normalization on both
sides, so it maps the feature hypersphere onto the geometric hypersphere.
Training minimizes a matching loss (softmax cross-entropy of projected
vectors against the structure columns) plus a supervised contrastive loss
with temperature tau, where samples of anchored classes get their class's
structure column appended to the positive set.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .autodiff import Tape, zero_norm_rows
from .errors import (DegenerateBatch, DegenerateInput, InvalidConfig,
                     LabelOutOfRange, ShapeError)
from .optim import cosine_lr, register_params as _register, sgd_step
from .structure import StructureMatrix

logger = logging.getLogger("concm.projector")


@dataclass
class ProjectorParams:
    w1: np.ndarray  # (d_f, d_hidden)
    b1: np.ndarray  # (1, d_hidden)
    w2: np.ndarray  # (d_hidden, d_g)
    b2: np.ndarray  # (1, d_g)

    @property
    def d_f(self) -> int:
        return self.w1.shape[0]

    @property
    def d_g(self) -> int:
        return self.w2.shape[1]


def init_projector_params(d_f: int, d_hidden: int, d_g: int,
                          seed: int = 0) -> ProjectorParams:
    """Gaussian weights and zero biases.

    w1 is N(0, 1) because its inputs are unit-norm rows: each hidden
    pre-activation then has unit variance (He et al. 2015, applied to the
    input's norm).  Smaller weights keep softplus near its linear part at
    0, and every row projects to nearly the same direction.  w2 is
    N(0, 1/d_hidden).
    """
    def draw(name, shape):
        return rng.gaussian(rng.stream(seed, "projector-init", name), shape)
    return ProjectorParams(w1=draw("w1", (d_f, d_hidden)),
                           b1=np.zeros((1, d_hidden)),
                           w2=draw("w2", (d_hidden, d_g)) / math.sqrt(d_hidden),
                           b2=np.zeros((1, d_g)))


def projection_nodes(tape: Tape, pnodes: dict[str, int], x_node: int) -> int:
    """normalize -> linear -> softplus -> linear -> normalize."""
    xn = tape.l2_normalize(x_node)
    h = tape.softplus(tape.add(tape.matmul(xn, pnodes["w1"]), pnodes["b1"]))
    return tape.l2_normalize(tape.add(tape.matmul(h, pnodes["w2"]), pnodes["b2"]))


def project(params: ProjectorParams, x: np.ndarray) -> np.ndarray:
    """Unit-norm projections of the (n, d_f) rows ``x``, in one forward pass
    of the projection graph, which reads the weights without copying them.
    A zero-norm feature or projected row raises DegenerateInput naming the
    row, a non-finite weight InvalidInput naming the weight."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"project takes (n, d_f) rows, got shape {x.shape}")
    zero = zero_norm_rows(x)
    if zero.size:
        raise DegenerateInput("cannot project zero-norm feature row(s) "
                              f"{zero.tolist()}")
    tape = Tape()
    z = projection_nodes(tape, _register(tape, params), tape.input("x"))
    try:
        tape.forward({"x": x})
    except DegenerateInput as exc:
        raise DegenerateInput(f"zero-norm projected row(s) {exc.rows}",
                              rows=exc.rows) from exc
    return tape.value(z)


def _onehot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise LabelOutOfRange(f"labels must lie in [0, {n_classes})")
    onehot = np.zeros((labels.size, n_classes))
    onehot[np.arange(labels.size), labels] = 1.0
    return onehot


def batch_masks(labels: np.ndarray, structure: StructureMatrix,
                anchored_classes: frozenset[int]) -> dict[str, np.ndarray]:
    """The per-batch inputs of the projector losses, by tape input name.

    For a batch of b samples: ``onehot`` (b, N) picks each sample's logit;
    ``pos`` (b, b) marks the other same-class samples; ``anchor_cols``
    (d_g, n_a) holds the structure columns of the anchored classes present
    in the batch (n_a may be 0), and ``own`` (b, n_a) marks each sample's
    own anchor; ``inv_pos`` (b, 1) is 1/|P| of each sample's positive set.
    Raises LabelOutOfRange, and DegenerateBatch if any sample has no
    positive.
    """
    onehot = _onehot(labels, structure.num_classes)
    pos = (labels[:, None] == labels[None, :]).astype(np.float64)
    np.fill_diagonal(pos, 0.0)
    anchored = np.asarray(sorted(set(anchored_classes) & set(labels.tolist())),
                          dtype=np.int64)
    own = (labels[:, None] == anchored[None, :]).astype(np.float64)
    # other same-class samples, plus the own anchor
    pos_counts = np.bincount(labels)[labels] - 1.0 + own.sum(axis=1)
    if (pos_counts == 0).any():
        bad = labels[pos_counts == 0]
        raise DegenerateBatch(f"empty positive set for labels {sorted(set(bad.tolist()))}")
    return {"onehot": onehot, "pos": pos,
            "anchor_cols": structure.columns[:, anchored], "own": own,
            "inv_pos": (1.0 / pos_counts).reshape(-1, 1)}


def build_matching_loss(tape: Tape, z_node: int, labels: np.ndarray,
                        structure: StructureMatrix) -> int:
    """Mean softmax cross-entropy of <z, column_j> logits at each label.

    The label one-hot is the tape input ``onehot``, which defaults to that
    of ``labels``.
    """
    onehot = _onehot(labels, structure.num_classes)
    logits = tape.matmul(z_node, tape.constant(structure.columns))
    return tape.cross_entropy(logits, tape.input("onehot", onehot))


def build_contrastive_loss(tape: Tape, z_node: int, labels: np.ndarray,
                           structure: StructureMatrix,
                           anchored_classes: frozenset[int],
                           tau: float) -> int:
    """Supervised contrastive loss with structure anchors.

    For sample i, the positive set holds all other same-class samples, plus
    the class's structure column when the class is anchored; the
    denominator runs over every other sample plus the sample's own anchor.
    The masks are the tape inputs named by ``batch_masks``, which default
    to those of ``labels``; so one graph serves every batch of a session.
    Raises DegenerateBatch if any sample ends up with no positives.
    """
    if tau <= 0.0:
        raise InvalidConfig(f"temperature must be positive, got {tau}")
    masks = {name: tape.input(name, value) for name, value in
             batch_masks(labels, structure, anchored_classes).items()
             if name != "onehot"}
    return tape.anchored_contrastive(
        z_node, masks["anchor_cols"], masks["pos"], masks["own"],
        masks["inv_pos"], tau)


def plan_epoch(labels: np.ndarray, batch_size: int, seed: int, epoch: int,
               anchored: frozenset[int]) -> list[np.ndarray]:
    """The batches of one epoch of ``train_projector``: the row indices into
    ``labels`` of each batch, in ascending layout order, in the order the
    steps take them.  Batches are class-balanced; a sample whose class
    would appear once in a batch without an anchor is dropped (the
    contrastive loss needs a positive).

    Batch membership comes from a round robin over the classes; sorting a
    batch puts each class's slots in one run and the replay slots last,
    so the sampler draws each class's rows in one call."""
    gen = rng.stream(seed, "batches", epoch)
    classes, sizes = np.unique(labels, return_counts=True)
    if not classes.size:
        return []
    order = gen.permutation(classes.size)
    # each class's row indices in file order, then shuffled, classes in draw order
    by_class = np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes)[:-1])
    streams = [by_class[k][gen.permutation(sizes[k])] for k in order]
    # round robin: the r-th sample of every class, classes in draw order
    # (``flat`` runs class by class, so a stable sort on rank keeps it)
    sizes = sizes[order]
    flat = np.concatenate(streams)
    rank = np.arange(flat.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    interleaved = flat[np.argsort(rank, kind="stable")]
    # per-batch class counts by bincount over labels shifted to start at 0
    span = np.arange(classes[0], classes[-1] + 1)
    unanchored = ~np.isin(span, sorted(anchored))
    shifted = labels - classes[0]
    batches = []
    for start in range(0, interleaved.size, batch_size):
        idx = interleaved[start:start + batch_size]
        batch_labels = shifted[idx]
        lonely = (np.bincount(batch_labels, minlength=span.size) == 1) & unanchored
        if lonely.any():
            idx = idx[~lonely[batch_labels]]
        if idx.size >= 2:
            batches.append(np.sort(idx))
    return batches


def _zero_norm_cause(features: np.ndarray, idx: np.ndarray) -> str:
    zero = idx[zero_norm_rows(features)]
    if zero.size:
        return f"zero-norm feature rows {zero.tolist()} in the training data"
    return "zero-norm projected row (hidden activation)"


def train_projector(params: ProjectorParams, structure: StructureMatrix,
                    anchored: frozenset[int], epoch_data,
                    *, epochs: int, lr_max: float, warmup_steps: int,
                    batch_size: int, seed: int,
                    tau: float) -> tuple[ProjectorParams, list[float]]:
    """Optimize the projector against a structure, at a cosine learning
    rate that peaks at ``lr_max`` after ``warmup_steps`` steps.

    ``epoch_data(epoch)`` returns that epoch's source, once per epoch, in
    order, after the previous source is dropped (augmented samples are
    redrawn each epoch by the caller).  ``source.labels`` are the class ids
    of the rows of the epoch's layout; the epoch's batches are planned from
    them (``plan_epoch``), and the schedule's length from epoch 0's.  A
    step asks the source for its batch: ``source.rows(idx, buf)`` writes
    the features of layout rows ``idx``, in that order, into
    ``buf[:idx.size]`` and returns that view.  ``buf`` is one (batch_size,
    d_f) array kept for the whole call, so no step holds more than one
    batch of rows.  Returns the trained float64 weights, a copy that shares
    no memory with ``params`` (which are left as they were), and the
    per-epoch mean loss.

    The loss graph is built once per call, by the same builders that serve
    a single batch: the batch features (input ``x``) and the masks of
    ``batch_masks`` are tape inputs fed at each step.  A step is one
    ``sgd_step``, whose update spends its gradients: none are held into the
    next step.  A zero-norm feature or projected row raises DegenerateInput
    naming its cause and the step; a non-finite loss, state or parameter
    raises TrainingDiverged("step <n>: <what>").
    """
    # the tape trains in place the float64 copy of the weights it returns
    tape = Tape()
    own = ProjectorParams(
        **{n: np.array(v, dtype=np.float64) for n, v in vars(params).items()})
    z = projection_nodes(tape, _register(tape, own), tape.input("x"))
    # the builders' default masks (of no labels) are always overridden
    no_labels = np.zeros(0, dtype=np.int64)
    loss = tape.add(build_matching_loss(tape, z, no_labels, structure),
                    build_contrastive_loss(tape, z, no_labels, structure,
                                           anchored, tau=tau))
    buf = np.empty((batch_size, params.d_f))
    step = 0
    trace: list[float] = []
    for epoch in range(epochs):
        source = None  # drop the last epoch's source before making the next
        source = epoch_data(epoch)
        y = np.asarray(source.labels, dtype=np.int64)
        if epoch == 0:
            total_steps = epochs * max(1, math.ceil(y.size / batch_size))
        batches = plan_epoch(y, batch_size, seed, epoch, anchored)
        epoch_losses = []
        for idx in batches:
            feeds = batch_masks(y[idx], structure, anchored)
            feeds["x"] = source.rows(idx, buf)
            lr = cosine_lr(step, total_steps, lr_max, warmup_steps)
            try:
                epoch_losses.append(sgd_step(tape, loss, feeds, lr,
                                             f"step {step}"))
            except DegenerateInput as exc:
                raise DegenerateInput(f"{_zero_norm_cause(feeds['x'], idx)} "
                                      f"at step {step} (epoch {epoch})") from exc
            step += 1
        trace.append(float(np.mean(epoch_losses)) if epoch_losses else float("nan"))
    logger.info("projector: %d epochs, loss %.4f -> %.4f", epochs,
                trace[0] if trace else float("nan"),
                trace[-1] if trace else float("nan"))
    return own, trace
