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
from .autodiff import Tape
from .buffers import mapped_rows
from .errors import (DegenerateBatch, DegenerateInput, InvalidConfig,
                     InvalidInput, LabelOutOfRange, TrainingDiverged)
from .optim import cosine_lr, sgd_step
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


_PARAM_FIELDS = ("w1", "b1", "w2", "b2")


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


def _register(tape: Tape, params: ProjectorParams) -> dict[str, int]:
    return {n: tape.param(n, getattr(params, n)) for n in _PARAM_FIELDS}


def projection_nodes(tape: Tape, pnodes: dict[str, int], x_node: int) -> int:
    """normalize -> linear -> softplus -> linear -> normalize."""
    xn = tape.l2_normalize(x_node)
    h = tape.softplus(tape.add(tape.matmul(xn, pnodes["w1"]), pnodes["b1"]))
    return tape.l2_normalize(tape.add(tape.matmul(h, pnodes["w2"]), pnodes["b2"]))


# Rows per forward pass of project(): the node values of one block, not of
# every row, are held at a time.  Every block has this row count (the last
# one overlaps its predecessor), since a GEMM over few rows may round
# differently from one over many.
_BLOCK_ROWS = 256


def project(params: ProjectorParams, x: np.ndarray) -> np.ndarray:
    """Unit-norm projection of one feature vector or a batch of rows.

    The rows pass through one projection graph in blocks of a fixed row
    count, each written into the output, which has its own mapping
    (``buffers.mapped_rows``).  A zero-norm feature or projected row raises
    DegenerateInput naming the row.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    rows = x.reshape(1, -1) if single else x
    tape = Tape()
    z = projection_nodes(tape, _register(tape, params), tape.input("x"))
    n = rows.shape[0]
    out = mapped_rows(n, params.d_g)
    for start in range(0, n, _BLOCK_ROWS):
        start = min(start, max(n - _BLOCK_ROWS, 0))
        block = rows[start:start + _BLOCK_ROWS]
        zero = np.flatnonzero(np.linalg.norm(block, axis=1) < 1e-12)
        if zero.size:
            raise DegenerateInput("cannot project zero-norm feature row(s) "
                                  f"{(start + zero).tolist()}")
        try:
            tape.forward({"x": block})
        except DegenerateInput as exc:
            bad = [start + r for r in exc.rows]
            raise DegenerateInput(f"zero-norm projected row(s) {bad}",
                                  rows=bad) from exc
        out[start:start + block.shape[0]] = tape.value(z)
    return out.ravel() if single else out


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
    ``allow`` (b, b) keeps every pair but the sample itself in the
    contrastive denominator; ``pos`` (b, b) marks the other same-class
    samples; ``anchor_cols`` (d_g, n_a) holds the structure columns of the
    anchored classes present in the batch (n_a may be 0), and ``own``
    (b, n_a) marks each sample's own anchor; ``inv_pos`` (b, 1) is 1/|P| of
    each sample's positive set.  Raises LabelOutOfRange, and DegenerateBatch
    if any sample has no positive.
    """
    onehot = _onehot(labels, structure.num_classes)
    b = labels.size
    allow = 1.0 - np.eye(b)
    pos = (labels[:, None] == labels[None, :]).astype(np.float64)
    pos.flat[::b + 1] = 0.0
    anchored = np.asarray(sorted(set(anchored_classes) & set(labels.tolist())),
                          dtype=np.int64)
    own = (labels[:, None] == anchored[None, :]).astype(np.float64)
    # other same-class samples, plus the own anchor
    pos_counts = np.bincount(labels)[labels] - 1.0 + own.sum(axis=1)
    if (pos_counts == 0).any():
        bad = labels[pos_counts == 0]
        raise DegenerateBatch(f"empty positive set for labels {sorted(set(bad.tolist()))}")
    return {"onehot": onehot, "allow": allow, "pos": pos,
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
        z_node, masks["anchor_cols"], masks["allow"], masks["pos"],
        masks["own"], masks["inv_pos"], tau)


@dataclass
class TrainSchedule:
    lr_max: float = 1e-2
    epochs: int = 50
    warmup_steps: int = 10
    batch_size: int = 128
    seed: int = 0


def _balanced_batches(labels: np.ndarray, batch_size: int, seed: int, epoch: int,
                      anchored: frozenset[int]) -> list[np.ndarray]:
    """Class-balanced batches; drops samples whose class would appear once
    in a batch without an anchor (the contrastive loss needs a positive)."""
    gen = rng.stream(seed, "batches", epoch)
    classes, sizes = np.unique(labels, return_counts=True)
    if not classes.size:
        return []
    order = rng.permutation(gen, classes.size)
    # each class's row indices in file order, then shuffled, classes in draw order
    by_class = np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes)[:-1])
    streams = [by_class[k][rng.permutation(gen, sizes[k])] for k in order]
    # round robin: the r-th sample of every class, classes in draw order
    sizes = sizes[order]
    flat = np.concatenate(streams)
    slot = np.repeat(np.arange(len(streams)), sizes)
    rank = np.arange(flat.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    interleaved = flat[np.lexsort((slot, rank))]
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
            batches.append(idx)
    return batches


def _zero_norm_cause(features: np.ndarray, idx: np.ndarray) -> str:
    zero = idx[np.sqrt((features * features).sum(axis=1)) < 1e-300]
    if zero.size:
        return f"zero-norm feature rows {zero.tolist()} in the training data"
    return "zero-norm projected row (hidden activation)"


def train_projector(params: ProjectorParams, structure: StructureMatrix,
                    anchored_classes: frozenset[int], schedule: TrainSchedule,
                    epoch_data, tau: float = 0.07) -> tuple[ProjectorParams, list[float]]:
    """Optimize the projector against a structure.

    ``epoch_data(epoch)`` returns the (features, labels) arrays to train on
    during that epoch (augmented samples are redrawn each epoch by the
    caller); it is called once per epoch, in order, and the previous
    epoch's arrays are dropped before the call, so one epoch is held at a
    time.  Returns updated parameters and the per-epoch mean loss.

    The loss graph is built once per call, by the same builders that serve
    a single batch: the batch features (input ``x``) and the masks of
    ``batch_masks`` are tape inputs fed at each step.  A step is one forward
    pass, one backward pass that forms only the adjoints a parameter needs,
    and an in-place SGD update of the tape's parameters.  A zero-norm
    feature or projected row raises DegenerateInput, a non-finite loss or
    parameter TrainingDiverged, each naming the step.
    """
    tape = Tape()
    pnodes = _register(tape, params)
    z = projection_nodes(tape, pnodes, tape.input("x"))
    # the builders' default masks (of no labels) are always overridden
    no_labels = np.zeros(0, dtype=np.int64)
    loss = tape.add(build_matching_loss(tape, z, no_labels, structure),
                    build_contrastive_loss(tape, z, no_labels, structure,
                                           anchored_classes, tau=tau))
    x, y = epoch_data(0)
    steps_per_epoch = max(1, math.ceil(y.size / schedule.batch_size))
    total_steps = schedule.epochs * steps_per_epoch
    step = 0
    trace: list[float] = []
    for epoch in range(schedule.epochs):
        if epoch:
            x = y = None  # drop the last epoch before drawing the next
            x, y = epoch_data(epoch)
        y = np.asarray(y, dtype=np.int64)
        epoch_losses = []
        for idx in _balanced_batches(y, schedule.batch_size, schedule.seed,
                                     epoch, anchored_classes):
            feeds = batch_masks(y[idx], structure, anchored_classes)
            feeds["x"] = x[idx]
            try:
                tape.forward(feeds)
            except DegenerateInput as exc:
                raise DegenerateInput(f"{_zero_norm_cause(feeds['x'], idx)} "
                                      f"at step {step} (epoch {epoch})") from exc
            except InvalidInput as exc:
                raise TrainingDiverged(f"non-finite state at step {step}: {exc}") \
                    from exc
            value = float(tape.value(loss))
            if not np.isfinite(value):
                raise TrainingDiverged(f"loss became {value} at step {step}")
            grads = tape.backward(loss)
            lr = cosine_lr(step, total_steps, schedule.lr_max,
                           schedule.warmup_steps)
            try:
                sgd_step(tape, grads, lr)
            except InvalidInput as exc:
                raise TrainingDiverged(f"step {step}: {exc}") from exc
            epoch_losses.append(value)
            step += 1
        trace.append(float(np.mean(epoch_losses)) if epoch_losses else float("nan"))
    logger.info("projector: %d epochs, loss %.4f -> %.4f", schedule.epochs,
                trace[0] if trace else float("nan"),
                trace[-1] if trace else float("nan"))
    return ProjectorParams(**{n: tape.param_value(n) for n in _PARAM_FIELDS}), trace
