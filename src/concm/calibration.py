"""Prototype calibration network and its episodic training.

A few-shot prototype is calibrated by cross-attention over the attribute
pool: relevance scores combine a semantic term (word-embedding similarity
between attribute and class, scaled by 1/(2 sqrt(d_s))) and a visual term
(similarity between attribute prototype and class prototype, scaled by
1/(2 sqrt(d_f))).  The encoder output of the prototype plus the
softmax-weighted encoder outputs of the associated attribute prototypes
feed a linear decoder that emits the calibrated prototype.

One graph serves C classes at once: the scores form a C x N_a matrix
(two matmul chains), the softmax over each class's associated attributes
is a softmax masked by the transposed association matrix R^T, and
aggregation and decoding are one matmul each.  Meta-training builds it for
all base classes; ``calibrate`` builds it for the one queried class.

Training is episodic on base classes: every episode draws K shots per
class, and the network regresses the shot prototypes onto the exact base
means with an MSE objective.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .attributes import AttributePool, SemanticKnowledge
from .autodiff import Tape
from .data import FeatureSet
from .errors import AllMasked, InsufficientSamples, InvalidConfig, ShapeError
from .optim import cosine_lr, sgd_step

logger = logging.getLogger("concm.calibration")


@dataclass
class Prototype:
    """Class mean estimate. source is one of raw | calibrated | base-exact."""

    class_id: int
    class_name: str
    mean: np.ndarray
    source: str
    shot_count: int


@dataclass
class CalibrationParams:
    """Encoder/decoder and attention-map weights of the calibration net."""

    w_enc: np.ndarray   # (d_f, d_f // 2)
    b_enc: np.ndarray   # (1, d_f // 2)
    w_dec: np.ndarray   # (d_f // 2, d_f)
    b_dec: np.ndarray   # (1, d_f)
    g_sem_attr: np.ndarray  # (d_s, d_attn)
    g_sem_cls: np.ndarray   # (d_s, d_attn)
    g_vis_attr: np.ndarray  # (d_f, d_attn)
    g_vis_cls: np.ndarray   # (d_f, d_attn)

    @property
    def d_f(self) -> int:
        return self.w_enc.shape[0]

    @property
    def d_s(self) -> int:
        return self.g_sem_attr.shape[0]


_PARAM_FIELDS = ("w_enc", "b_enc", "w_dec", "b_dec",
                 "g_sem_attr", "g_sem_cls", "g_vis_attr", "g_vis_cls")


def init_calibration_params(d_f: int, d_s: int, d_attn: int | None = None,
                            seed: int = 0) -> CalibrationParams:
    """Seeded Gaussian init, scaled by 1/sqrt(fan_in); zero biases."""
    d_attn = d_s if d_attn is None else d_attn
    d_e = d_f // 2
    shapes = {
        "w_enc": (d_f, d_e), "b_enc": (1, d_e),
        "w_dec": (d_e, d_f), "b_dec": (1, d_f),
        "g_sem_attr": (d_s, d_attn), "g_sem_cls": (d_s, d_attn),
        "g_vis_attr": (d_f, d_attn), "g_vis_cls": (d_f, d_attn),
    }
    values = {}
    for name, shape in shapes.items():
        if name.startswith("b_"):
            values[name] = np.zeros(shape)
        else:
            gen = rng.stream(seed, "calibration-init", name)
            values[name] = rng.gaussian(gen, shape) / math.sqrt(shape[0])
    return CalibrationParams(**values)


def _register_params(tape: Tape, params: CalibrationParams) -> dict[str, int]:
    return {name: tape.param(name, getattr(params, name)) for name in _PARAM_FIELDS}


def _read_params(tape: Tape, params: CalibrationParams) -> CalibrationParams:
    return replace(params, **{name: tape.param_value(name) for name in _PARAM_FIELDS})


def _mask(knowledge: SemanticKnowledge, class_names: list[str]) -> np.ndarray:
    """(C, N_a) rows of R^T for the classes; an empty row raises AllMasked."""
    mask = np.array([knowledge.assoc.column(name) for name in class_names],
                    dtype=bool)
    for name, row in zip(class_names, mask):
        if not row.any():
            raise AllMasked(f"class {name!r} has no associated pool attribute")
    return mask


def _calibration_nodes(tape: Tape, pnodes: dict[str, int], protos: int,
                       class_semantic: np.ndarray, mask: np.ndarray,
                       pool: AttributePool) -> tuple[int, int]:
    """Append the calibration graph of C classes; returns (scores, out).

    ``protos`` is a (C, d_f) node of class prototypes, ``class_semantic``
    the (C, d_s) class embeddings and ``mask`` the (C, N_a) associations.
    The score node is (C, N_a): relevance scores over the whole pool.  The
    output node is (C, d_f): the calibrated prototypes.
    """
    s_pool = tape.constant(pool.semantic)
    f_pool = tape.constant(pool.visual)
    sem = tape.matmul(
        tape.matmul(tape.constant(class_semantic), pnodes["g_sem_cls"]),
        tape.transpose(tape.matmul(s_pool, pnodes["g_sem_attr"])))
    vis = tape.matmul(tape.matmul(protos, pnodes["g_vis_cls"]),
                      tape.transpose(tape.matmul(f_pool, pnodes["g_vis_attr"])))
    scores = tape.add(tape.scale(sem, 1.0 / (2.0 * math.sqrt(pool.d_s))),
                      tape.scale(vis, 1.0 / (2.0 * math.sqrt(pool.d_f))))

    def encode(x: int) -> int:
        return tape.softplus(tape.add(tape.matmul(x, pnodes["w_enc"]),
                                      pnodes["b_enc"]))

    weights = tape.softmax(scores, axis=1, mask=mask)
    agg = tape.add(encode(protos), tape.matmul(weights, encode(f_pool)))
    out = tape.add(tape.matmul(agg, pnodes["w_dec"]), pnodes["b_dec"])
    return scores, out


def _check_dims(proto: Prototype, s_k: np.ndarray, knowledge: SemanticKnowledge,
                params: CalibrationParams) -> None:
    pool = knowledge.pool
    if proto.mean.shape != (pool.d_f,):
        raise ShapeError(f"prototype dim {proto.mean.shape} != pool d_f {pool.d_f}")
    if s_k.shape != (pool.d_s,):
        raise ShapeError(f"class embedding dim {s_k.shape} != pool d_s {pool.d_s}")
    if params.d_f != pool.d_f or params.d_s != pool.d_s:
        raise ShapeError("calibration params do not match the pool dimensions")


def _calibrate_one(proto: Prototype, s_k, knowledge: SemanticKnowledge,
                   params: CalibrationParams) -> tuple[Tape, int, int, np.ndarray]:
    """Evaluated single-class graph, with s_k as the class embedding;
    returns (tape, score node, output node, mask)."""
    s_k = np.asarray(s_k, dtype=np.float64)
    _check_dims(proto, s_k, knowledge, params)
    mask = _mask(knowledge, [proto.class_name])
    tape = Tape()
    scores, out = _calibration_nodes(
        tape, _register_params(tape, params),
        tape.constant(proto.mean.reshape(1, -1)), s_k.reshape(1, -1), mask,
        knowledge.pool)
    tape.forward({})
    return tape, scores, out, mask


def relevance_weights(proto: Prototype, s_k: np.ndarray,
                      knowledge: SemanticKnowledge,
                      params: CalibrationParams) -> np.ndarray:
    """Masked relevance scores over the whole pool; masked entries are 0."""
    tape, scores, _, mask = _calibrate_one(proto, s_k, knowledge, params)
    return np.where(mask, tape.value(scores), 0.0).ravel()


def calibrate(proto: Prototype, s_k: np.ndarray, knowledge: SemanticKnowledge,
              params: CalibrationParams) -> Prototype:
    """Calibrated prototype via encode, attribute aggregation, decode."""
    tape, _, out, _ = _calibrate_one(proto, s_k, knowledge, params)
    return replace(proto, mean=tape.value(out).ravel(), source="calibrated")


def blend(raw: Prototype, calibrated: Prototype, alpha: float) -> Prototype:
    """Final prototype: alpha * raw + (1 - alpha) * calibrated."""
    if not 0.0 <= alpha <= 1.0:
        raise InvalidConfig(f"blend weight must be in [0, 1], got {alpha}")
    mean = alpha * raw.mean + (1.0 - alpha) * calibrated.mean
    return replace(raw, mean=mean, source="calibrated")


@dataclass
class MetaTrainConfig:
    shots: int = 5
    episodes: int = 200
    lr_max: float = 1.0
    warmup: int = 20
    seed: int = 0


def _meta_loss(tape: Tape, params: CalibrationParams,
               knowledge: SemanticKnowledge, class_names: list[str],
               protos: int, targets: int) -> int:
    """Append the MSE between the calibrated ``protos`` and the ``targets``
    (both (C, d_f) nodes), averaged over all classes and dimensions."""
    semantic = np.array([knowledge.class_semantic[name] for name in class_names],
                        dtype=np.float64)
    _, out = _calibration_nodes(tape, _register_params(tape, params), protos,
                                semantic, _mask(knowledge, class_names),
                                knowledge.pool)
    diff = tape.sub(out, targets)
    return tape.mean(tape.mul(diff, diff))


def build_meta_tape(params: CalibrationParams, knowledge: SemanticKnowledge,
                    class_names: list[str]) -> tuple[Tape, int]:
    """Tape computing the MSE between calibrated shot prototypes (inputs
    ``p_meta_<name>``, one row each) and exact means (``target_<name>``),
    averaged over all classes and dimensions."""
    tape = Tape()
    protos = tape.stack([tape.input(f"p_meta_{name}") for name in class_names])
    targets = tape.stack([tape.input(f"target_{name}") for name in class_names])
    return tape, _meta_loss(tape, params, knowledge, class_names, protos,
                            targets)


def _class_rows(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """(C, n_max) table whose row c holds class c's row indices in file
    order, padded with -1."""
    counts = np.bincount(labels, minlength=n_classes)
    rows = np.full((n_classes, int(counts.max(initial=0))), -1, dtype=np.int64)
    rows[np.arange(rows.shape[1]) < counts[:, None]] = \
        np.argsort(labels, kind="stable")
    return rows


def _draw_shots(rows: np.ndarray, shots: int,
                gen: np.random.Generator) -> np.ndarray:
    """(C, shots) distinct row indices per class of a ``_class_rows`` table:
    one uniform key per entry, padding keyed off, each class's smallest."""
    keys = np.where(rows >= 0, rng.uniform(gen, rows.shape), np.inf)
    picks = np.argpartition(keys, shots - 1, axis=1)[:, :shots]
    return np.take_along_axis(rows, picks, axis=1)


def meta_train(base_features: FeatureSet, knowledge: SemanticKnowledge,
               params: CalibrationParams,
               config: MetaTrainConfig) -> tuple[CalibrationParams, list[float]]:
    """Episodic training of the calibration net on base classes.

    Every episode samples ``config.shots`` distinct shots per class, builds
    the shot prototypes, and takes one SGD step on the MSE against the
    exact class means.  Returns the trained parameters and the loss trace.
    An episode's shots of all classes are one gather of the base features.
    """
    if config.shots < 1:
        raise InvalidConfig("shots must be >= 1")
    names = list(base_features.class_names)
    features = base_features.features
    rows = _class_rows(base_features.labels, len(names))
    class_rows = [r[r >= 0] for r in rows]
    for name, r in zip(names, class_rows):
        if r.size <= config.shots:
            raise InsufficientSamples(
                f"class {name!r} has {r.size} samples; needs > {config.shots}")

    # the episode's shot prototypes are the (C, d_f) input ``p_meta``; the
    # exact class means are one constant
    tape = Tape()
    means = np.array([features[r].mean(axis=0) for r in class_rows])
    loss = _meta_loss(tape, params, knowledge, names, tape.input("p_meta"),
                      tape.constant(means))
    trace: list[float] = []
    for ep in range(config.episodes):
        gen = rng.stream(config.seed, "meta-episode", ep)
        protos = features[_draw_shots(rows, config.shots, gen)].mean(axis=1)
        tape.forward({"p_meta": protos})
        trace.append(float(tape.value(loss)))
        grads = tape.backward(loss)
        sgd_step(tape, grads, cosine_lr(ep, config.episodes, config.lr_max,
                                        config.warmup))
    logger.info("meta training: %d episodes, loss %.5f -> %.5f",
                config.episodes, trace[0] if trace else float("nan"),
                trace[-1] if trace else float("nan"))
    return _read_params(tape, params), trace
