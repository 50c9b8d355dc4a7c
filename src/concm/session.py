"""Session orchestration: base setup, incremental adaptation, evaluation.

The base session builds the semantic knowledge set, trains the calibration
net episodically and stores exact base-class statistics; an incremental
session calibrates and blends the novel prototypes, transfers covariances
and extends the repository.  Every session then ends in one fit step:
an initial structure from the projected repository means (previous
columns carried over unchanged), the strategy's structure and its SMR, and
projector training on Gaussian augmentation plus the replay buffer.

Strategies: ``concm`` is the full pipeline; ``rm`` replaces the structure
update with a random optimal structure per session; ``fs`` uses the prefix
columns of one random optimal structure for the declared total class
count, derived from the seed; ``frozen`` never trains the projector.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .attributes import (AttributeTable, SemanticKnowledge, build_knowledge,
                         build_pool, load_attribute_table,
                         load_semantic_embeddings)
from .augment import (PrototypeRepository, class_statistics, epoch_labels,
                      novel_covariance, sample_augmented, shot_variance,
                      transfer_weights)
from .calibration import (CalibrationParams, Prototype, blend, calibrate,
                          init_calibration_params, meta_train)
from .data import (FeatureSet, Manifest, check_fields, load_config,
                   load_features, load_manifest)
from .errors import InvalidConfig, ProtocolViolation, SchemaError
from .metrics import (ClassSums, RunReport, SessionRecord, ncm_classify,
                      run_metrics, session_metrics, similarity_stats)
from .projector import (ProjectorParams, init_projector_params, project,
                        train_projector)
from .structure import (InitialStructure, StructureMatrix, initial_structure,
                        nearest_optimal_structure, random_optimal_structure,
                        structure_matching_rate)

logger = logging.getLogger("concm.session")

STRATEGIES = ("concm", "rm", "fs", "frozen")
# (low, high) of each ranged field, None for an open end.  The tau and rate
# bounds lie far inside where the tests' tiny config stops training finitely
# (tau <= 1e-80, lr_projector >= 1e80, lr_calibration >= 1e54).
LIMITS = dict(base_classes=(2, None), way=(1, None), shot=(1, None),
              sessions=(0, None), batch_size=(2, None), n_aug_base=(1, None),
              n_aug_novel=(1, None), meta_shots=(1, None),
              epochs_base=(0, None), epochs_incremental=(0, None),
              warmup_steps=(0, None), meta_episodes=(0, None),
              meta_warmup=(0, None), replay_per_class=(0, None),
              lr_projector=(0.0, 1e30), lr_calibration=(0.0, 1e30),
              alpha=(0.0, 1.0), tau=(1e-30, None))


@dataclass
class SessionConfig:
    way: int = 5
    shot: int = 5
    sessions: int = 4
    base_classes: int = 10
    alpha: float = 0.6
    beta: float = 0.6
    gamma: float = 16.0
    tau: float = 0.07
    lr_projector: float = 1e-2
    lr_calibration: float = 1.0
    epochs_base: int = 50
    epochs_incremental: int = 20
    warmup_steps: int = 10
    batch_size: int = 128
    meta_episodes: int = 200
    meta_shots: int = 5
    meta_warmup: int = 20
    n_aug_base: int = 100
    n_aug_novel: int = 50
    replay_per_class: int = 5
    seed: int = 0
    d_g: int = 512
    d_hidden = None  # not a field (hidden width = d_f); perfbench reads it

    def validate(self) -> None:
        check_fields(self, LIMITS)
        if self.d_g <= self.total_classes:
            raise InvalidConfig(
                f"d_g = {self.d_g} must exceed the total class count "
                f"{self.total_classes}")
        if not (self.beta > 0.0 and self.gamma > 0.0):
            raise InvalidConfig("beta and gamma must be positive")

    @property
    def total_classes(self) -> int:
        return self.base_classes + self.way * self.sessions

    @classmethod
    def from_json(cls, path) -> "SessionConfig":
        return load_config(cls, path)


@dataclass
class SessionState:
    t: int
    config: SessionConfig
    strategy: str
    repository: PrototypeRepository
    structure: StructureMatrix
    initial: InitialStructure
    smr: float
    theta_g: ProjectorParams
    theta_h: CalibrationParams
    knowledge: SemanticKnowledge
    replay: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def n_classes(self) -> int:
        return len(self.repository)

    @property
    def base_class_ids(self) -> set[int]:
        return set(range(self.config.base_classes))


def _strategy_structure(strategy: str, init: InitialStructure, t: int,
                        config: SessionConfig) -> StructureMatrix:
    if strategy in ("concm", "frozen"):
        return nearest_optimal_structure(init)
    if strategy == "rm":
        s = random_optimal_structure(init.num_classes, config.d_g,
                                     rng.derive_seed(config.seed, "rm", t))
        return replace(s, class_ids=init.class_ids)
    if strategy == "fs":
        fixed = random_optimal_structure(config.total_classes, config.d_g,
                                         rng.derive_seed(config.seed, "fs"))
        return StructureMatrix(columns=fixed.columns[:, :init.num_classes],
                               class_ids=init.class_ids)
    raise InvalidConfig(f"unknown strategy {strategy!r}")


def _fit(config: SessionConfig, strategy: str, t: int, repo: PrototypeRepository,
         prev: StructureMatrix | None, theta_g: ProjectorParams,
         replay: dict[int, np.ndarray], anchored: frozenset[int]):
    """Session t's (initial, structure, smr, theta_g); ``prev`` is None at t = 0.

    The initial structure's new columns are the projected repository means
    of the classes ``prev`` does not cover (the exact base means at t = 0,
    the calibrated novel prototypes after), in one ``project`` call.
    Training then draws each epoch batch by batch.
    """
    n_prev = 0 if prev is None else prev.num_classes
    init = initial_structure(prev, project(theta_g, repo.means[n_prev:]).T)
    structure = _strategy_structure(strategy, init, t, config)
    smr = structure_matching_rate(init, structure)

    if strategy != "frozen":
        n_base, n_novel = config.n_aug_base, config.n_aug_novel
        seed = rng.derive_seed(config.seed, "augment", t)
        theta_g, _ = train_projector(
            theta_g, structure, anchored,
            epoch_labels(repo, n_base, n_novel, replay),
            lambda epoch: sample_augmented(repo, n_base, n_novel, seed, epoch,
                                           replay),
            epochs=config.epochs_base if t == 0 else config.epochs_incremental,
            lr_max=config.lr_projector, warmup_steps=config.warmup_steps,
            batch_size=config.batch_size,
            seed=rng.derive_seed(config.seed, "train", t), tau=config.tau)
    return init, structure, smr, theta_g


def check_session(config: SessionConfig, t: int, seen: list[str],
                  train: FeatureSet) -> list[str]:
    """The protocol checks of session t's training set, given the class
    names ``seen`` in the sessions before it: its class count (base_classes
    at t = 0, way after), exactly ``shot`` rows per novel class, and no
    class seen before.  Returns the class names through session t; a
    failed check raises ProtocolViolation."""
    way = config.base_classes if t == 0 else config.way
    if train.n_classes != way:
        raise ProtocolViolation(f"session {t} brings {train.n_classes} "
                                f"classes, config says {way}")
    counts = train.counts()
    if t > 0 and not np.all(counts == config.shot):
        raise ProtocolViolation(f"session {t} must have exactly {config.shot} "
                                f"shots per class, got {counts.tolist()}")
    overlap = set(train.class_names) & set(seen)
    if overlap:
        raise ProtocolViolation(f"classes reappear across sessions: {sorted(overlap)}")
    return seen + list(train.class_names)


def run_base_session(config: SessionConfig, base: FeatureSet,
                     table: AttributeTable, embeddings: dict[str, np.ndarray],
                     strategy: str = "concm") -> SessionState:
    """Execute the base session and return the initial state."""
    config.validate()
    if strategy not in STRATEGIES:
        raise InvalidConfig(f"unknown strategy {strategy!r}")
    names = check_session(config, 0, [], base)
    knowledge = build_knowledge(names, embeddings, table,
                                build_pool(base, table, embeddings))

    theta_h = init_calibration_params(
        base.dim, knowledge.pool.d_s,
        seed=rng.derive_seed(config.seed, "calibration-init"))
    theta_h, _ = meta_train(
        base, knowledge, theta_h, shots=config.meta_shots,
        episodes=config.meta_episodes, lr_max=config.lr_calibration,
        warmup=config.meta_warmup, seed=rng.derive_seed(config.seed, "meta"))

    repo = PrototypeRepository().extended(base.class_names,
                                          *class_statistics(base), exact=True)

    theta_g = init_projector_params(base.dim, base.dim, config.d_g,
                                    seed=rng.derive_seed(config.seed, "projector"))

    init, structure, smr, theta_g = _fit(config, strategy, 0, repo, None,
                                         theta_g, {}, frozenset())
    return SessionState(t=0, config=config, strategy=strategy, repository=repo,
                        structure=structure, initial=init, smr=smr,
                        theta_g=theta_g, theta_h=theta_h, knowledge=knowledge)


def run_incremental_session(state: SessionState, novel: FeatureSet,
                            table: AttributeTable,
                            embeddings: dict[str, np.ndarray]) -> SessionState:
    """Execute one incremental session and return the new state."""
    config = state.config
    t = state.t + 1
    check_session(config, t, list(state.repository.names), novel)
    names = tuple(novel.class_names)
    knowledge = build_knowledge(list(names), embeddings, table,
                                state.knowledge.pool)

    # the session's classes as rows: one calibration graph of the covered
    # classes (an uncovered class keeps its raw row), one blend, one transfer
    offset = state.n_classes
    class_shots = [novel.class_features(k) for k in range(novel.n_classes)]
    raw = Prototype(np.arange(offset, offset + len(names)), names,
                    np.array([s.mean(axis=0) for s in class_shots]), "raw", config.shot)
    rows = [c for c, n in enumerate(names) if n not in knowledge.assoc.uncovered]
    calibrated = replace(raw, mean=raw.mean.copy())
    if rows:
        calibrated.mean[rows] = calibrate(
            Prototype(raw.class_id[rows], tuple(names[c] for c in rows),
                      raw.mean[rows], "raw", config.shot),
            np.array([knowledge.class_semantic[names[c]] for c in rows]),
            knowledge, state.theta_h).mean
    means = blend(raw, calibrated, config.alpha).mean
    weights = transfer_weights(means, state.repository, config.gamma)
    repo = state.repository.extended(names, means, novel_covariance(
        np.array([shot_variance(s) for s in class_shots]), state.repository,
        weights, config.beta), exact=False)

    init, structure, smr, theta_g = _fit(
        config, state.strategy, t, repo, state.structure, state.theta_g,
        state.replay, frozenset(range(offset, offset + config.way)))

    new_replay = dict(state.replay)
    if config.replay_per_class > 0:
        # the rows nearest the class centre, in file order
        for cid, shots in enumerate(class_shots, start=offset):
            dist = np.linalg.norm(shots - shots.mean(axis=0), axis=1)
            keep = np.argsort(dist, kind="stable")[:config.replay_per_class]
            new_replay[cid] = shots[np.sort(keep)]

    return SessionState(t=t, config=config, strategy=state.strategy,
                        repository=repo, structure=structure, initial=init,
                        smr=smr, theta_g=theta_g, theta_h=state.theta_h,
                        knowledge=knowledge, replay=new_replay)


# Rows per projection in evaluate_session: the node values of one block,
# not of every row, are held at a time.  Every block has this row count
# (the last one overlaps its predecessor), since a GEMM over few rows may
# round differently from one over many.
_BLOCK_ROWS = 256


def evaluate_session(state: SessionState, features: np.ndarray,
                     labels: np.ndarray, sums: ClassSums) -> np.ndarray:
    """The NCM predictions of one evaluation set; its projected rows are
    added to ``sums``.

    The rows are projected in blocks of _BLOCK_ROWS (all rows if there are
    fewer); each block is one ``project`` call, and the last block overlaps
    its predecessor.  The new rows of a block are classified and added to
    the class sums, and its projection and class scores are dropped before
    the next.
    """
    n = features.shape[0]
    preds = np.empty(labels.size, dtype=np.int64)
    for start in range(0, n, _BLOCK_ROWS):
        lo = min(start, max(n - _BLOCK_ROWS, 0))
        stop = min(start + _BLOCK_ROWS, n)
        z = project(state.theta_g, features[lo:stop])[start - lo:]
        preds[start:stop] = ncm_classify(z, state.structure)
        sums.add(z, labels[start:stop])
    return preds


def session_record(state: SessionState, eval_sets) -> SessionRecord:
    """The session record of the evaluation sets ``eval_sets``, (features,
    labels) pairs, evaluated one at a time into one set of class sums."""
    preds, labels = [], []
    sums = ClassSums.zeros(state.n_classes, state.structure.columns.shape[0])
    for features, set_labels in eval_sets:
        preds.append(evaluate_session(state, features, set_labels, sums))
        labels.append(set_labels)
    record = session_metrics(np.concatenate(preds), np.concatenate(labels),
                             state.base_class_ids, t=state.t)
    sim_cls, sim_in = similarity_stats(sums)
    record.smr = state.smr
    # one evaluated class, or only singletons, leave a term undefined
    record.sim_cls = sim_cls if np.isfinite(sim_cls) else None
    record.sim_in = sim_in if np.isfinite(sim_in) else None
    return record


@dataclass
class PipelineInputs:
    """Everything a run needs, loaded once."""

    config: SessionConfig
    train_sets: list[FeatureSet]
    test_sets: list[FeatureSet]
    table: AttributeTable
    embeddings: dict[str, np.ndarray]


def load_inputs(manifest: Manifest, config: SessionConfig) -> PipelineInputs:
    """Load every input file and check the files against each other: each
    feature file has base's width, each class of a train or test file
    needs an attribute list and an embedding, each base class a non-empty
    attribute list (a novel class may have none: it keeps its raw
    prototype), and each attribute of a base class an embedding.  A gap is
    a SchemaError naming the file."""
    train_sets = [load_features(manifest.base)]
    train_sets += [load_features(p) for p in manifest.sessions]
    test_sets = [load_features(p) for p in manifest.tests]
    d_f = train_sets[0].dim
    for path, fs in zip(manifest.sessions + manifest.tests,
                        train_sets[1:] + test_sets):
        if fs.dim != d_f:
            raise SchemaError(f"{path}:1: {fs.dim} features per row, "
                              f"{manifest.base} has {d_f}")
    if test_sets and len(test_sets) != len(train_sets):
        raise ProtocolViolation(
            f"manifest lists {len(test_sets)} test files for "
            f"{len(train_sets)} sessions")
    table = load_attribute_table(manifest.attributes)
    embeddings = load_semantic_embeddings(manifest.semantic)
    classes = dict.fromkeys(n for fs in train_sets + test_sets
                            for n in fs.class_names)
    missing = [n for n in classes if n not in table]
    if missing:
        raise SchemaError(f"{manifest.attributes}: no attribute list for "
                          f"classes {missing}")
    empty = [n for n in train_sets[0].class_names if not table.attributes_for(n)]
    if empty:
        raise SchemaError(f"{manifest.attributes}: empty attribute list for "
                          f"base classes {empty}")
    attrs = dict.fromkeys(a for n in train_sets[0].class_names
                          for a in table.attributes_for(n))
    missing = [n for n in [*classes, *attrs] if n not in embeddings]
    if missing:
        raise SchemaError(f"{manifest.semantic}: no embedding for the classes "
                          f"or base-class attributes {missing}")
    if config.sessions != len(manifest.sessions):
        raise InvalidConfig(f"config declares {config.sessions} sessions, "
                            f"manifest lists {len(manifest.sessions)}")
    return PipelineInputs(config=config, train_sets=train_sets,
                          test_sets=test_sets, table=table,
                          embeddings=embeddings)


def _evaluation_labels(fs: FeatureSet, class_names: list[str]) -> np.ndarray:
    """The labels of ``fs`` as indices into ``class_names``; a class not
    in ``class_names`` raises ProtocolViolation."""
    name_to_id = {n: i for i, n in enumerate(class_names)}
    missing = [n for n in fs.class_names if n not in name_to_id]
    if missing:
        raise ProtocolViolation(f"evaluation classes never seen: {missing}")
    return np.array([name_to_id[n] for n in fs.class_names],
                    dtype=np.int64)[fs.labels]


@dataclass
class SessionTrace:
    """Structure bookkeeping for one session, kept for diagnostics."""

    t: int
    initial: InitialStructure
    structure: StructureMatrix
    smr: float


@dataclass
class RunResult:
    report: RunReport
    state: SessionState
    traces: list[SessionTrace] = field(default_factory=list)


def run_pipeline(inputs: PipelineInputs, strategy: str = "concm",
                 seed: int | None = None) -> RunResult:
    """Run the base session plus every incremental session and evaluate each.

    When the manifest carries no test files, evaluation falls back to the
    accumulated training features.  Every session's protocol checks
    (``check_session``, and that each evaluation set holds only classes
    seen by its session) run before the base session trains.
    """
    config = inputs.config if seed is None else replace(inputs.config, seed=seed)
    config.validate()
    if not inputs.test_sets:
        logger.info("no test files in manifest; evaluating on training features")
    eval_pool = inputs.test_sets or inputs.train_sets
    names: list[str] = []
    eval_labels = []
    for t in range(config.sessions + 1):
        names = check_session(config, t, names, inputs.train_sets[t])
        eval_labels.append(_evaluation_labels(eval_pool[t], names))
    base = inputs.train_sets[0]
    for name, count in zip(base.class_names, base.counts()):
        if count <= config.meta_shots:
            raise InvalidConfig(f"meta_shots = {config.meta_shots} needs more base "
                                f"samples per class; class {name!r} has {count}")

    records, traces = [], []
    for t in range(config.sessions + 1):
        if t == 0:
            state = run_base_session(config, inputs.train_sets[0], inputs.table,
                                     inputs.embeddings, strategy=strategy)
        else:
            state = run_incremental_session(state, inputs.train_sets[t],
                                            inputs.table, inputs.embeddings)
        records.append(session_record(state, [
            (fs.features, labels)
            for fs, labels in zip(eval_pool[:t + 1], eval_labels)]))
        traces.append(SessionTrace(t=t, initial=state.initial,
                                   structure=state.structure, smr=state.smr))
        logger.info("session %d: top1=%.2f hm=%s", t, records[-1].top1,
                    f"{records[-1].hm:.2f}" if records[-1].hm is not None else "-")

    base_acc = records[0].top1
    ahm, fa, pd = run_metrics(records, base_acc)
    report = RunReport(sessions=records, ahm=ahm, fa=fa, pd=pd,
                       base_acc=base_acc, strategy=strategy, seed=config.seed)
    return RunResult(report=report, state=state, traces=traces)


def run_from_files(manifest_path, config_path=None, strategy: str = "concm",
                   seed: int | None = None) -> RunResult:
    manifest = load_manifest(manifest_path)
    config = SessionConfig() if config_path is None \
        else SessionConfig.from_json(config_path)
    inputs = load_inputs(manifest, config)
    return run_pipeline(inputs, strategy=strategy, seed=seed)
