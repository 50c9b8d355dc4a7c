"""Session orchestration: base setup, incremental adaptation, evaluation.

The base session builds the semantic knowledge set, trains the calibration
net episodically and stores exact base-class statistics; an incremental
session calibrates and blends the novel prototypes, transfers covariances
and extends the repository.  Every session then ends in one fit step:
augmentation, an initial structure from the projected means (previous
columns carried over unchanged), the strategy's structure and its SMR, and
projector training on the augmented data plus the replay buffer.

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
                         load_attribute_table, load_semantic_embeddings)
from .augment import (ClassStats, PrototypeRepository, SampleCounts,
                      class_statistics, novel_covariance, sample_augmented,
                      shot_variance, transfer_weights)
from .buffers import mapped_rows
from .calibration import (CalibrationParams, MetaTrainConfig, Prototype, blend,
                          calibrate, init_calibration_params, meta_train)
from .data import FeatureSet, Manifest, load_config, load_features, load_manifest
from .errors import InvalidConfig, ProtocolViolation
from .metrics import (RunReport, SessionRecord, ncm_classify, run_metrics,
                      session_metrics, similarity_stats)
from .projector import (ProjectorParams, TrainSchedule, init_projector_params,
                        project, train_projector)
from .structure import (InitialStructure, StructureMatrix, initial_structure,
                        nearest_optimal_structure, random_optimal_structure,
                        structure_matching_rate)

logger = logging.getLogger("concm.session")

STRATEGIES = ("concm", "rm", "fs", "frozen")
# Smallest valid value of each count in SessionConfig.
_MINIMUM = dict(base_classes=2, way=1, shot=1, sessions=0, batch_size=2,
                n_aug_base=1, n_aug_novel=1, meta_shots=1, epochs_base=0,
                epochs_incremental=0, warmup_steps=0, meta_episodes=0,
                meta_warmup=0, replay_per_class=0)


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
    d_hidden: int | None = None
    d_attn: int | None = None

    def validate(self) -> None:
        for name, low in _MINIMUM.items():
            if getattr(self, name) < low:
                raise InvalidConfig(f"{name} must be >= {low}")
        if self.d_g <= self.total_classes:
            raise InvalidConfig(
                f"d_g = {self.d_g} must exceed the total class count "
                f"{self.total_classes}")
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidConfig("alpha must be in [0, 1]")
        if self.beta <= 0.0 or self.tau <= 0.0 or self.gamma <= 0.0:
            raise InvalidConfig("beta, tau and gamma must be positive")
        if any(d is not None and d < 1 for d in (self.d_hidden, self.d_attn)):
            raise InvalidConfig("d_hidden and d_attn must be >= 1 when set")

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
    class_names: list[str]
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
        return len(self.class_names)

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


def _augmented_epoch(state_repo: PrototypeRepository, config: SessionConfig,
                     t: int, epoch: int, replay: dict[int, np.ndarray]) -> FeatureSet:
    counts = SampleCounts(base=config.n_aug_base, novel=config.n_aug_novel)
    return sample_augmented(state_repo, counts,
                            seed=rng.derive_seed(config.seed, "augment", t),
                            epoch=epoch, replay=replay)


def _fit(config: SessionConfig, strategy: str, t: int, repo: PrototypeRepository,
         prev: StructureMatrix | None, theta_g: ProjectorParams,
         replay: dict[int, np.ndarray], anchored: frozenset[int]):
    """Session t's (initial, structure, smr, theta_g); ``prev`` is None at t = 0."""
    aug0 = _augmented_epoch(repo, config, t, 0, replay)
    # the class means are those of the draws, which precede the replay rows
    drawn = aug0.n_samples - sum(rows.shape[0] for rows in replay.values())
    means = {cid: aug0.features[:drawn][aug0.labels[:drawn] == cid].mean(axis=0)
             for cid in range(len(repo))}
    init = initial_structure(prev, lambda v: project(theta_g, v), means)
    structure = _strategy_structure(strategy, init, t, config)
    smr = structure_matching_rate(init, structure)

    if strategy != "frozen":
        epochs = config.epochs_base if t == 0 else config.epochs_incremental
        schedule = TrainSchedule(lr_max=config.lr_projector, epochs=epochs,
                                 warmup_steps=config.warmup_steps,
                                 batch_size=config.batch_size,
                                 seed=rng.derive_seed(config.seed, "train", t))

        def epoch_data(epoch: int):
            nonlocal aug0
            if epoch == 0:  # hand over the draw above and keep no reference
                aug, aug0 = aug0, None
            else:
                aug = _augmented_epoch(repo, config, t, epoch, replay)
            return aug.features, aug.labels

        theta_g, _ = train_projector(theta_g, structure, anchored, schedule,
                                     epoch_data, tau=config.tau)
    return init, structure, smr, theta_g


def run_base_session(config: SessionConfig, base: FeatureSet,
                     table: AttributeTable, embeddings: dict[str, np.ndarray],
                     strategy: str = "concm") -> SessionState:
    """Execute the base session and return the initial state."""
    config.validate()
    if strategy not in STRATEGIES:
        raise InvalidConfig(f"unknown strategy {strategy!r}")
    if base.n_classes != config.base_classes:
        raise ProtocolViolation(f"base set has {base.n_classes} classes, "
                                f"config says {config.base_classes}")
    names = list(base.class_names)
    knowledge = build_knowledge(names, embeddings, table, base_features=base)

    theta_h = init_calibration_params(
        base.dim, knowledge.pool.d_s, d_attn=config.d_attn,
        seed=rng.derive_seed(config.seed, "calibration-init"))
    theta_h, trace = meta_train(base, knowledge, theta_h, MetaTrainConfig(
        shots=config.meta_shots, episodes=config.meta_episodes,
        lr_max=config.lr_calibration, warmup=config.meta_warmup,
        seed=rng.derive_seed(config.seed, "meta")))

    repo = PrototypeRepository()
    for stats in class_statistics(base):
        repo.add(stats)

    d_hidden = config.d_hidden if config.d_hidden is not None else base.dim
    theta_g = init_projector_params(base.dim, d_hidden, config.d_g,
                                    seed=rng.derive_seed(config.seed, "projector"))

    init, structure, smr, theta_g = _fit(config, strategy, 0, repo, None,
                                         theta_g, {}, frozenset())
    return SessionState(t=0, config=config, strategy=strategy, class_names=names,
                        repository=repo, structure=structure, initial=init,
                        smr=smr, theta_g=theta_g, theta_h=theta_h,
                        knowledge=knowledge)


def _novel_prototype(state: SessionState, cid: int, name: str,
                     shots: np.ndarray) -> tuple[Prototype, np.ndarray]:
    """Calibrated + blended prototype and transferred covariance diagonal."""
    config = state.config
    raw = Prototype(class_id=cid, class_name=name, mean=shots.mean(axis=0),
                    source="raw", shot_count=shots.shape[0])
    if name in state.knowledge.assoc.uncovered:
        logger.warning("class %r uncovered by the pool; using raw prototype", name)
        calibrated = replace(raw, source="calibrated")
    else:
        calibrated = calibrate(raw, state.knowledge.class_semantic[name],
                               state.knowledge, state.theta_h)
    final = blend(raw, calibrated, config.alpha)
    base_entries = state.repository.base_entries()
    weights = transfer_weights(final.mean, base_entries, config.gamma)
    cov = novel_covariance(shot_variance(shots), base_entries, weights,
                           config.beta)
    return final, cov


def run_incremental_session(state: SessionState, novel: FeatureSet,
                            table: AttributeTable,
                            embeddings: dict[str, np.ndarray]) -> SessionState:
    """Execute one incremental session and return the new state."""
    config = state.config
    t = state.t + 1
    if novel.n_classes != config.way:
        raise ProtocolViolation(f"session {t} brings {novel.n_classes} classes, "
                                f"config says {config.way}")
    counts = novel.counts()
    if not np.all(counts == config.shot):
        raise ProtocolViolation(f"session {t} must have exactly {config.shot} "
                                f"shots per class, got {counts.tolist()}")
    overlap = set(novel.class_names) & set(state.class_names)
    if overlap:
        raise ProtocolViolation(f"classes reappear across sessions: {sorted(overlap)}")

    names = state.class_names + list(novel.class_names)
    knowledge = build_knowledge(names, embeddings, table,
                                pool=state.knowledge.pool)
    state = replace(state, knowledge=knowledge)

    repo = PrototypeRepository(entries=list(state.repository.entries))
    offset = state.n_classes
    shots_by_cid: dict[int, np.ndarray] = {}
    for local, name in enumerate(novel.class_names):
        cid = offset + local
        shots = novel.class_features(local)
        shots_by_cid[cid] = shots
        proto, cov = _novel_prototype(state, cid, name, shots)
        repo.add(ClassStats(class_id=cid, class_name=name, mean=proto.mean,
                            cov_diag=cov, exact=False))

    init, structure, smr, theta_g = _fit(
        config, state.strategy, t, repo, state.structure, state.theta_g,
        state.replay, frozenset(range(offset, offset + config.way)))

    new_replay = dict(state.replay)
    if config.replay_per_class > 0:
        for cid, shots in shots_by_cid.items():
            if shots.shape[0] <= config.replay_per_class:
                new_replay[cid] = shots.copy()
            else:
                center = shots.mean(axis=0)
                dist = np.linalg.norm(shots - center, axis=1)
                keep = np.argsort(dist, kind="stable")[:config.replay_per_class]
                new_replay[cid] = shots[np.sort(keep)].copy()

    return SessionState(t=t, config=config, strategy=state.strategy,
                        class_names=names, repository=repo, structure=structure,
                        initial=init, smr=smr, theta_g=theta_g,
                        theta_h=state.theta_h, knowledge=knowledge,
                        replay=new_replay)


def evaluate_session(state: SessionState, features: np.ndarray,
                     labels: np.ndarray) -> SessionRecord:
    """Project, classify with NCM, and compute the session record."""
    z = project(state.theta_g, features)
    preds = ncm_classify(z, state.structure)
    record = session_metrics(preds, labels, state.base_class_ids, t=state.t)
    sim_cls, sim_in = similarity_stats(z, labels)
    record.smr = state.smr
    # all-singleton evaluation sets leave the within-class term undefined
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
    train_sets = [load_features(manifest.base)]
    train_sets += [load_features(p) for p in manifest.sessions]
    test_sets = [load_features(p) for p in manifest.tests]
    if test_sets and len(test_sets) != len(train_sets):
        raise ProtocolViolation(
            f"manifest lists {len(test_sets)} test files for "
            f"{len(train_sets)} sessions")
    table = load_attribute_table(manifest.attributes)
    embeddings = load_semantic_embeddings(manifest.semantic)
    if config.sessions != len(manifest.sessions):
        raise InvalidConfig(f"config declares {config.sessions} sessions, "
                            f"manifest lists {len(manifest.sessions)}")
    return PipelineInputs(config=config, train_sets=train_sets,
                          test_sets=test_sets, table=table,
                          embeddings=embeddings)


def _evaluation_rows(sets: list[FeatureSet],
                     class_names: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``sets`` stacked in one array in its own mapping, and
    their labels as indices into ``class_names``."""
    name_to_id = {n: i for i, n in enumerate(class_names)}
    missing = [n for fs in sets for n in fs.class_names if n not in name_to_id]
    if missing:
        raise ProtocolViolation(f"evaluation classes never seen: {missing}")
    features = mapped_rows(sum(fs.n_samples for fs in sets), sets[0].dim)
    np.concatenate([fs.features for fs in sets], out=features)
    labels = [np.array([name_to_id[n] for n in fs.class_names],
                       dtype=np.int64)[fs.labels] for fs in sets]
    return features, np.concatenate(labels)


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
    inputs: PipelineInputs
    traces: list[SessionTrace] = field(default_factory=list)


def run_pipeline(inputs: PipelineInputs, strategy: str = "concm",
                 seed: int | None = None) -> RunResult:
    """Run the base session plus every incremental session and evaluate each.

    When the manifest carries no test files, evaluation falls back to the
    accumulated training features.
    """
    config = inputs.config if seed is None else replace(inputs.config, seed=seed)
    if not inputs.test_sets:
        logger.info("no test files in manifest; evaluating on training features")
    eval_pool = inputs.test_sets or inputs.train_sets

    records, traces = [], []
    for t in range(config.sessions + 1):
        if t == 0:
            state = run_base_session(config, inputs.train_sets[0], inputs.table,
                                     inputs.embeddings, strategy=strategy)
        else:
            state = run_incremental_session(state, inputs.train_sets[t],
                                            inputs.table, inputs.embeddings)
        # the rows are referenced by the call alone, so they and their
        # projection are released once the record is returned
        records.append(evaluate_session(
            state, *_evaluation_rows(eval_pool[:t + 1], state.class_names)))
        traces.append(SessionTrace(t=t, initial=state.initial,
                                   structure=state.structure, smr=state.smr))
        logger.info("session %d: top1=%.2f hm=%s", t, records[-1].top1,
                    f"{records[-1].hm:.2f}" if records[-1].hm is not None else "-")

    base_acc = records[0].top1
    ahm, fa, pd = run_metrics(records, base_acc)
    report = RunReport(sessions=records, ahm=ahm, fa=fa, pd=pd,
                       base_acc=base_acc, strategy=strategy, seed=config.seed)
    return RunResult(report=report, state=state, inputs=inputs, traces=traces)


def run_from_files(manifest_path, config_path=None, strategy: str = "concm",
                   seed: int | None = None) -> RunResult:
    manifest = load_manifest(manifest_path)
    config = SessionConfig() if config_path is None \
        else SessionConfig.from_json(config_path)
    inputs = load_inputs(manifest, config)
    return run_pipeline(inputs, strategy=strategy, seed=seed)
