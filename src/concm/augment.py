"""Prototype repository and Gaussian prototype augmentation.

Base classes store exact mean and per-dimension (population) variance.
Novel classes store the calibrated prototype; their covariance diagonal is
the shot variance plus a similarity-weighted transfer of base-class
variances, scaled by beta.  Training data is then drawn per class from
N(mean, diag(cov)) with seed-partitioned streams, so resampling per epoch
is deterministic given the run seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .buffers import mapped_rows
from .data import FeatureSet
from .errors import (DegenerateInput, InsufficientSamples, InvalidConfig,
                     InvalidStats, MissingClass)


@dataclass
class ClassStats:
    """Per-class Gaussian statistics; exact=True marks base-session classes."""

    class_id: int
    class_name: str
    mean: np.ndarray
    cov_diag: np.ndarray
    exact: bool

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.cov_diag = np.asarray(self.cov_diag, dtype=np.float64)
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.cov_diag))):
            raise InvalidStats(f"class {self.class_name!r}: non-finite statistics")
        if np.any(self.cov_diag < 0.0):
            raise InvalidStats(f"class {self.class_name!r}: negative variance")


@dataclass
class PrototypeRepository:
    """Ordered class statistics for all seen classes, keyed by class id."""

    entries: list[ClassStats] = field(default_factory=list)

    def add(self, stats: ClassStats) -> None:
        if stats.class_id != len(self.entries):
            raise MissingClass(f"expected class id {len(self.entries)}, "
                               f"got {stats.class_id}")
        self.entries.append(stats)

    def get(self, class_id: int) -> ClassStats:
        if not 0 <= class_id < len(self.entries):
            raise MissingClass(f"class id {class_id} not in repository")
        return self.entries[class_id]

    def base_entries(self) -> list[ClassStats]:
        return [e for e in self.entries if e.exact]

    def __len__(self) -> int:
        return len(self.entries)


def class_statistics(features: FeatureSet) -> list[ClassStats]:
    """Exact per-class sample mean and population (1/n) variance diagonal."""
    out = []
    for label, name in enumerate(features.class_names):
        rows = features.class_features(label)
        if rows.shape[0] < 2:
            raise InsufficientSamples(f"class {name!r} has {rows.shape[0]} "
                                      "samples; needs >= 2")
        out.append(ClassStats(class_id=label, class_name=name,
                              mean=rows.mean(axis=0),
                              cov_diag=rows.var(axis=0), exact=True))
    return out


def shot_variance(shots: np.ndarray) -> np.ndarray:
    """Population variance of the K shots; zero vector for K = 1."""
    shots = np.asarray(shots, dtype=np.float64)
    if shots.shape[0] == 1:
        return np.zeros(shots.shape[1])
    return shots.var(axis=0)


def transfer_weights(prototype: np.ndarray, base: list[ClassStats],
                     gamma: float) -> np.ndarray:
    """Softmax over gamma-scaled cosines between base means and the prototype."""
    if not base:
        raise InvalidConfig("transfer_weights needs at least one base class")
    p = np.asarray(prototype, dtype=np.float64)
    np_norm = np.linalg.norm(p)
    if np_norm < 1e-12:
        raise DegenerateInput("zero-norm prototype")
    cosines = np.empty(len(base))
    for i, stats in enumerate(base):
        bn = np.linalg.norm(stats.mean)
        if bn < 1e-12:
            raise DegenerateInput(f"zero-norm base prototype {stats.class_name!r}")
        cosines[i] = (stats.mean @ p) / (bn * np_norm)
    logits = gamma * cosines
    logits -= logits.max()
    w = np.exp(logits)
    return w / w.sum()


def novel_covariance(shot_cov: np.ndarray, base: list[ClassStats],
                     weights: np.ndarray, beta: float) -> np.ndarray:
    """Transferred covariance diagonal: beta * (shot cov + weighted base covs)."""
    if beta <= 0.0:
        raise InvalidConfig(f"beta must be positive, got {beta}")
    shot_cov = np.asarray(shot_cov, dtype=np.float64)
    if np.any(shot_cov < 0.0):
        raise InvalidStats("negative shot variance")
    if len(base) != len(weights):
        raise InvalidStats("weight count does not match base class count")
    transferred = np.zeros_like(shot_cov)
    for w, stats in zip(weights, base):
        transferred += w * stats.cov_diag
    return beta * (shot_cov + transferred)


@dataclass
class SampleCounts:
    base: int = 100
    novel: int = 50


def sample_augmented(repo: PrototypeRepository, counts: SampleCounts,
                     seed: int, epoch: int = 0,
                     replay: dict[int, np.ndarray] | None = None) -> FeatureSet:
    """Draw per-class Gaussian samples from the repository statistics.

    Streams are keyed by (seed, epoch, class id) so classes are independent
    and every epoch's resample is reproducible.  The draws come class by
    class; the ``replay`` rows of each class id follow them, by ascending
    class id, in the same array.
    """
    if counts.base < 1 or counts.novel < 1:
        raise InvalidConfig("sample counts must be >= 1")
    if not repo.entries:
        raise MissingClass("cannot sample from an empty repository")
    replay = replay or {}
    d = repo.entries[0].mean.shape[0]
    order = sorted(replay)
    ids = [e.class_id for e in repo.entries] + order
    sizes = [counts.base if e.exact else counts.novel for e in repo.entries]
    sizes += [replay[cid].shape[0] for cid in order]
    features = mapped_rows(sum(sizes), d)
    start = 0
    for stats, n in zip(repo.entries, sizes):
        gen = rng.stream(seed, "augment", epoch, stats.class_id)
        rows = rng.gaussian(gen, (n, d), out=features[start:start + n])
        rows *= np.sqrt(stats.cov_diag)
        rows += stats.mean
        start += n
    for cid, n in zip(order, sizes[len(repo.entries):]):
        features[start:start + n] = replay[cid]
        start += n
    return FeatureSet(features=features,
                      labels=np.repeat(np.array(ids, dtype=np.int64), sizes),
                      class_names=tuple(e.class_name for e in repo.entries))
