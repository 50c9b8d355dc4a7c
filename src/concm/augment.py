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


def _population_variance(rows: np.ndarray) -> np.ndarray:
    """Population variance per column, exactly 0 where every row is equal.

    ``np.var`` leaves an ulp-sized variance on a constant column whose mean
    rounds away from its value (three rows of 0.1 give 1.9e-34).
    """
    var = rows.var(axis=0)
    var[(rows == rows[0]).all(axis=0)] = 0.0
    return var


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
                              cov_diag=_population_variance(rows),
                              exact=True))
    return out


def shot_variance(shots: np.ndarray) -> np.ndarray:
    """Population variance of the K shots; zero vector for K = 1."""
    return _population_variance(np.asarray(shots, dtype=np.float64))


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


def _layout(repo: PrototypeRepository, counts: SampleCounts,
            replay: dict[int, np.ndarray]) -> tuple[list[int], list[int]]:
    """Class id and row count of each block of an epoch's full layout."""
    if counts.base < 1 or counts.novel < 1:
        raise InvalidConfig("sample counts must be >= 1")
    if not repo.entries:
        raise MissingClass("cannot sample from an empty repository")
    order = sorted(replay)
    ids = [e.class_id for e in repo.entries] + order
    sizes = [counts.base if e.exact else counts.novel for e in repo.entries]
    return ids, sizes + [replay[cid].shape[0] for cid in order]


def epoch_labels(repo: PrototypeRepository, counts: SampleCounts,
                 replay: dict[int, np.ndarray] | None = None) -> np.ndarray:
    """Class id of every row of an epoch's full layout: each class's draws
    in repository order, then the ``replay`` rows by ascending class id.
    It is the same for every epoch."""
    ids, sizes = _layout(repo, counts, replay or {})
    return np.repeat(np.array(ids, dtype=np.int64), sizes)


class AugmentedEpoch:
    """One epoch's Gaussian draws, made batch by batch.

    Row i of the epoch's full layout (``epoch_labels``) is a draw of its
    class or, past the draws, a replay row.  ``rows(idx, out)`` writes rows
    ``idx`` into ``out[:idx.size]`` and returns that view.  Class k keeps
    one generator for the epoch, so its drawn slots get consecutive rows of
    its stream in the order the calls reach them (within a call, in slot
    order), whichever layout rows they name; a replay slot copies its
    replay row.  Each run of equal-class slots is drawn straight into its
    rows of ``out``, so a batch in ascending layout order (one run per
    class) costs one draw per class; no row array of the epoch is held.
    """

    def __init__(self, repo: PrototypeRepository, counts: SampleCounts,
                 seed: int, epoch: int, replay: dict[int, np.ndarray]):
        ids, sizes = _layout(repo, counts, replay)
        classes = len(repo.entries)
        self._ends = np.cumsum(sizes[:classes])
        self._gens = [rng.stream(seed, "augment", epoch, cid)
                      for cid in ids[:classes]]
        self._std = np.sqrt([e.cov_diag for e in repo.entries])
        self._mean = np.array([e.mean for e in repo.entries])
        self._replay = np.concatenate(
            [replay[cid] for cid in ids[classes:]]
            or [np.empty((0, self._mean.shape[1]))])
        self.n_samples = sum(sizes)

    def rows(self, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
        batch = out[:idx.size]
        # class of each slot; every replay slot gets class len(self._gens)
        cls = np.searchsorted(self._ends, idx, side="right")
        starts = np.flatnonzero(np.diff(cls, prepend=-1))
        for k, a, b in zip(cls[starts].tolist(), starts.tolist(),
                           [*starts[1:].tolist(), cls.size]):
            run = batch[a:b]
            if k < len(self._gens):
                rng.gaussian(self._gens[k], run.shape, out=run)
                run *= self._std[k]
                run += self._mean[k]
            else:
                np.take(self._replay, idx[a:b] - self._ends[-1], axis=0, out=run)
        return batch


def sample_augmented(repo: PrototypeRepository, counts: SampleCounts,
                     seed: int, epoch: int,
                     replay: dict[int, np.ndarray] | None = None) -> AugmentedEpoch:
    """The sampler of one epoch's per-class Gaussian draws.

    Streams are keyed by (seed, epoch, class id), so classes are independent
    and every epoch's resample is reproducible.  ``n_samples`` is the row
    count of the epoch's full layout; rows are drawn only when asked for.
    """
    return AugmentedEpoch(repo, counts, seed, epoch, replay or {})
