"""Prototype repository and Gaussian prototype augmentation.

The repository holds one array per statistic: row k of ``means`` and
``variances`` is class id k.  Base classes store the exact mean and
per-dimension (population) variance.  Novel classes store the calibrated
prototype; their covariance diagonal is the shot variance plus a
similarity-weighted transfer of the base-class variances, scaled by beta
(the distribution calibration of Yang et al., ICLR 2021).  Training data is
then drawn per class from N(mean, diag(cov)) with seed-partitioned streams,
so resampling per epoch is deterministic given the run seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .autodiff import zero_norm_rows
from .data import FeatureSet
from .errors import (DegenerateInput, InsufficientSamples, InvalidConfig,
                     InvalidStats, MissingClass)


@dataclass(frozen=True)
class PrototypeRepository:
    """Gaussian statistics of every seen class, row k for class id k:
    ``means`` and ``variances`` are (N, d); ``exact[k]`` marks a base class."""

    names: tuple[str, ...] = ()
    means: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    variances: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    exact: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))

    def extended(self, names, means, variances,
                 exact: bool) -> PrototypeRepository:
        """A repository with the classes ``names`` appended as the next
        class ids, holding copies of their (n, d) ``means`` and
        ``variances``; non-finite statistics or a negative variance raise
        InvalidStats naming the class."""
        means = np.array(means, dtype=np.float64)
        variances = np.array(variances, dtype=np.float64)
        bad = ~(np.isfinite(means).all(axis=1) & np.isfinite(variances).all(axis=1))
        if bad.any():
            raise InvalidStats(f"class {names[bad.argmax()]!r}: non-finite statistics")
        bad = (variances < 0.0).any(axis=1)
        if bad.any():
            raise InvalidStats(f"class {names[bad.argmax()]!r}: negative variance")
        if len(self):
            means = np.concatenate([self.means, means])
            variances = np.concatenate([self.variances, variances])
        return PrototypeRepository(
            names=self.names + tuple(names), means=means, variances=variances,
            exact=np.concatenate([self.exact, np.full(len(names), exact)]))

    def __len__(self) -> int:
        return len(self.names)


def class_statistics(features: FeatureSet) -> tuple[np.ndarray, np.ndarray]:
    """(means, variances), (n_classes, d) each: the exact per-class sample
    mean and population (1/n) variance diagonal, row k for label k.  A
    one-row class has variance 0; a class with no rows raises
    InsufficientSamples."""
    rows = [features.class_features(k) for k in range(features.n_classes)]
    for name, r in zip(features.class_names, rows):
        if not r.shape[0]:
            raise InsufficientSamples(f"class {name!r} has no samples")
    variances = np.array([r.var(axis=0) for r in rows])
    # exactly 0 where every row is equal: np.var leaves an ulp-sized variance
    # on a constant column whose mean rounds away from its value (three rows
    # of 0.1 give 1.9e-34)
    variances[np.array([(r == r[0]).all(axis=0) for r in rows], dtype=bool)] = 0.0
    return np.array([r.mean(axis=0) for r in rows]), variances


def transfer_weights(prototype: np.ndarray, repo: PrototypeRepository,
                     gamma: float) -> np.ndarray:
    """Softmax over gamma-scaled cosines between the base means and the
    prototype, one weight per base class in class-id order; (C, d) rows
    give (C, N_base) weights.  A zero-norm prototype or base mean
    (``zero_norm_rows``) raises DegenerateInput."""
    base = repo.means[repo.exact]
    if not base.shape[0]:
        raise InvalidConfig("transfer_weights needs at least one base class")
    p = np.atleast_2d(np.asarray(prototype, dtype=np.float64))
    if zero_norm_rows(p).size:
        raise DegenerateInput("zero-norm prototype")
    zero = zero_norm_rows(base)
    if zero.size:
        name = repo.names[np.flatnonzero(repo.exact)[zero[0]]]
        raise DegenerateInput(f"zero-norm base prototype {name!r}")
    logits = gamma * ((p @ base.T) / np.outer(np.linalg.norm(p, axis=1),
                                              np.linalg.norm(base, axis=1)))
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    return w.reshape(np.shape(prototype)[:-1] + (-1,))


def novel_covariance(shot_cov: np.ndarray, repo: PrototypeRepository,
                     weights: np.ndarray, beta: float) -> np.ndarray:
    """Transferred covariance diagonal: beta * (shot cov + the base
    variances weighted by ``weights``, summed in class-id order); (C, d)
    shot covariances with (C, N_base) weights give one diagonal per row."""
    if beta <= 0.0:
        raise InvalidConfig(f"beta must be positive, got {beta}")
    shot_cov = np.asarray(shot_cov, dtype=np.float64)
    if np.any(shot_cov < 0.0):
        raise InvalidStats("negative shot variance")
    base = repo.variances[repo.exact]
    if base.shape[0] != weights.shape[-1]:
        raise InvalidStats("weight count does not match base class count")
    return beta * (shot_cov + (weights[..., None] * base).sum(axis=-2))


class AugmentedEpoch:
    """One epoch's Gaussian draws, made batch by batch.

    ``labels`` is the class id of every row of the epoch's full layout:
    each class's draws (``n_base`` per base class, ``n_novel`` per novel
    class) in repository order, then the ``replay`` rows by ascending class
    id.  ``rows(idx, out)`` writes rows ``idx`` into ``out[:idx.size]`` and
    returns that view.  Class k keeps one generator for the epoch, so its
    drawn slots get consecutive rows of its stream in the order the calls
    reach them (within a call, in slot order), whichever layout rows they
    name; a replay slot copies its replay row.  Each run of equal-class
    slots is drawn straight into its rows of ``out``, so a batch in
    ascending layout order (one run per class) costs one draw per class; no
    row array of the epoch is held.
    """

    def __init__(self, repo: PrototypeRepository, n_base: int, n_novel: int,
                 seed: int, epoch: int, replay: dict[int, np.ndarray]):
        if n_base < 1 or n_novel < 1:
            raise InvalidConfig("sample counts must be >= 1")
        if not len(repo):
            raise MissingClass("cannot sample from an empty repository")
        order = sorted(replay)
        sizes = np.where(repo.exact, n_base, n_novel).tolist()
        self._ends = np.cumsum(sizes)
        self._gens = [rng.stream(seed, "augment", epoch, cid)
                      for cid in range(len(repo))]
        self._std = np.sqrt(repo.variances)
        self._mean = repo.means
        self._replay = np.concatenate(
            [replay[cid] for cid in order]
            or [np.empty((0, self._mean.shape[1]))])
        self.labels = np.repeat(
            np.array([*range(len(repo)), *order], dtype=np.int64),
            sizes + [replay[cid].shape[0] for cid in order])
        self.n_samples = self.labels.size

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


def sample_augmented(repo: PrototypeRepository, n_base: int, n_novel: int,
                     seed: int, epoch: int,
                     replay: dict[int, np.ndarray] | None = None) -> AugmentedEpoch:
    """The sampler of one epoch's per-class Gaussian draws.

    Streams are keyed by (seed, epoch, class id), so classes are independent
    and every epoch's resample is reproducible.  ``labels`` gives the
    epoch's full layout; rows are drawn only when asked for.
    """
    return AugmentedEpoch(repo, n_base, n_novel, seed, epoch, replay or {})
