"""Synthetic feature benchmark with planted attribute structure.

Classes are Gaussian clusters whose means are sums of a few attribute
direction vectors plus a small class-unique component, so attribute-based
prototype completion is effective by construction.  Word embeddings mirror
the same membership structure in a separate semantic space, and the
per-dimension variance of a class depends on its attributes, which makes
classes with similar means have similar covariance diagonals.  Ground
truth (means, covariances, memberships) is retained for oracle tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import rng
from .attributes import AttributeTable
from .data import FeatureSet, check_fields, save_features, write_numeric_csv
from .errors import InvalidConfig


# The generator holds pool_size x (d_f + d_s) attribute vectors and scans
# the pool once per class draw; CUB-200's attribute set has 312 entries.
# The bound also keeps the subset count in validate() to milliseconds.
MAX_POOL_SIZE = 10_000
# The generator holds every feature set, the pool and the embeddings in
# memory before writing them as CSV text: 2**27 float64 values are 1 GiB.
MAX_VALUES = 1 << 27
# (low, high) of each ranged field, None for an open end; validate() also
# caps the generated arrays together, before anything is allocated
LIMITS = dict(base_classes=(2, MAX_VALUES), sessions=(0, MAX_VALUES),
              way=(1, MAX_VALUES), shot=(1, MAX_VALUES), d_f=(1, MAX_VALUES),
              d_s=(1, MAX_VALUES), pool_size=(1, MAX_POOL_SIZE),
              attrs_per_class=(1, None), base_samples=(2, MAX_VALUES),
              test_samples=(1, MAX_VALUES))


@dataclass
class GenConfig:
    base_classes: int = 10
    sessions: int = 4
    way: int = 5
    shot: int = 5
    d_f: int = 64
    d_s: int = 16
    pool_size: int = 12
    attrs_per_class: int = 3
    base_samples: int = 100
    test_samples: int = 30
    noise: float = 0.3
    unique_scale: float = 0.03
    semantic_noise: float = 0.05
    seed: int = 0

    def validate(self) -> None:
        check_fields(self, LIMITS)
        if self.attrs_per_class > self.pool_size:
            raise InvalidConfig(f"attrs_per_class = {self.attrs_per_class} must "
                                f"be <= pool_size = {self.pool_size}")
        rows = (self.base_classes * self.base_samples
                + self.sessions * self.way * self.shot
                + self.total_classes * self.test_samples + self.pool_size)
        values = rows * self.d_f + (self.total_classes + self.pool_size) * self.d_s
        if values > MAX_VALUES:
            raise InvalidConfig(f"generated arrays would hold {values} values, "
                                f"over the cap of {MAX_VALUES}")
        if self.pool_size > self.base_classes * self.attrs_per_class:
            raise InvalidConfig(
                f"pool of {self.pool_size} attributes does not fit in "
                f"{self.base_classes} base classes of {self.attrs_per_class} "
                "attributes; some would occur in no base class")
        total = self.total_classes
        if math.comb(self.pool_size, self.attrs_per_class) < total:
            raise InvalidConfig(
                f"pool of {self.pool_size} attributes cannot give {total} "
                f"distinct {self.attrs_per_class}-subsets")
        if self.noise <= 0:
            raise InvalidConfig("noise must be positive")

    @property
    def total_classes(self) -> int:
        return self.base_classes + self.sessions * self.way


@dataclass
class ClassTruth:
    name: str
    mean: np.ndarray
    cov_diag: np.ndarray
    attributes: list[str]


@dataclass
class GeneratedBenchmark:
    config: GenConfig
    train_sets: list[FeatureSet]          # index 0 = base session
    test_sets: list[FeatureSet]           # one per session, same class split
    table: AttributeTable
    embeddings: dict[str, np.ndarray]
    truth: dict[str, ClassTruth]
    attribute_visual: dict[str, np.ndarray] = field(default_factory=dict)


def _unit_rows(gen, n: int, d: int) -> np.ndarray:
    m = rng.gaussian(gen, (n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _assign_attributes(cfg: GenConfig) -> list[tuple[int, ...]]:
    """Distinct attribute subsets; every pool attribute occurs in the base."""
    gen = rng.stream(cfg.seed, "attr-assignment")
    combos: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for c in range(cfg.total_classes):
        forced = [a for a in range(cfg.pool_size)
                  if c < cfg.base_classes and a % cfg.base_classes == c]
        forced = forced[:cfg.attrs_per_class]
        for _ in range(10000):
            pool = [a for a in range(cfg.pool_size) if a not in forced]
            extra = gen.choice(len(pool), cfg.attrs_per_class - len(forced),
                               replace=False)
            combo = tuple(sorted(forced + [pool[i] for i in extra]))
            if combo not in seen:
                break
        else:
            raise InvalidConfig("could not find distinct attribute subsets")
        seen.add(combo)
        combos.append(combo)
    return combos


def generate_benchmark(cfg: GenConfig) -> GeneratedBenchmark:
    """Build the full benchmark: per-session train/test sets plus ground truth."""
    cfg.validate()
    attr_names = [f"attr_{i:02d}" for i in range(cfg.pool_size)]
    class_names = [f"class_{i:02d}" for i in range(cfg.total_classes)]

    visual = _unit_rows(rng.stream(cfg.seed, "attr-visual"), cfg.pool_size, cfg.d_f)
    semantic = _unit_rows(rng.stream(cfg.seed, "attr-semantic"), cfg.pool_size, cfg.d_s)
    # attribute-linked variance profile; mean over dims is 1 for each row
    var_profile = visual ** 2 * cfg.d_f

    combos = _assign_attributes(cfg)
    truth: dict[str, ClassTruth] = {}
    embeddings: dict[str, np.ndarray] = {
        name: semantic[i] for i, name in enumerate(attr_names)}
    table: dict[str, list[str]] = {}
    gen_cls = rng.stream(cfg.seed, "class-unique")
    for cid, name in enumerate(class_names):
        combo = combos[cid]
        mean = visual[list(combo)].sum(axis=0) \
            + cfg.unique_scale * rng.gaussian(gen_cls, (cfg.d_f,))
        sem = semantic[list(combo)].sum(axis=0) \
            + cfg.semantic_noise * rng.gaussian(gen_cls, (cfg.d_s,))
        cov = cfg.noise ** 2 * (0.55 + 0.45 * var_profile[list(combo)].mean(axis=0))
        truth[name] = ClassTruth(name=name, mean=mean, cov_diag=cov,
                                 attributes=[attr_names[a] for a in combo])
        embeddings[name] = sem
        table[name] = [attr_names[a] for a in combo]

    def draw(name: str, split: str, count: int) -> np.ndarray:
        t = truth[name]
        gen = rng.stream(cfg.seed, "samples", split, name)
        return t.mean + rng.gaussian(gen, (count, cfg.d_f)) * np.sqrt(t.cov_diag)

    def make_set(names: list[str], split: str, count: int) -> FeatureSet:
        feats = np.vstack([draw(n, split, count) for n in names])
        labels = np.repeat(np.arange(len(names)), count)
        return FeatureSet(features=feats, labels=labels, class_names=tuple(names))

    session_names = [class_names[:cfg.base_classes]]
    for t in range(1, cfg.sessions + 1):
        start = cfg.base_classes + (t - 1) * cfg.way
        session_names.append(class_names[start:start + cfg.way])

    train_sets = [make_set(session_names[0], "train", cfg.base_samples)]
    train_sets += [make_set(names, "train", cfg.shot) for names in session_names[1:]]
    test_sets = [make_set(names, "test", cfg.test_samples) for names in session_names]

    return GeneratedBenchmark(
        config=cfg, train_sets=train_sets, test_sets=test_sets,
        table=AttributeTable(table), embeddings=embeddings, truth=truth,
        attribute_visual={n: visual[i] for i, n in enumerate(attr_names)})


def write_benchmark(bench: GeneratedBenchmark, outdir) -> Path:
    """Write feature CSVs, attribute table, embeddings, truth and manifest.

    Returns the manifest path.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = bench.config

    session_files = [f"session_{t:02d}.csv" for t in range(1, cfg.sessions + 1)]
    test_files = [f"test_{t:02d}.csv" for t in range(len(bench.test_sets))]
    for fs, fname in zip(bench.train_sets + bench.test_sets,
                         ["base.csv", *session_files, *test_files]):
        save_features(fs, outdir / fname)

    (outdir / "attributes.json").write_text(
        json.dumps({"classes": bench.table.classes}, indent=2) + "\n",
        encoding="utf-8")

    write_numeric_csv(outdir / "semantic.csv", ("name",), "s",
                      [(name,) for name in bench.embeddings],
                      np.array(list(bench.embeddings.values())))

    truth_obj = {
        "config": asdict(cfg),
        "classes": {
            name: {
                "mean": [float(x) for x in t.mean],
                "cov_diag": [float(x) for x in t.cov_diag],
                "attributes": t.attributes,
            } for name, t in bench.truth.items()
        },
        "attribute_visual": {
            name: [float(x) for x in vec]
            for name, vec in bench.attribute_visual.items()
        },
    }
    (outdir / "truth.json").write_text(json.dumps(truth_obj, indent=2) + "\n",
                                       encoding="utf-8")

    manifest = {
        "base": "base.csv",
        "sessions": session_files,
        "attributes": "attributes.json",
        "semantic": "semantic.csv",
        "tests": test_files,
        "truth": "truth.json",
    }
    manifest_path = outdir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest_path
