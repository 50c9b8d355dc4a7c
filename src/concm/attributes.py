"""Semantic knowledge assembly.

The attribute pool is built once from the base session: pooled attribute
names, their word embeddings, and a visual prototype per attribute (the
mean feature over all base samples of classes possessing it).  Each
session's knowledge holds that frozen pool plus the word embeddings and
association columns of the session's own classes; a class is associated
with the intersection of its attribute list and the pool, and flagged
uncovered when that intersection is empty.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import FeatureSet, read_json, read_numeric_csv
from .errors import EmptyAttribute, MissingEmbedding, SchemaError, UnknownClass

logger = logging.getLogger("concm.attributes")


class AttributeTable:
    """Class name -> attribute names, with stable (file) ordering."""

    def __init__(self, classes: dict[str, list[str]]):
        self.classes = classes

    def attributes_for(self, class_name: str) -> list[str]:
        if class_name not in self.classes:
            raise UnknownClass(f"class {class_name!r} not in attribute table")
        return self.classes[class_name]

    def __contains__(self, class_name: str) -> bool:
        return class_name in self.classes


@dataclass(frozen=True)
class AttributePool:
    """Pooled attributes: names plus semantic and visual vectors per row.

    ``visual`` is in units of ``unit``, a power of two; the calibration net
    takes its feature inputs and gives its outputs in the same unit."""

    names: tuple[str, ...]
    semantic: np.ndarray  # (N_a, d_s)
    visual: np.ndarray    # (N_a, d_f)
    unit: float = 1.0

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def d_s(self) -> int:
        return self.semantic.shape[1]

    @property
    def d_f(self) -> int:
        return self.visual.shape[1]


@dataclass(frozen=True)
class AssociationMatrix:
    """Binary pool-attribute x class table; column order = class_names."""

    r: np.ndarray
    class_names: tuple[str, ...]

    def column(self, class_name: str) -> np.ndarray:
        try:
            j = self.class_names.index(class_name)
        except ValueError:
            raise UnknownClass(f"class {class_name!r} not in association matrix")
        return self.r[:, j]

    @property
    def uncovered(self) -> frozenset[str]:
        zero = ~self.r.any(axis=0)
        return frozenset(name for name, z in zip(self.class_names, zero) if z)


@dataclass(frozen=True)
class SemanticKnowledge:
    """Frozen pool + word embeddings + associations of one session's classes."""

    pool: AttributePool
    class_semantic: dict[str, np.ndarray]
    assoc: AssociationMatrix


def load_attribute_table(path) -> AttributeTable:
    obj = read_json(path)
    if not isinstance(obj, dict) or "classes" not in obj:
        raise SchemaError(f"{path}: expected an object with a 'classes' key")
    classes = obj["classes"]
    if not isinstance(classes, dict):
        raise SchemaError(f"{path}: 'classes' must be an object")
    out: dict[str, list[str]] = {}
    for name, attrs in classes.items():
        if not isinstance(attrs, list) or not all(isinstance(a, str) for a in attrs):
            raise SchemaError(f"{path}: attribute list for {name!r} must be strings")
        out[name] = list(attrs)
    return AttributeTable(out)


def load_semantic_embeddings(path) -> dict[str, np.ndarray]:
    """Parse the name,s0,...,s{d-1} CSV of word embeddings with the feature
    CSV's reader (``read_numeric_csv``), so both accept the same numbers;
    each name's vector is a row of one array."""
    names: dict[str, None] = {}

    def check_keys(lineno, fields):
        if fields[0] in names:
            raise SchemaError(f"{path}:{lineno}: duplicate name {fields[0]!r}")
        names[fields[0]] = None

    values, _ = read_numeric_csv(path, ("name",), "s", check_keys)
    return dict(zip(names, values))


def attribute_visual_prototypes(base_features: FeatureSet,
                                table: AttributeTable) -> tuple[tuple[str, ...], np.ndarray]:
    """Pooled attribute names in first-appearance order over base classes,
    and the visual prototype of each: the mean over all supporting samples.

    An attribute supported by several classes is averaged over the pooled
    raw samples of those classes, not over per-class means.
    """
    owners: dict[str, list[int]] = {}
    for label, cname in enumerate(base_features.class_names):
        for attr in table.attributes_for(cname):
            owners.setdefault(attr, []).append(label)
    visual = np.zeros((len(owners), base_features.dim))
    for i, (attr, labels) in enumerate(owners.items()):
        mask = np.isin(base_features.labels, labels)
        if not mask.any():
            raise EmptyAttribute(f"attribute {attr!r} has no supporting samples")
        visual[i] = base_features.features[mask].mean(axis=0)
    return tuple(owners), visual


def build_pool(base_features: FeatureSet, table: AttributeTable,
               embeddings: dict[str, np.ndarray]) -> AttributePool:
    names, visual = attribute_visual_prototypes(base_features, table)
    d_s = None
    rows = []
    for attr in names:
        if attr not in embeddings:
            raise MissingEmbedding(attr)
        vec = embeddings[attr]
        if d_s is None:
            d_s = vec.shape[0]
        elif vec.shape[0] != d_s:
            raise SchemaError(f"embedding for {attr!r} has dim {vec.shape[0]}, "
                              f"expected {d_s}")
        rows.append(vec)
    # unit: the power of two at or below the RMS row norm of ``visual``,
    # taken on visual / 2**top, whose sum of squares can neither overflow
    # nor vanish; features x 2**k give the same net inputs, bit for bit
    top = math.frexp(np.abs(visual).max())[1]
    rms = np.linalg.norm(np.ldexp(visual, -top)) / math.sqrt(len(names))
    unit = math.ldexp(0.5, math.frexp(rms)[1] + top)
    return AttributePool(names=names, semantic=np.vstack(rows),
                         visual=visual / unit, unit=unit)


def build_knowledge(class_names: list[str], embeddings: dict[str, np.ndarray],
                    table: AttributeTable,
                    pool: AttributePool) -> SemanticKnowledge:
    """Assemble the semantic knowledge set of the given classes over the
    frozen ``pool`` (``build_pool``).  A class's association column is the
    intersection of its attribute list with the pool; an empty one is
    flagged uncovered, with a warning (calibration then falls back to the
    raw prototype).
    """
    index = {a: i for i, a in enumerate(pool.names)}
    r = np.zeros((pool.size, len(class_names)), dtype=np.int8)
    class_semantic: dict[str, np.ndarray] = {}
    for j, name in enumerate(class_names):
        if name not in embeddings:
            raise MissingEmbedding(name)
        vec = embeddings[name]
        if vec.shape[0] != pool.d_s:
            raise SchemaError(f"embedding for {name!r} has dim {vec.shape[0]}, "
                              f"expected {pool.d_s}")
        class_semantic[name] = vec
        for attr in table.attributes_for(name):
            if attr in index:
                r[index[attr], j] = 1
    assoc = AssociationMatrix(r=r, class_names=tuple(class_names))
    for name in sorted(assoc.uncovered):
        logger.warning("class %r shares no attribute with the pool; "
                       "calibration will fall back to the raw prototype", name)
    return SemanticKnowledge(pool=pool, class_semantic=class_semantic, assoc=assoc)
