"""Feature sets and file formats.

Feature CSV: header ``label,class_name,f0,...,f{d-1}``; labels are
nonnegative integers, contiguous from 0 within a file; a row needs one
nonzero feature, since a zero vector has no direction to project; floats
are written with repr() so a write-read round trip is exact.

Manifest JSON: ``{"base": path, "sessions": [path, ...], "attributes":
path, "semantic": path}`` plus optional ``"tests"`` (one file per session,
index 0 = base) and ``"truth"`` keys.  Relative paths are resolved against
the manifest's directory.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidInput, ParseError, SchemaError


@dataclass
class FeatureSet:
    """Labeled feature vectors; class_names[label] gives the class string."""

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise SchemaError("features must be (n, d) and labels (n,)")
        if self.features.shape[0] != self.labels.shape[0]:
            raise SchemaError("feature and label counts differ")
        if not np.all(np.isfinite(self.features)):
            raise InvalidInput("feature set contains non-finite values")
        n_classes = len(self.class_names)
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= n_classes):
            raise SchemaError("labels must index class_names")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def class_features(self, label: int) -> np.ndarray:
        return self.features[self.labels == label]

    def counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)


def load_features(path) -> FeatureSet:
    """Parse a feature CSV; raises ParseError/SchemaError, never partial data."""
    path = Path(path)
    rows: list[tuple[int, str, list[float]]] = []
    dim: int | None = None
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read feature file {path}: {exc}") from exc
    reader = csv.reader(text.splitlines())
    header = next(reader, None)
    if not header or header[:2] != ["label", "class_name"]:
        raise ParseError(f"{path}:1: expected header starting 'label,class_name'")
    expected_dim = len(header) - 2
    if expected_dim < 1 or header[2:] != [f"f{i}" for i in range(expected_dim)]:
        raise ParseError(f"{path}:1: malformed feature column names")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != expected_dim + 2:
            raise SchemaError(f"{path}:{lineno}: expected {expected_dim + 2} "
                              f"fields, got {len(row)}")
        try:
            label = int(row[0])
            vec = [float(x) for x in row[2:]]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if label < 0:
            raise SchemaError(f"{path}:{lineno}: negative label")
        if not any(vec):
            raise SchemaError(f"{path}:{lineno}: all-zero feature row")
        if dim is None:
            dim = len(vec)
        rows.append((label, row[1], vec))
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    labels = np.array([r[0] for r in rows], dtype=np.int64)
    n_classes = int(labels.max()) + 1
    names: list[str | None] = [None] * n_classes
    for label, name, _ in rows:
        if names[label] is None:
            names[label] = name
        elif names[label] != name:
            raise SchemaError(f"{path}: label {label} maps to both "
                              f"{names[label]!r} and {name!r}")
    if any(n is None for n in names):
        raise SchemaError(f"{path}: labels are not contiguous from 0")
    features = np.array([r[2] for r in rows], dtype=np.float64)
    return FeatureSet(features=features, labels=labels, class_names=tuple(names))


def save_features(fs: FeatureSet, path) -> None:
    path = Path(path)
    lines = ["label,class_name," + ",".join(f"f{i}" for i in range(fs.dim))]
    for i in range(fs.n_samples):
        label = int(fs.labels[i])
        vals = ",".join(repr(float(x)) for x in fs.features[i])
        lines.append(f"{label},{fs.class_names[label]},{vals}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class Manifest:
    base: Path
    sessions: list[Path]
    attributes: Path
    semantic: Path
    tests: list[Path] = field(default_factory=list)
    truth: Path | None = None


def load_manifest(path) -> Manifest:
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: manifest must be a JSON object")
    for key in ("base", "sessions", "attributes", "semantic"):
        if key not in obj:
            raise SchemaError(f"{path}: manifest missing key {key!r}")
    if not isinstance(obj["sessions"], list):
        raise SchemaError(f"{path}: 'sessions' must be a list")
    root = path.parent

    def resolve(p) -> Path:
        if not isinstance(p, str):
            raise SchemaError(f"{path}: paths must be strings")
        q = Path(p)
        return q if q.is_absolute() else root / q

    tests = obj.get("tests", [])
    if not isinstance(tests, list):
        raise SchemaError(f"{path}: 'tests' must be a list")
    return Manifest(
        base=resolve(obj["base"]),
        sessions=[resolve(p) for p in obj["sessions"]],
        attributes=resolve(obj["attributes"]),
        semantic=resolve(obj["semantic"]),
        tests=[resolve(p) for p in tests],
        truth=resolve(obj["truth"]) if "truth" in obj else None,
    )
