"""Feature sets and file formats.

Feature CSV: header ``label,class_name,f0,...,f{d-1}``; labels are
nonnegative integers, contiguous from 0 within a file; a row needs one
nonzero feature, since a zero vector has no direction to project; floats
are written with repr() so a write-read round trip is exact.

Manifest JSON: ``{"base": path, "sessions": [path, ...], "attributes":
path, "semantic": path}`` plus optional ``"tests"`` (one file per session,
index 0 = base) and ``"truth"`` keys.  Relative paths are resolved against
the manifest's directory.

Config JSON: one object whose keys name fields of a config dataclass.

Every reader names the file in its errors; JSON syntax errors carry
path:line:col.
"""

from __future__ import annotations

import csv
import json
import math
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, InvalidInput, ParseError, SchemaError


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
    linenos: list[int] = []
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
        rows.append((label, row[1], vec))
        linenos.append(lineno)
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    features = np.array([r[2] for r in rows], dtype=np.float64)
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise SchemaError(f"{path}:{linenos[int(np.argmin(finite))]}: "
                          "non-finite value")
    n_classes = max(r[0] for r in rows) + 1
    if n_classes > len(rows):
        raise SchemaError(f"{path}: labels are not contiguous from 0")
    labels = np.array([r[0] for r in rows], dtype=np.int64)
    names: list[str | None] = [None] * n_classes
    for label, name, _ in rows:
        if names[label] is None:
            names[label] = name
        elif names[label] != name:
            raise SchemaError(f"{path}: label {label} maps to both "
                              f"{names[label]!r} and {name!r}")
    if any(n is None for n in names):
        raise SchemaError(f"{path}: labels are not contiguous from 0")
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


def parse_json(text: str, source) -> object:
    """``json.loads`` whose syntax errors are ParseErrors at source:line:col."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def read_json(path) -> object:
    return parse_json(Path(path).read_text(encoding="utf-8"), path)


def load_config(cls, path):
    """Read a config dataclass from JSON, checked before any work is done.

    Keys must name fields of ``cls``; each value must have its field's
    annotated type (an int passes for a float, and floats must be finite);
    then ``validate()`` checks the ranges.  Every error names the file.
    """
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise InvalidConfig(f"{path}: config must be a JSON object")
    declared = {f.name: f for f in fields(cls)}
    unknown = set(obj) - set(declared)
    if unknown:
        raise InvalidConfig(f"{path}: unknown config keys: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    for name, value in obj.items():
        allowed = typing.get_args(hints[name]) or (hints[name],)
        if float in allowed:
            allowed += (int,)
        if type(value) not in allowed or (type(value) is float
                                          and not math.isfinite(value)):
            raise InvalidConfig(f"{path}: {name} must be {declared[name].type}, "
                                f"got {value!r}")
    config = cls(**obj)
    try:
        config.validate()
    except InvalidConfig as exc:
        raise InvalidConfig(f"{path}: {exc}") from exc
    return config


def load_manifest(path) -> Manifest:
    path = Path(path)
    obj = read_json(path)
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
