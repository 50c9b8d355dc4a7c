"""Feature sets and file formats.

Feature CSV: UTF-8, header ``label,class_name,f0,...,f{d-1}``; labels are
nonnegative integers, contiguous from 0 within a file; a row must not be
zero-norm (sqrt(sum(x * x)) < 1e-300 or sum(x * x) = +inf, the rule of the
tape's l2_normalize), since it has no finite direction to project; floats
are written with repr() so a write-read round trip is exact.  Fields are
not quoted: the class name is the raw text between the first two commas
and may hold no comma, quote or line break, and ``#`` is data, not a
comment.  Lines end in LF or CRLF; blank lines are skipped, and error
line numbers count them.

Manifest JSON: ``{"base": path, "sessions": [path, ...], "attributes":
path, "semantic": path}`` plus an optional ``"tests"`` key (one file per
session, index 0 = base); other keys are ignored.  Relative paths are
resolved against the manifest's directory.

Config JSON: one object whose keys name fields of a config dataclass.

Every reader names the file in its errors; JSON syntax errors carry
path:line:col.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .autodiff import zero_norm_rows
from .errors import InvalidConfig, InvalidInput, ParseError, SchemaError


@dataclass
class FeatureSet:
    """Labeled feature vectors; class_names[label] gives the class string.

    Raises SchemaError for mismatched shapes or labels, and InvalidInput
    naming the first row that ``bad_feature_row`` rejects."""

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
        if bad := bad_feature_row(self.features):
            raise InvalidInput(f"feature row {bad[0]}: {bad[1]}")
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


def bad_feature_row(features: np.ndarray) -> tuple[int, str] | None:
    """(index, reason) of the first row of the 2-D ``features`` that holds a
    non-finite value or is zero-norm (``zero_norm_rows``); None if none."""
    finite = np.isfinite(features).all(axis=1)
    rows = np.concatenate([np.flatnonzero(~finite), zero_norm_rows(features)])
    if not rows.size:
        return None
    i = int(rows.min())
    return i, ("non-finite value" if not finite[i] else
               "all-zero feature row" if not features[i].any() else
               "feature row norm overflows: sum(x * x) is inf"
               if np.abs(features[i]).max() > 1.0 else
               "zero-norm feature row: sqrt(sum(x * x)) < 1e-300")


def read_lines(path, fh):
    """(line number, text) of each line of the binary file ``fh``, line end
    stripped; a line that is not UTF-8 is a ParseError at path:line."""
    for lineno, raw in enumerate(fh, start=1):
        try:
            yield lineno, raw.rstrip(b"\r\n").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: not UTF-8 at byte "
                             f"{exc.start + 1}: {exc.reason}") from exc


def read_numeric_csv(path, keys: tuple[str, ...], prefix: str,
                     check_keys) -> tuple[np.ndarray, list[int]]:
    """Read a CSV of key columns and numeric columns; returns the (rows, d)
    float64 values and the file line of each row.

    The header is ``keys`` then ``<prefix>0,...,<prefix>{d-1}`` with d >= 1.
    The file is read once, line by line: Python checks each row's field
    count and key fields (no quote, then ``check_keys(lineno, fields)``),
    and numpy's C parser converts the value text straight into the array,
    so no per-value Python object exists.  A malformed or non-finite value
    is an error at path:line; so are the field count, a quote in a key
    field and whatever ``check_keys`` raises.
    """
    n_keys = len(keys)
    with open(path, "rb") as fh:
        lines = read_lines(path, fh)
        header = next(lines, (1, ""))[1].split(",")
        dim = len(header) - n_keys
        if dim < 1 or header != [*keys, *(f"{prefix}{i}" for i in range(dim))]:
            raise ParseError(f"{path}:1: expected header '{','.join(keys)},"
                             f"{prefix}0,...,{prefix}<d-1>'")
        linenos: list[int] = []

        def value_text():
            for lineno, line in lines:
                if not line:
                    continue
                n_fields = line.count(",") + 1
                if n_fields != n_keys + dim:
                    raise SchemaError(f"{path}:{lineno}: expected {n_keys + dim} "
                                      f"fields, got {n_fields}")
                fields = line.split(",", n_keys)
                values = fields.pop()
                if not values:  # numpy would skip it as a blank line
                    raise ParseError(f"{path}:{lineno}: empty value")
                for key, text in zip(keys, fields):
                    if '"' in text:
                        raise ParseError(f"{path}:{lineno}: quote in "
                                         f"{key.replace('_', ' ')}")
                check_keys(lineno, fields)
                linenos.append(lineno)
                yield values

        rows = value_text()
        first = next(rows, None)
        if first is None:
            raise SchemaError(f"{path}: no data rows")
        try:
            values = np.loadtxt(itertools.chain([first], rows), delimiter=",",
                                comments=None, dtype=np.float64)
        except ValueError as exc:
            # numpy names the failing row as "at row N" over the rows fed
            # to it, all non-blank; map it back to the file line
            where = re.search(r" at row (\d+), column (\d+)", str(exc))
            if where is None:
                raise ParseError(f"{path}:{linenos[-1]}: {exc}") from exc
            field_no = int(where[2]) + n_keys
            raise ParseError(f"{path}:{linenos[int(where[1])]}: "
                             f"{str(exc)[:where.start()]} (field {field_no})") from exc
    values = values.reshape(len(linenos), dim)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise SchemaError(f"{path}:{linenos[int(np.argmin(finite))]}: "
                          "non-finite value")
    return values, linenos


def load_features(path) -> FeatureSet:
    """Parse a feature CSV (``read_numeric_csv``); raises ParseError or
    SchemaError at path:line, never partial data."""
    labels: list[int] = []
    names: dict[int, str] = {}

    def check_keys(lineno, fields):
        label_text, name = fields
        try:
            label = int(label_text)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if label < 0:
            raise SchemaError(f"{path}:{lineno}: negative label")
        known = names.setdefault(label, name)
        if known != name:
            raise SchemaError(f"{path}:{lineno}: label {label} maps to "
                              f"both {known!r} and {name!r}")
        labels.append(label)

    features, linenos = read_numeric_csv(path, ("label", "class_name"), "f",
                                         check_keys)
    if bad := bad_feature_row(features):
        raise SchemaError(f"{path}:{linenos[bad[0]]}: {bad[1]}")
    if len(names) != max(names) + 1:
        raise SchemaError(f"{path}: labels are not contiguous from 0")
    return FeatureSet(features=features, labels=np.array(labels, dtype=np.int64),
                      class_names=tuple(names[i] for i in range(len(names))))


def write_numeric_csv(path, keys: tuple[str, ...], prefix: str, key_rows,
                      values: np.ndarray) -> None:
    """Write what ``read_numeric_csv`` reads, key fields raw and values as
    repr() floats; a key field holding a comma, quote or line break raises
    SchemaError, and nothing is written."""
    for key, column in zip(keys, zip(*key_rows)):
        bad = [f for f in dict.fromkeys(column) if any(c in f for c in ',"\r\n')]
        if bad:
            raise SchemaError(f"{path}: {key.replace('_', ' ')}s {bad!r} hold "
                              "a comma, quote or line break")
    lines = [",".join([*keys, *(f"{prefix}{i}" for i in range(values.shape[1]))])]
    lines += [",".join([*fields, *map(repr, row.tolist())])
              for fields, row in zip(key_rows, values)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_features(fs: FeatureSet, path) -> None:
    """Write the feature CSV (``write_numeric_csv``)."""
    write_numeric_csv(path, ("label", "class_name"), "f",
                      [(str(label), fs.class_names[label])
                       for label in fs.labels.tolist()], fs.features)


@dataclass
class Manifest:
    base: Path
    sessions: list[Path]
    attributes: Path
    semantic: Path
    tests: list[Path] = field(default_factory=list)


def parse_json(text: str, source) -> object:
    """``json.loads`` whose syntax errors are ParseErrors at source:line:col."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def read_json(path) -> object:
    return parse_json(Path(path).read_text(encoding="utf-8"), path)


def _is_finite_number(value) -> bool:
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


# what a field's annotation asks of its value, and how to say it: the rule
# of every config field and report figure
RULES = {int: (lambda v: type(v) is int, "an int"),
         float: (_is_finite_number, "a finite number"),
         typing.Optional[float]: (lambda v: v is None or _is_finite_number(v),
                                  "a finite number or null")}


def annotated_fields(cls) -> list:
    """(field, annotation) for each field of the dataclass ``cls``, in order."""
    hints = typing.get_type_hints(cls)
    return [(f, hints[f.name]) for f in fields(cls)]


def check_fields(config, limits: dict) -> None:
    """Check each field of the dataclass ``config`` against its annotation's
    rule in RULES, then against its (low, high) in ``limits``, where None
    leaves an end open; InvalidConfig names the first field that fails."""
    for f, rule in annotated_fields(type(config)):
        value = getattr(config, f.name)
        holds, want = RULES[rule]
        if not holds(value):
            raise InvalidConfig(f"{f.name} must be {want}, got {value!r}")
        low, high = limits.get(f.name, (None, None))
        if low is not None and value < low or high is not None and value > high:
            span = (f">= {low}" if high is None else f"<= {high}" if low is None
                    else f"in [{low}, {high}]")
            raise InvalidConfig(f"{f.name} = {value!r} must be {span}")


def load_config(cls, path):
    """Read a config dataclass from JSON, checked before any work is done.

    Keys must name fields of ``cls``; then ``validate()`` checks the values.
    Every error names the file.
    """
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise InvalidConfig(f"{path}: config must be a JSON object")
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise InvalidConfig(f"{path}: unknown config keys: {sorted(unknown)}")
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
    )
