"""Nearest-class-mean classification and the evaluation metric suite.

All rates are percentages in [0, 100].  Per-session records hold Top-1,
base/novel accuracy, their harmonic mean, the balanced error rate over the
base-positive binary split, the structure matching rate, and cosine
similarity diagnostics.  Run-level aggregates: AHM (mean harmonic mean
over incremental sessions), FA (final-session Top-1) and PD (base-session
Top-1 minus FA).
"""

from __future__ import annotations

import json
import logging
from dataclasses import MISSING, asdict, dataclass, field
from typing import Optional

import numpy as np

from .data import RULES, annotated_fields, parse_json, read_json
from .errors import SchemaError, ShapeError
from .structure import StructureMatrix

logger = logging.getLogger("concm.metrics")


def ncm_classify(z: np.ndarray, structure: StructureMatrix) -> np.ndarray:
    """Class index of each row of ``z`` with the highest inner product
    (ties: lowest index).

    On unit vectors this equals minimum Euclidean distance to the columns.
    """
    return np.argmax(z @ structure.columns, axis=1)


@dataclass
class SessionRecord:
    # the report's JSON keys and CSV/table columns, in order; each annotation
    # is load_report's rule; metadata replaces the table's header or 2 decimals
    t: int = field(metadata={"header": "session"})
    top1: float
    bacc: Optional[float]
    nacc: Optional[float]
    hm: Optional[float]
    ber: Optional[float]
    smr: Optional[float] = None
    sim_cls: Optional[float] = field(default=None, metadata={"digits": 4})
    sim_in: Optional[float] = field(default=None, metadata={"digits": 4})


def harmonic_mean(bacc: float, nacc: float) -> float:
    if bacc + nacc == 0.0:
        return 0.0
    hm = 2.0 * bacc * nacc / (bacc + nacc)
    # rounding can put it an ulp outside [min, max], e.g. for bacc == nacc
    return min(max(hm, min(bacc, nacc)), max(bacc, nacc))


def session_metrics(preds: np.ndarray, labels: np.ndarray,
                    base_class_set: set[int], t: int = 0) -> SessionRecord:
    """Accuracy metrics for one session's predictions.

    Metrics whose subset is empty (e.g. novel accuracy in the base session)
    are reported as absent, not zero.
    """
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape:
        raise ShapeError("preds and labels must have the same length")
    base_ids = np.asarray(sorted(base_class_set), dtype=np.int64)
    is_base = np.isin(labels, base_ids)
    pred_base = np.isin(preds, base_ids)
    top1 = 100.0 * float(np.mean(preds == labels))

    bacc = nacc = hm = ber = None
    if is_base.any():
        bacc = 100.0 * float(np.mean(preds[is_base] == labels[is_base]))
    if (~is_base).any():
        nacc = 100.0 * float(np.mean(preds[~is_base] == labels[~is_base]))
    if bacc is not None and nacc is not None:
        hm = harmonic_mean(bacc, nacc)
        fnr = 100.0 * float(np.mean(~pred_base[is_base]))
        fpr = 100.0 * float(np.mean(pred_base[~is_base]))
        ber = balanced_error_rate(fnr, fpr)
    return SessionRecord(t=t, top1=top1, bacc=bacc, nacc=nacc, hm=hm, ber=ber)


def balanced_error_rate(fnr: float, fpr: float) -> float:
    return (fnr + fpr) / 2.0


def run_metrics(records: list[SessionRecord],
                base_acc: float) -> tuple[Optional[float], float, float]:
    """(AHM, FA, PD) from per-session records and the base-session Top-1."""
    hms = [r.hm for r in records if r.t >= 1 and r.hm is not None]
    ahm = float(np.mean(hms)) if hms else None
    fa = records[-1].top1
    return ahm, fa, base_acc - fa


@dataclass
class ClassSums:
    """Per-class row count, sum of rows and sum of unit-normalized rows:
    what ``similarity_stats`` needs, added up a block of rows at a time."""

    count: np.ndarray  # (classes,)
    rows: np.ndarray  # (classes, d)
    unit_rows: np.ndarray  # (classes, d)

    @classmethod
    def zeros(cls, n_classes: int, d: int) -> "ClassSums":
        return cls(np.zeros(n_classes, dtype=np.int64), np.zeros((n_classes, d)),
                   np.zeros((n_classes, d)))

    def add(self, z: np.ndarray, labels: np.ndarray) -> None:
        """Add the rows ``z`` of classes ``labels``: each class's rows in
        order, then onto its running sum."""
        order = np.argsort(labels, kind="stable")
        classes, firsts = np.unique(labels[order], return_index=True)
        z = z[order]
        self.count += np.bincount(labels, minlength=self.count.size)
        self.rows[classes] += np.add.reduceat(z, firsts, axis=0)
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        self.unit_rows[classes] += np.add.reduceat(z, firsts, axis=0)


def similarity_stats(sums: ClassSums) -> tuple[float, float]:
    """(between-class, within-class) cosine similarity diagnostics.

    The first value is the mean pairwise cosine between distinct class-mean
    directions (lower = better separated); the second is the mean cosine of
    samples to their own class-mean direction (higher = more compact).
    Classes without rows are absent; singleton classes are skipped in the
    within-class term.  With fewer than two class-mean directions the first
    value is NaN.
    """
    count = sums.count
    present = count > 0
    norms = np.linalg.norm(sums.rows, axis=1)
    # the class mean is rows / count
    flat = present & (norms < 1e-12 * count)
    for c in np.flatnonzero(flat):
        logger.warning("class %d has a zero-norm mean; skipped", int(c))
    kept = present & ~flat
    dirs = sums.rows[kept] / norms[kept, None]
    gram = dirs @ dirs.T
    pairs = gram[np.triu_indices(dirs.shape[0], k=1)]
    sim_cls = float(pairs.mean()) if pairs.size else float("nan")
    within = count[kept] >= 2
    if not within.any():
        return sim_cls, float("nan")
    dots = (sums.unit_rows[kept][within] * dirs[within]).sum(axis=1)
    return sim_cls, float(dots.sum() / count[kept][within].sum())


@dataclass
class RunReport:
    # a report file may leave out the fields that have a default
    sessions: list[SessionRecord]
    ahm: Optional[float]
    fa: float
    pd: float
    base_acc: float
    strategy: str = "concm"
    seed: int = 0


def report_to_json(report: RunReport) -> str:
    return json.dumps(asdict(report), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def load_report(path) -> RunReport:
    """Read a report JSON file; every error names the file."""
    return _report_from_obj(read_json(path), path)


def report_from_json(text: str) -> RunReport:
    return _report_from_obj(parse_json(text, "report"), "report")


def _checked(where: str, obj: dict, f, rule):
    """``obj``'s value of field ``f``; SchemaError at ``where`` if it is
    missing or breaks the rule of the field's annotation ``rule``."""
    if f.name not in obj:
        raise SchemaError(f"{where} missing field {f.name!r}")
    holds, want = RULES.get(rule, (lambda v: True, None))
    if not holds(obj[f.name]):
        raise SchemaError(f"{where} field {f.name!r} must be {want}, "
                          f"got {obj[f.name]!r}")
    return obj[f.name]


def _report_from_obj(obj, source) -> RunReport:
    if not isinstance(obj, dict):
        raise SchemaError(f"{source}: report must be a JSON object")
    run, record = annotated_fields(RunReport), annotated_fields(SessionRecord)
    for f, _ in run:
        if f.default is MISSING and f.name not in obj:
            raise SchemaError(f"{source}: report missing field {f.name!r}")
    if not isinstance(obj["sessions"], list) \
            or not all(isinstance(rec, dict) for rec in obj["sessions"]):
        raise SchemaError(f"{source}: 'sessions' must be a list of objects")
    sessions = [SessionRecord(**{
        f.name: _checked(f"{source}: session record {i}", rec, f, rule)
        for f, rule in record})
        for i, rec in enumerate(obj["sessions"])]
    given = {f.name: _checked(f"{source}: report", obj, f, rule)
             for f, rule in run if f.name in obj}
    return RunReport(**dict(given, sessions=sessions))


def report_to_csv(report: RunReport) -> str:
    def cell(v, rule):
        return str(v) if rule is int else "" if v is None else repr(float(v))
    columns = annotated_fields(SessionRecord)
    lines = [[f.name for f, _ in columns]] + [
        [cell(getattr(r, f.name), rule) for f, rule in columns]
        for r in report.sessions]
    return "".join(",".join(line) + "\n" for line in lines)


def format_report_table(report: RunReport) -> str:
    """Human-readable session table plus the aggregate footer."""
    columns = annotated_fields(SessionRecord)
    headers = [f.metadata.get("header", f.name) for f, _ in columns]

    def fmt(v, digits=2):
        return "-" if v is None or (isinstance(v, float) and np.isnan(v)) \
            else f"{v:.{digits}f}"

    rows = [[str(getattr(r, f.name)) if rule is int
             else fmt(getattr(r, f.name), f.metadata.get("digits", 2))
             for f, rule in columns] for r in report.sessions]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    out = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for row in rows:
        out.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    out.append("")
    out.append(f"base_acc {fmt(report.base_acc)}  AHM {fmt(report.ahm)}  "
               f"FA {fmt(report.fa)}  PD {fmt(report.pd)}")
    return "\n".join(out) + "\n"
