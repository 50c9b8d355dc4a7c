"""Outside-in layer tracing for the concm benchmark.

Each layer's public functions are wrapped at the name their caller looks
them up by -- ``concm.session.meta_train``, ``concm.structure.svd_compact``,
``concm.rng.gaussian``, ``concm.autodiff.Tape.forward`` -- so no program
file changes.  A wrapped call records a span (name, parent, start, end)
plus size fields; spans stay in memory and are summarised at the end.
Span names are ``<module>.<function>`` of the program's own modules; an
in-program tracer should emit the same names.

A layer's self time is its span's duration minus the durations of its
direct child spans.  Tape forward/backward spans and tape construction are
attributed to the enclosing layer span, which gives the ``*.tape_*``
fields.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
from collections import defaultdict
from time import perf_counter

# The benchmark's own span around each run_pipeline call.
ROOT_SPAN = "session.run_pipeline"
# Orchestration spans: time left in them is covered by no layer.
SESSION_SPANS = (ROOT_SPAN, "session.run_base_session",
                 "session.run_incremental_session")
FORWARD = "autodiff.Tape.forward"
BACKWARD = "autodiff.Tape.backward"


def _rows(x) -> int:
    return 1 if x.ndim == 1 else x.shape[0]


# (module, attribute path at the caller's lookup site, span name,
#  size fields from (args, result)); fields named max_* aggregate by max.
TARGETS = (
    ("concm.session", "load_features", "data.load_features",
     lambda a, out: {"rows": out.n_samples}),
    ("concm.session", "load_semantic_embeddings",
     "attributes.load_semantic_embeddings", None),
    ("concm.session", "build_knowledge", "attributes.build_knowledge", None),
    ("concm.session", "meta_train", "calibration.meta_train", None),
    ("concm.session", "calibrate", "calibration.calibrate", None),
    ("concm.session", "train_projector", "projector.train_projector", None),
    ("concm.session", "project", "projector.project",
     lambda a, out: {"rows": _rows(out)}),
    ("concm.session", "sample_augmented", "augment.sample_augmented",
     lambda a, out: {"rows": out.n_samples}),
    ("concm.rng", "gaussian", "rng.gaussian",
     lambda a, out: {"values": out.size}),
    ("concm.session", "initial_structure", "structure.initial_structure", None),
    ("concm.session", "nearest_optimal_structure",
     "structure.nearest_optimal_structure",
     lambda a, out: {"rank_deficient": int(out.rank_deficient)}),
    ("concm.structure", "svd_compact", "linalg.svd_compact",
     lambda a, out: {"max_cols": a[0].shape[1]}),
    ("concm.session", "evaluate_session", "session.evaluate_session",
     lambda a, out: {"rows": a[1].shape[0]}),
    ("concm.session", "ncm_classify", "metrics.ncm_classify", None),
    ("concm.session", "similarity_stats", "metrics.similarity_stats", None),
    ("concm.session", "run_base_session", "session.run_base_session", None),
    ("concm.session", "run_incremental_session",
     "session.run_incremental_session", None),
    ("concm.autodiff", "Tape.forward", FORWARD, None),
    ("concm.autodiff", "Tape.backward", BACKWARD, None),
)
# Counted, not timed: every tape built, attributed to the enclosing span.
TAPE_INIT = ("concm.autodiff", "Tape.__init__")


def lookup(module: str, attr: str):
    """(owner object, attribute name, current value) at a lookup site."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Span recorder for one traced section of a benchmark run."""

    def __init__(self):
        # [name, parent index or -1, start, end, fields or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.tapes: dict[str, int] = defaultdict(int)
        self.nodes: dict[str, int] = defaultdict(int)
        self._fresh: set[int] = set()

    def _owner(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1,
                           perf_counter(), None, None])
        self._stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._stack.pop()
            self.spans[idx][3] = perf_counter()

    def _wrap(self, name: str, fn, sizes):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if sizes is not None:
                rec[4] = sizes(args, out)
            return out
        return traced

    def _wrap_forward(self, fn):
        traced = self._wrap(FORWARD, fn, None)

        @functools.wraps(fn)
        def forward(tape, *args, **kwargs):
            # a tape's node count is taken at its first forward pass
            if id(tape) in self._fresh:
                self._fresh.discard(id(tape))
                self.nodes[self._owner()] += len(tape._nodes)
            return traced(tape, *args, **kwargs)
        return forward

    def _wrap_init(self, fn):
        @functools.wraps(fn)
        def init(tape, *args, **kwargs):
            fn(tape, *args, **kwargs)
            self._fresh.add(id(tape))
            self.tapes[self._owner()] += 1
        return init

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module, attr, name, sizes in TARGETS:
                owner, key, fn = lookup(module, attr)
                wrapped = self._wrap_forward(fn) if name == FORWARD \
                    else self._wrap(name, fn, sizes)
                saved.append((owner, key, fn))
                setattr(owner, key, wrapped)
            owner, key, fn = lookup(*TAPE_INIT)
            saved.append((owner, key, fn))
            setattr(owner, key, self._wrap_init(fn))
            yield self
        finally:
            for owner, key, fn in reversed(saved):
                setattr(owner, key, fn)

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, fields) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": start - t0, "end": end - t0,
                                     **(fields or {})}) + "\n")


class Summary:
    """Per-span-name totals: calls, total_s, self_s, summed size fields,
    and time of direct children by (parent name, child name)."""

    def __init__(self, tracer: Tracer):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.fields: dict[str, float] = defaultdict(float)
        self.child: dict[tuple[str, str], float] = defaultdict(float)
        self.child_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.tapes = dict(tracer.tapes)
        self.nodes = dict(tracer.nodes)
        spans = tracer.spans
        child_time = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
                self.child[(spans[parent][0], name)] += end - start
                self.child_calls[(spans[parent][0], name)] += 1
        for i, (name, parent, start, end, fields) in enumerate(spans):
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_s[name] += end - start - child_time[i]
            for key, value in (fields or {}).items():
                full = f"{name}.{key}"
                self.fields[full] = max(self.fields[full], value) \
                    if key.startswith("max_") else self.fields[full] + value

    def coverage(self) -> float:
        """Share of run_pipeline time inside some layer span."""
        run = self.total[ROOT_SPAN]
        uncovered = sum(self.self_s[name] for name in SESSION_SPANS)
        return 1.0 - uncovered / run if run > 0 else math.nan
