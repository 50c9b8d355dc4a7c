"""concm benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload small --seed 0 --seconds 20 --trace 0

The measured process only loads inputs that a child process generated
(see workloads.py), then calls the program from one caller in a closed
loop, with BLAS pinned to one thread:

* ``--trace 0``: set-up (``load_manifest`` + ``load_inputs``) repeated for
  at least 3 s and 3 times, then ``run_pipeline`` on the in-memory inputs
  repeated until ``--seconds`` have passed (at least once).  Prints the
  end-to-end metrics: medians of ``run_s`` and ``setup_s``, and the peak
  RSS of the process.
* ``--trace 1``: one traced set-up, then untraced and traced
  ``run_pipeline`` calls in turn until ``--seconds`` have passed (at least
  one of each), plus the plain-numpy projector-step floor.  Prints the
  per-layer metrics (see tracer.py and README.md).

Every run passes through the output gate; a run that raises or fails the
gate counts in ``failed`` and is never dropped or retried.  The last line
of standard output is the result object; the line before it is the full
record (environment, configs, input digests, samples, quality).
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported anywhere in this process
# (the input generator inherits the same environment).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import floor  # noqa: E402
from tracer import BACKWARD, FORWARD, ROOT_SPAN, Summary, Tracer  # noqa: E402
from workloads import (DATA, ROOT, STRATEGY, WORKLOADS, digest,  # noqa: E402
                       ensure_inputs, gen_config, input_files, program_digest,
                       session_config)

from concm.data import load_manifest  # noqa: E402
from concm.errors import ConcmError  # noqa: E402
from concm.metrics import report_from_json, report_to_json  # noqa: E402
from concm.session import load_inputs, run_pipeline  # noqa: E402
from concm.structure import geometric_optimality_deviation  # noqa: E402

ETF_TOL = 1e-8
SETUP_MIN_SECONDS = 3.0
SETUP_MIN_REPS = 3


class Gate:
    """Checks applied to the result of every run.

    The first clean report of a (workload, seed, program, inputs) is kept
    under .perfbench_data/reports/; every later report, in this process or
    another, must match it byte for byte.
    """

    def __init__(self, reference: Path):
        self.reference = reference
        self.expected = reference.read_text(encoding="utf-8") \
            if reference.is_file() else None

    def check(self, result) -> list[str]:
        problems = []
        for trace in result.traces:
            dev = geometric_optimality_deviation(trace.structure)
            if not dev <= ETF_TOL:
                problems.append(f"session {trace.t}: ETF deviation {dev:.3e}")
        report = result.report
        for key in ("ahm", "fa", "base_acc"):
            value = getattr(report, key)
            if value is None or not math.isfinite(value):
                problems.append(f"{key} is {value}")
        try:
            text = report_to_json(report)
            if report_to_json(report_from_json(text)) != text:
                problems.append("report changes on a JSON round trip")
        except (ValueError, ConcmError) as exc:
            return problems + [f"report does not round-trip: {exc}"]
        if self.expected is None and not problems:
            self.expected = text
            self.reference.parent.mkdir(parents=True, exist_ok=True)
            self.reference.write_text(text, encoding="utf-8")
        elif self.expected is not None and text != self.expected:
            problems.append("report bytes differ from an earlier run of "
                            "this workload and seed")
        return problems


def timed_setup(manifest_path: Path, config, tracer: Tracer | None = None):
    """Load the inputs as ``concm run`` does; returns (inputs, seconds list).

    Untraced: repeated for SETUP_MIN_SECONDS and SETUP_MIN_REPS.  Traced:
    once, with the tracer installed.
    """
    if tracer is not None:
        t0 = perf_counter()
        with tracer.installed():
            inputs = load_inputs(load_manifest(manifest_path), config)
        return inputs, [perf_counter() - t0]
    times: list[float] = []
    start = perf_counter()
    while len(times) < SETUP_MIN_REPS or perf_counter() - start < SETUP_MIN_SECONDS:
        inputs = None  # free the previous copy before loading the next
        t0 = perf_counter()
        inputs = load_inputs(load_manifest(manifest_path), config)
        times.append(perf_counter() - t0)
    return inputs, times


def timed_run(inputs, gate: Gate, tracer: Tracer | None = None):
    """One ``run_pipeline`` call: (seconds, report or None, problems)."""
    t0 = perf_counter()
    try:
        if tracer is None:
            result = run_pipeline(inputs, strategy=STRATEGY)
        else:
            with tracer.installed(), tracer.span(ROOT_SPAN):
                result = run_pipeline(inputs, strategy=STRATEGY)
    except Exception as exc:  # a run that raises counts as failed
        return perf_counter() - t0, None, [f"raised {type(exc).__name__}: {exc}"]
    elapsed = perf_counter() - t0
    return elapsed, result.report, gate.check(result)


class Runs:
    """Samples, first report and gate failures of one process's calls."""

    def __init__(self, inputs, gate: Gate):
        self.inputs, self.gate = inputs, gate
        self.untraced: list[float] = []
        self.traced: list[float] = []
        self.problems: list[str] = []
        self.failed = 0
        self.report = None

    def call(self, tracer: Tracer | None = None) -> None:
        seconds, report, found = timed_run(self.inputs, self.gate, tracer)
        (self.untraced if tracer is None else self.traced).append(seconds)
        self.problems += found
        self.failed += bool(found)
        self.report = self.report or report


def loaded_files(manifest_path: Path) -> list[Path]:
    """The files ``load_inputs`` reads for this manifest."""
    m = load_manifest(manifest_path)
    return [m.base, *m.sessions, *m.tests, m.attributes, m.semantic]


def per_layer(setup: Summary, run: Summary, runs: int, input_mb: float,
              floor_ms: float, step_gflop: float, overhead: float) -> dict:
    """Per-layer metrics, per run_pipeline call; name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def per_run(value):
        return value / runs

    put("data.load_features.total_s", setup.total["data.load_features"], "s")
    put("data.load_features.rows", setup.fields["data.load_features.rows"], "count")
    put("data.input_mb", input_mb, "MB")
    put("attributes.load_semantic_embeddings.total_s",
        setup.total["attributes.load_semantic_embeddings"], "s")

    meta, proj = "calibration.meta_train", "projector.train_projector"
    for layer in (meta, proj):
        put(f"{layer}.total_s", per_run(run.total[layer]), "s")
        put(f"{layer}.self_s", per_run(run.self_s[layer]), "s")
        put(f"{layer}.tape_forward_s", per_run(run.child[(layer, FORWARD)]), "s")
        put(f"{layer}.tape_backward_s", per_run(run.child[(layer, BACKWARD)]), "s")
        put(f"{layer}.tape_nodes", per_run(run.nodes.get(layer, 0)), "count")
    put(f"{meta}.episodes", per_run(run.child_calls[(meta, BACKWARD)]), "count")
    put(f"{proj}.tapes_built", per_run(run.tapes.get(proj, 0)), "count")
    for name in ("calibration.calibrate", "projector.project",
                 "augment.sample_augmented", "rng.gaussian",
                 "structure.nearest_optimal_structure", "linalg.svd_compact"):
        put(f"{name}.calls", per_run(run.calls[name]), "count")
        put(f"{name}.total_s", per_run(run.total[name]), "s")
    for name in ("attributes.build_knowledge", "structure.initial_structure",
                 "session.evaluate_session", "metrics.ncm_classify",
                 "metrics.similarity_stats"):
        put(f"{name}.total_s", per_run(run.total[name]), "s")
    for name in ("session.run_base_session", "session.run_incremental_session"):
        put(f"{name}.self_s", per_run(run.self_s[name]), "s")

    put("autodiff.Tape.forward.calls", per_run(run.calls[FORWARD]), "count")
    put("autodiff.Tape.forward.total_s", per_run(run.total[FORWARD]), "s")
    put("autodiff.Tape.backward.calls", per_run(run.calls[BACKWARD]), "count")
    put("autodiff.Tape.backward.total_s", per_run(run.total[BACKWARD]), "s")
    put("autodiff.tapes_built", per_run(sum(run.tapes.values())), "count")
    put("autodiff.nodes_built", per_run(sum(run.nodes.values())), "count")

    steps = run.child_calls[(proj, BACKWARD)]
    # step time: projector training minus the resampling it asks for
    step_s = run.total[proj] - run.child[(proj, "augment.sample_augmented")]
    put("projector.steps", per_run(steps), "count")
    put("projector.step_ms", 1e3 * step_s / steps if steps else 0.0, "ms")
    put("projector.step_floor_ms", floor_ms, "ms")
    put("projector.step_gflop", step_gflop, "GFLOP")
    put("projector.project.rows", per_run(run.fields["projector.project.rows"]), "count")
    put("augment.sample_augmented.rows",
        per_run(run.fields["augment.sample_augmented.rows"]), "count")
    put("rng.gaussian.values", per_run(run.fields["rng.gaussian.values"]), "count")
    put("linalg.svd_compact.max_cols", run.fields["linalg.svd_compact.max_cols"], "count")
    put("structure.rank_deficient",
        per_run(run.fields["structure.nearest_optimal_structure.rank_deficient"]),
        "count")
    put("session.eval_rows", per_run(run.fields["session.evaluate_session.rows"]),
        "count")
    put("trace.coverage", run.coverage(), "ratio")
    put("trace.overhead", overhead, "ratio")
    return out


def _openblas_threads() -> int | None:
    """Thread count OpenBLAS reports, when numpy bundles OpenBLAS."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _openblas_threads(),
                 "env": {v: os.environ.get(v) for v in THREAD_VARS}},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "program_sha256": program_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    manifest_path = ensure_inputs(workload, args.seed)
    config = session_config(workload, args.seed)
    files = input_files(manifest_path)
    env = environment()
    inputs_sha = digest(files)
    gate = Gate(DATA / "reports" / (f"{workload.name}-seed{args.seed}-"
                                    f"{env['program_sha256'][:16]}-"
                                    f"{inputs_sha[:16]}.json"))
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "strategy": STRATEGY, "env": env,
        "gen_config": dataclasses.asdict(gen_config(workload, args.seed)),
        "session_config": dataclasses.asdict(config),
        "inputs_sha256": inputs_sha,
        "input_files": [p.name for p in files],
    }

    if args.trace:
        setup_tracer, run_tracer = Tracer(), Tracer()
        inputs, setup_times = timed_setup(manifest_path, config, setup_tracer)
        runs = Runs(inputs, gate)
        start = perf_counter()
        while not runs.traced or perf_counter() - start < args.seconds:
            runs.call()
            runs.call(run_tracer)
        d_f = inputs.train_sets[0].dim
        d_h = config.d_hidden or d_f
        n = config.total_classes
        flop = floor.step_flop(config.batch_size, d_f, d_h, config.d_g, n)
        floor_ms = floor.measure(config.batch_size, d_f, d_h, config.d_g, n,
                                 args.seed)
        input_mb = sum(p.stat().st_size for p in loaded_files(manifest_path)) / 2 ** 20
        layers = per_layer(Summary(setup_tracer), Summary(run_tracer),
                           len(runs.traced), input_mb, floor_ms, flop / 1e9,
                           median(runs.traced) / median(runs.untraced) - 1.0)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        spans = DATA / f"spans-{workload.name}-seed{args.seed}.jsonl"
        run_tracer.dump(spans)
        record["traced_run_s"] = runs.traced
        record["spans"] = str(spans.relative_to(ROOT))
    else:
        inputs, setup_times = timed_setup(manifest_path, config)
        runs = Runs(inputs, gate)
        start = perf_counter()
        while not runs.untraced or perf_counter() - start < args.seconds:
            runs.call()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "run_s": {"value": median(runs.untraced), "unit": "s"},
            "setup_s": {"value": median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }

    attempted = len(runs.untraced) + len(runs.traced)
    report = runs.report
    record.update({
        "run_s": runs.untraced, "setup_s": setup_times,
        "problems": runs.problems, "fail_rate": runs.failed / attempted,
        "quality": None if report is None else {
            "ahm": report.ahm, "fa": report.fa, "base_acc": report.base_acc,
            "pd": report.pd},
    })
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": runs.failed == 0, "attempted": attempted,
                      "failed": runs.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
