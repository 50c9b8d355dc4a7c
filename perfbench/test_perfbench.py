"""Self-tests of the benchmark: ``python3 -m pytest -q perfbench``.

A renamed or moved program function must fail here rather than silently
zero a layer's metrics.
"""

import dataclasses
import json
from types import SimpleNamespace

import run  # first: pins BLAS threads before numpy loads
import floor
import numpy as np
import pytest
from tracer import TAPE_INIT, TARGETS, Summary, Tracer, lookup
from workloads import ROOT, WORKLOADS, ensure_inputs, session_config

from concm.metrics import report_to_json

SETUP_SPANS = ("data.load_features", "attributes.load_semantic_embeddings")


@pytest.mark.parametrize("module,attr", [t[:2] for t in TARGETS] + [TAPE_INIT])
def test_wrapped_name_exists_at_lookup_site(module, attr):
    assert callable(lookup(module, attr)[2])


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """Traced set-up, one untraced and one traced run of ``small``."""
    workload = WORKLOADS["small"]
    manifest = ensure_inputs(workload, 0)
    config = session_config(workload, 0)
    gate = run.Gate(tmp_path_factory.mktemp("reports") / "report.json")
    setup_tracer, run_tracer = Tracer(), Tracer()
    inputs, _ = run.timed_setup(manifest, config, setup_tracer)
    _, plain, plain_problems = run.timed_run(inputs, gate)
    _, traced, traced_problems = run.timed_run(inputs, gate, run_tracer)
    return {"setup": Summary(setup_tracer), "run": Summary(run_tracer),
            "reports": (plain, traced),
            "problems": plain_problems + traced_problems}


def test_every_wrapped_name_is_called_on_small(small_runs):
    for _, _, name, _ in TARGETS:
        summary = small_runs["setup" if name in SETUP_SPANS else "run"]
        assert summary.calls[name] >= 1, name
    for module, attr, _, _ in TARGETS:
        assert not hasattr(lookup(module, attr)[2], "__wrapped__"), attr
    assert sum(small_runs["run"].tapes.values()) >= 1


def test_traced_report_bytes_equal_untraced(small_runs):
    plain, traced = small_runs["reports"]
    assert small_runs["problems"] == []
    assert report_to_json(traced) == report_to_json(plain)


def test_per_layer_metrics_match_benchmark_json(small_runs):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    emitted = run.per_layer(small_runs["setup"], small_runs["run"], 1, 1.0,
                            1.0, 1.0, 0.0)
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: unit for name, (_, unit) in emitted.items()}
    assert 0.9 < emitted["trace.coverage"][0] <= 1.0


def test_gate_counts_bad_reports(small_runs, tmp_path):
    plain = small_runs["reports"][0]
    reference = tmp_path / "report.json"
    reference.write_text("{}\n")
    assert run.Gate(reference).check(SimpleNamespace(traces=[], report=plain)) \
        == ["report bytes differ from an earlier run of this workload and seed"]
    broken = dataclasses.replace(plain, fa=float("nan"))
    problems = run.Gate(tmp_path / "fresh.json").check(
        SimpleNamespace(traces=[], report=broken))
    assert problems[0] == "fa is nan" and len(problems) == 2


def test_projector_step_floor_gradients():
    gen = np.random.default_rng(1)
    b, d, n = 6, 5, 4
    x = gen.standard_normal((b, d))
    params = [gen.standard_normal((d, d)), gen.standard_normal(d),
              gen.standard_normal((d, d)), gen.standard_normal(d)]
    cols = gen.standard_normal((d, n))
    labels = np.arange(b) % 3
    onehot = np.eye(n)[labels]
    allow = 1.0 - np.eye(b)
    pos = (labels[:, None] == labels[None, :]) * allow
    consts = (cols, onehot, pos, 1.0 / pos.sum(axis=1), allow, 0.5)

    def loss(ps):
        return floor.projector_step(x, *ps, *consts)[0]

    _, grads = floor.projector_step(x, *params, *consts)
    h = 1e-6
    for k, (p, g) in enumerate(zip(params, grads)):
        numeric = np.zeros_like(p)
        for idx in np.ndindex(p.shape):
            up = [q.copy() for q in params]
            down = [q.copy() for q in params]
            up[k][idx] += h
            down[k][idx] -= h
            numeric[idx] = (loss(up) - loss(down)) / (2 * h)
        np.testing.assert_allclose(g, numeric, rtol=1e-5, atol=1e-7)
