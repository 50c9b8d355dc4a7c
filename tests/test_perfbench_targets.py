"""Every program name the benchmark's tracer wraps still exists and is
still called through its lookup site.

``perfbench/tracer.py`` patches functions at the module attribute their
callers look them up by; a name moved away from its lookup site, or a
layer called from another module, would zero that layer's metrics.  This
imports the tracer by path, so the check runs with the program's own tests.
"""

import importlib.util
from pathlib import Path

import pytest

from concm.data import load_manifest
from concm.session import SessionConfig, load_inputs, run_pipeline
from concm.synth import GenConfig, generate_benchmark, write_benchmark

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module,attr",
                         [t[:2] for t in tracer.TARGETS] + [tracer.TAPE_INIT])
def test_traced_name_resolves_to_a_callable(module, attr):
    assert callable(tracer.lookup(module, attr)[2])


def test_every_traced_layer_records_a_span(tmp_path):
    gen = GenConfig(base_classes=4, sessions=1, way=2, shot=2, d_f=8, d_s=6,
                    pool_size=6, attrs_per_class=2, base_samples=6,
                    test_samples=3)
    manifest = write_benchmark(generate_benchmark(gen), tmp_path)
    config = SessionConfig(base_classes=4, sessions=1, way=2, shot=2, d_g=8,
                           batch_size=8, epochs_base=1, epochs_incremental=1,
                           meta_episodes=2, meta_shots=2, n_aug_base=4,
                           n_aug_novel=3)
    recorder = tracer.Tracer()
    with recorder.installed():
        run_pipeline(load_inputs(load_manifest(manifest), config))
    recorded = {span[0] for span in recorder.spans}
    assert sorted({t[2] for t in tracer.TARGETS} - recorded) == []
    assert sum(recorder.tapes.values()) >= 1
