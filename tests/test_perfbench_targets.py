"""Every program name the benchmark's tracer wraps still exists.

``perfbench/tracer.py`` patches functions at the module attribute their
callers look them up by; a name moved away from its lookup site would
zero that layer's metrics.  This imports the tracer by path, so the check
runs with the program's own tests.
"""

import importlib.util
from pathlib import Path

import pytest

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
