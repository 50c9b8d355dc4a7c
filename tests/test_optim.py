"""``optim.sgd_step`` is the one training step.

It runs the forward pass, rejects a non-finite loss, updates the params in
place and names the failing step.  A guard walks each program module's AST
so that no trainer forks the step again: only ``sgd_step`` updates tape
params, and only it and ``autodiff.grad_check`` run a backward pass.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import concm
from concm.autodiff import Tape
from concm.errors import DegenerateInput, TrainingDiverged
from concm.optim import sgd_step

MODULES = sorted(Path(concm.__file__).parent.glob("*.py"))

# method -> the (module, function) pairs that may call it
ALLOWED_CALLERS = {
    "update_param": {("optim.py", "sgd_step")},
    "backward": {("optim.py", "sgd_step"), ("autodiff.py", "grad_check")},
}


def callers(source: str, method: str) -> list[str]:
    """The qualified name of the function around each ``.<method>(...)``
    call in ``source``, one per call; ``<module>`` outside any function."""
    found = []

    def visit(node, owner, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                visit(child, owner if isinstance(child, ast.ClassDef) else name,
                      name + ".")
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == method):
                found.append(owner)
            visit(child, owner, prefix)

    visit(ast.parse(source), "<module>", "")
    return found


def test_guard_sees_every_caller():
    source = ("t.backward(1)\n"
              "def f(t):\n    return t.backward(0)\n"
              "class C:\n    def g(self, t):\n        t.backward(2)\n"
              "        t.forward()\n")
    assert callers(source, "backward") == ["<module>", "f", "C.g"]


@pytest.mark.parametrize("method", sorted(ALLOWED_CALLERS))
def test_only_the_training_step_updates_or_differentiates(method):
    calls = {(path.name, owner) for path in MODULES
             for owner in callers(path.read_text(encoding="utf-8"), method)}
    assert calls <= ALLOWED_CALLERS[method], calls - ALLOWED_CALLERS[method]


def mean_product_tape():
    """loss = mean(w * x) over a (1, 2) param w and input x."""
    t = Tape()
    w = np.array([[1.0, 2.0]])
    loss = t.mean(t.mul(t.param("w", w), t.input("x")))
    return t, w, loss


def test_sgd_step_returns_the_loss_and_updates_in_place():
    t, w, loss = mean_product_tape()
    x = np.array([[1.0, 3.0]])
    assert sgd_step(t, loss, {"x": x}, 0.5, "step 0") == 3.5
    # the gradient of mean(w * x) is x / 2
    assert w.tolist() == [[0.75, 1.25]]


@pytest.mark.parametrize("x,message", [
    # the mean of two entries near the largest float overflows
    (np.array([[1e308, 1e308]]), r"^step 4: loss became inf$"),
    (np.array([[1.0, np.inf]]), r"^step 4: input 'x' contains non-finite"),
])
def test_sgd_step_names_the_step_and_leaves_params_on_divergence(x, message):
    t, w, loss = mean_product_tape()
    with np.errstate(all="ignore"), \
            pytest.raises(TrainingDiverged, match=message):
        sgd_step(t, loss, {"x": x}, 0.5, "step 4")
    assert w.tolist() == [[1.0, 2.0]]


def test_sgd_step_names_a_param_that_turns_non_finite():
    t, w, loss = mean_product_tape()
    with np.errstate(all="ignore"), \
            pytest.raises(TrainingDiverged,
                          match=r"^episode 2: param 'w' contains non-finite"):
        sgd_step(t, loss, {"x": np.array([[1.0, 3.0]])}, np.inf, "episode 2")


def test_sgd_step_passes_a_degenerate_input_through():
    t = Tape()
    w = np.array([[1.0, 2.0]])
    loss = t.mean(t.mul(t.param("w", w), t.l2_normalize(t.input("x"))))
    with pytest.raises(DegenerateInput):
        sgd_step(t, loss, {"x": np.zeros((1, 2))}, 0.5, "step 0")
    assert w.tolist() == [[1.0, 2.0]]
