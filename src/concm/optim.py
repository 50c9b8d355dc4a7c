"""Plain SGD with a warmup + cosine learning-rate schedule.

``sgd_step`` is the one training step: both trainers are loops of it.
"""

from __future__ import annotations

import math

from .autodiff import Tape
from .errors import InvalidInput, TrainingDiverged


def cosine_lr(step: int, total_steps: int, lr_max: float, warmup_steps: int) -> float:
    """Learning rate at a given step: linear warmup, then cosine decay to 0."""
    if total_steps <= 0:
        return 0.0
    if warmup_steps > 0 and step < warmup_steps:
        return lr_max * (step + 1) / warmup_steps
    span = max(1, total_steps - warmup_steps)
    frac = min(1.0, (step - warmup_steps) / span)
    return lr_max * 0.5 * (1.0 + math.cos(math.pi * frac))


def register_params(tape: Tape, params) -> dict[str, int]:
    """The weights as tape params by field name, held in place."""
    return {n: tape.param(n, value) for n, value in vars(params).items()}


def sgd_step(tape: Tape, loss: int, feeds: dict, lr: float, where: str) -> float:
    """Forward pass on ``feeds``, then an in-place update of every tape
    param by ``lr`` times its gradient; returns the loss.

    A non-finite loss (checked before any update), and an InvalidInput of
    the forward pass or an update, raise TrainingDiverged("<where>:
    <what>"); DegenerateInput passes through.
    """
    try:
        tape.forward(feeds)
        value = float(tape.value(loss))
        if not math.isfinite(value):
            raise InvalidInput(f"loss became {value}")
        # no name holds the gradients: they die in the update
        for name, g in tape.backward(loss).items():
            tape.update_param(name, g, lr)
    except InvalidInput as exc:
        raise TrainingDiverged(f"{where}: {exc}") from exc
    return value
