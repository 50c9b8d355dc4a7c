"""Plain SGD with a warmup + cosine learning-rate schedule."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tape


def cosine_lr(step: int, total_steps: int, lr_max: float, warmup_steps: int) -> float:
    """Learning rate at a given step: linear warmup, then cosine decay to 0."""
    if total_steps <= 0:
        return 0.0
    if warmup_steps > 0 and step < warmup_steps:
        return lr_max * (step + 1) / warmup_steps
    span = max(1, total_steps - warmup_steps)
    frac = min(1.0, (step - warmup_steps) / span)
    return lr_max * 0.5 * (1.0 + math.cos(math.pi * frac))


def sgd_step(tape: Tape, grads: dict[str, np.ndarray], lr: float) -> None:
    """In-place SGD update of every tape parameter.

    Raises InvalidInput naming the first parameter that turns non-finite.
    """
    for name, g in grads.items():
        tape.update_param(name, g, lr)
