"""Plain-numpy floor for one projector training step.

The same arithmetic as one ``train_projector`` step -- forward and backward
through normalize -> linear -> softplus -> linear -> normalize, the matching
loss on batch x N logits and the contrastive loss on batch x batch
similarities -- written as straight numpy in float64 with no tape.  Its
time is the floor a tape-free step could reach on the same BLAS.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np


def step_flop(batch: int, d_f: int, d_h: int, d_g: int, n: int) -> int:
    """Multiply-add FLOPs of the matmuls in one forward + backward step.

    Forward: x@W1, h@W2, z@S, z@z^T.  Backward: both weight gradients, the
    hidden and z gradients; the input gradient of the first layer is not
    needed.
    """
    return 2 * batch * (2 * d_f * d_h + 3 * d_h * d_g + 2 * d_g * n
                        + 2 * batch * d_g)


def projector_step(x, w1, b1, w2, b2, cols, onehot, pos, inv_pos, allow, tau):
    """Loss and parameter gradients of one step; arrays as in ``measure``."""
    b = x.shape[0]
    xn = x / np.linalg.norm(x, axis=1, keepdims=True)
    a1 = xn @ w1 + b1
    h = np.logaddexp(0.0, a1)
    a2 = h @ w2 + b2
    n2 = np.linalg.norm(a2, axis=1, keepdims=True)
    z = a2 / n2

    logits = z @ cols
    shifted = logits - logits.max(axis=1, keepdims=True)
    expl = np.exp(shifted)
    sum_l = expl.sum(axis=1, keepdims=True)
    match = -np.sum((shifted - np.log(sum_l)) * onehot) / b

    sims = (z @ z.T) / tau
    e = np.exp(sims) * allow
    denom = e.sum(axis=1)
    per_sample = np.log(denom) - (sims * pos).sum(axis=1) * inv_pos
    loss = match + per_sample.mean()

    g_z = ((expl / sum_l - onehot) / b) @ cols.T
    g_s = (e / denom[:, None] - pos * inv_pos[:, None]) / (b * tau)
    g_z += (g_s + g_s.T) @ z
    g_a2 = (g_z - z * np.sum(g_z * z, axis=1, keepdims=True)) / n2
    g_w2 = h.T @ g_a2
    g_a1 = (g_a2 @ w2.T) / (1.0 + np.exp(-a1))
    g_w1 = xn.T @ g_a1
    return loss, (g_w1, g_a1.sum(axis=0), g_w2, g_a2.sum(axis=0))


def measure(batch: int, d_f: int, d_h: int, d_g: int, n: int, seed: int,
            min_seconds: float = 1.0, min_reps: int = 10) -> float:
    """Median wall time of one step in ms, repeated for ``min_seconds``."""
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((batch, d_f))
    w1 = gen.standard_normal((d_f, d_h)) / np.sqrt(d_f)
    w2 = gen.standard_normal((d_h, d_g)) / np.sqrt(d_h)
    b1, b2 = np.zeros(d_h), np.zeros(d_g)
    cols = gen.standard_normal((d_g, n))
    cols /= np.linalg.norm(cols, axis=0)
    # every class twice or more, so each sample has a positive
    labels = np.arange(batch) % max(1, min(n, batch // 2))
    onehot = np.zeros((batch, n))
    onehot[np.arange(batch), labels] = 1.0
    allow = 1.0 - np.eye(batch)
    pos = (labels[:, None] == labels[None, :]) * allow
    inv_pos = 1.0 / pos.sum(axis=1)
    times = []
    start = perf_counter()
    while len(times) < min_reps or perf_counter() - start < min_seconds:
        t0 = perf_counter()
        projector_step(x, w1, b1, w2, b2, cols, onehot, pos, inv_pos, allow, 0.07)
        times.append(perf_counter() - t0)
    return float(np.median(times)) * 1e3
