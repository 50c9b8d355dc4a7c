"""Reference graphs for the tests: a Tape with the elementwise ops that
the program does not use (exp, log, log_softmax, sum), and the projector
losses composed from them, against which the fused loss nodes are checked.
"""

import numpy as np

from concm.autodiff import Tape
from concm.projector import _onehot, batch_masks


class ReferenceTape(Tape):
    """Tape plus exp, log, log_softmax and sum, with their backward."""

    def exp(self, a: int) -> int:
        return self._push("exp", (a,))

    def log(self, a: int) -> int:
        return self._push("log", (a,))

    def log_softmax(self, a: int, axis: int = 1) -> int:
        return self._push("log_softmax", (a,), axis)

    def sum(self, a: int, axis: int | None = None) -> int:
        return self._push("sum", (a,), axis)

    def _eval(self, op, a, pay):
        if op == "exp":
            return np.exp(a[0])
        if op == "log":
            return np.log(a[0])
        if op == "log_softmax":
            x = a[0]
            sh = x - x.max(axis=pay, keepdims=True)
            return sh - np.log(np.exp(sh).sum(axis=pay, keepdims=True))
        if op == "sum":
            return np.asarray(a[0].sum()) if pay is None \
                else a[0].sum(axis=pay, keepdims=True)
        return super()._eval(op, a, pay)

    def _grads(self, op, ins, out, g, pay, want):
        if op == "exp":
            return (g * out,)
        if op == "log":
            return (g / ins[0],)
        if op == "log_softmax":
            sm = np.exp(out)
            return (g - sm * g.sum(axis=pay, keepdims=True),)
        if op == "sum":
            return (np.broadcast_to(g, ins[0].shape).copy(),)
        return super()._grads(op, ins, out, g, pay, want)


def composed_matching_loss(tape, z_node, labels, structure):
    """The matching loss as a graph of elementwise tape ops: the reference
    for the fused cross_entropy node.  ``tape`` is a ReferenceTape."""
    logits = tape.matmul(z_node, tape.constant(structure.columns))
    ls = tape.log_softmax(logits, axis=1)
    onehot = tape.constant(_onehot(labels, structure.num_classes))
    picked = tape.sum(tape.mul(ls, onehot), axis=1)
    return tape.scale(tape.mean(picked), -1.0)


def composed_contrastive_loss(tape, z_node, labels, structure, anchored, tau):
    """The contrastive loss as a graph of elementwise tape ops: the
    reference for the fused anchored_contrastive node.  ``tape`` is a
    ReferenceTape."""
    m = {k: tape.constant(v) for k, v in
         batch_masks(labels, structure, anchored).items()}
    # every pair but the sample itself enters the denominator
    allow = tape.constant(1.0 - np.eye(labels.size))
    sims = tape.scale(tape.matmul(z_node, tape.transpose(z_node)), 1.0 / tau)
    denom = tape.sum(tape.mul(tape.exp(sims), allow), axis=1)
    pos_sum = tape.sum(tape.mul(sims, m["pos"]), axis=1)
    asims = tape.scale(tape.matmul(z_node, m["anchor_cols"]), 1.0 / tau)
    denom = tape.add(denom, tape.sum(tape.mul(tape.exp(asims), m["own"]), axis=1))
    pos_sum = tape.add(pos_sum, tape.sum(tape.mul(asims, m["own"]), axis=1))
    per_sample = tape.sub(tape.log(denom), tape.mul(pos_sum, m["inv_pos"]))
    return tape.mean(per_sample)
