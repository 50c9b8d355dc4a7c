"""Minimal reverse-mode differentiation tape.

A Tape records a straight-line program over 2-D float64 arrays (plus 0-d
scalars).  Nodes are appended in construction order, which is therefore a
topological order; forward() evaluates every node for a given feed of
inputs, backward() accumulates adjoints in reverse and returns gradients
for the named parameters.  The primitive set is what the calibration and
projector networks need, plus exp, log, sum and log_softmax, from which
the tests compose the reference graphs of the fused losses; this is not a
general autodiff library:

* elementwise: add, sub, mul, scale, exp, log, softplus;
* linear algebra: matmul, transpose, stack (row-wise concatenation);
* reductions: sum, mean;
* row-wise: softmax (optionally masked), log_softmax, l2_normalize;
* fused losses, one node each with a hand-derived backward:
  cross_entropy (the projector's matching loss) and anchored_contrastive
  (its supervised contrastive loss with structure anchors).  Their forward
  keeps the softmax, the masked exponentials and the row denominators that
  the backward reuses, and their mask and weight arguments get no adjoint.

softplus is max(x, 0) + log1p(exp(-|x|)); its backward takes the sigmoid
from the forward value as exp(x - softplus(x)).

Elementwise binary ops support limited broadcasting: equal shapes, a
(1, n) row or (m, 1) column against an (m, n) matrix, or a 0-d scalar
against anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DegenerateInput, InvalidInput, OrderError, ShapeError


def _as_value(x, what: str = "value") -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim not in (0, 2):
        raise ShapeError(f"{what} must be 2-D or scalar, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise InvalidInput(f"{what} contains non-finite entries")
    return v


def _broadcast_ok(sa: tuple, sb: tuple) -> bool:
    if sa == sb or sa == () or sb == ():
        return True
    if len(sa) == 2 and len(sb) == 2:
        return all(a == b or a == 1 or b == 1 for a, b in zip(sa, sb))
    return False


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to the operand's shape."""
    if grad.shape == shape:
        return grad
    if shape == ():
        return np.asarray(grad.sum())
    g = grad
    for axis in range(2):
        if shape[axis] == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j a_ij b_ij for each row i, as a (rows,) vector."""
    return np.einsum("ij,ij->i", a, b)


def _cross_entropy(args: list[np.ndarray], _pay):
    """-mean_i sum_j w_ij log_softmax(logits)_ij, and what its backward
    needs: the softmax and the weights with their row sums."""
    logits, w = args
    if logits.ndim != 2 or w.shape != logits.shape:
        raise ShapeError(f"cross_entropy: weights {w.shape} do not match "
                         f"logits {logits.shape}")
    sh = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(sh)
    s = e.sum(axis=1, keepdims=True)
    w_sum = w.sum(axis=1, keepdims=True)
    picked = _row_dot(sh, w) - (np.log(s) * w_sum).ravel()
    e /= s
    return np.asarray(-picked.mean()), (e, w, w_sum)


def _cross_entropy_grad(saved, g):
    """Adjoint of the logits: (softmax * rowsum(w) - w) / b."""
    sm, w, w_sum = saved
    return ((sm * w_sum - w) * (g / w.shape[0]),)


def _anchored_contrastive(args: list[np.ndarray], tau: float):
    """Mean over samples of log(denominator) - mean positive similarity.

    ``z`` (b, d) are the samples and ``cols`` (d, n_a) the anchor columns;
    similarities are inner products over tau.  Sample i's denominator sums
    exp(sim) over ``allow``[i] and its own anchor ``own``[i]; its positive
    similarities are those under ``pos``[i] and ``own``[i], weighted by
    ``inv_pos``[i] (b, 1).  Keeps for the backward the masked exponentials
    over the row denominators and the weighted positive masks.
    """
    z, cols, allow, pos, own, inv_pos = args
    b = z.shape[0]
    if (z.ndim != 2 or cols.ndim != 2 or cols.shape[0] != z.shape[1]
            or allow.shape != (b, b) or pos.shape != (b, b)
            or own.shape != (b, cols.shape[1]) or inv_pos.shape != (b, 1)):
        raise ShapeError(f"anchored_contrastive: incompatible shapes "
                         f"{[x.shape for x in args]}")
    inv_tau = 1.0 / tau
    sims = (z @ z.T) * inv_tau
    asims = (z @ cols) * inv_tau
    e = np.exp(sims)
    e *= allow
    ea = np.exp(asims)
    ea *= own
    denom = e.sum(axis=1, keepdims=True) + ea.sum(axis=1, keepdims=True)
    pos_w, own_w = pos * inv_pos, own * inv_pos
    per_sample = np.log(denom).ravel() - _row_dot(sims, pos_w) \
        - _row_dot(asims, own_w)
    e /= denom
    ea /= denom
    return np.asarray(per_sample.mean()), (z, cols, e, ea, pos_w, own_w, inv_tau)


def _anchored_contrastive_grad(saved, g):
    """Adjoint of z: ((G + G^T) z + G_a cols^T) / (b tau), where G and G_a
    are the masked exponentials over the row denominator minus the
    weighted positive masks, on the sample and anchor similarities."""
    z, cols, p, pa, pos_w, own_w, inv_tau = saved
    gs = p - pos_w
    gz = (gs + gs.T) @ z + (pa - own_w) @ cols.T
    return (gz * (g * inv_tau / z.shape[0]),)


# fused ops: forward(args, payload) -> (value, saved) and
# backward(saved, g) -> (adjoint of the first arg,); the others get none
_FUSED = {
    "cross_entropy": (_cross_entropy, _cross_entropy_grad),
    "anchored_contrastive": (_anchored_contrastive, _anchored_contrastive_grad),
}


@dataclass
class _Node:
    op: str
    args: tuple[int, ...]
    payload: Any = None


class Tape:
    """Straight-line program with recorded forward values and adjoints."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._values: list[np.ndarray | None] = []
        # what a fused node's forward keeps for its backward
        self._saved: list[Any] = []
        # whether a node depends on some param, i.e. may carry an adjoint
        self._needs_grad: list[bool] = []
        self._params: dict[str, int] = {}
        self._param_values: dict[str, np.ndarray] = {}
        self._inputs: dict[str, int] = {}
        self._defaults: dict[str, np.ndarray] = {}
        self._forward_done = False

    # ---- node constructors -------------------------------------------------

    def _push(self, op: str, args: tuple[int, ...], payload=None) -> int:
        for a in args:
            if not 0 <= a < len(self._nodes):
                raise OrderError(f"node argument {a} does not exist yet")
        self._nodes.append(_Node(op, args, payload))
        self._values.append(None)
        self._saved.append(None)
        self._needs_grad.append(op == "param"
                                or any(self._needs_grad[a] for a in args))
        self._forward_done = False
        return len(self._nodes) - 1

    def constant(self, value) -> int:
        return self._push("const", (), _as_value(value, "constant"))

    def input(self, name: str, default=None) -> int:
        """A value fed to forward() by name; ``default`` is used when the
        feed omits it."""
        if name in self._inputs:
            raise OrderError(f"duplicate input name {name!r}")
        if default is not None:
            self._defaults[name] = _as_value(default, f"input {name!r}")
        nid = self._push("input", (), name)
        self._inputs[name] = nid
        return nid

    def param(self, name: str, value) -> int:
        if name in self._params:
            raise OrderError(f"duplicate parameter name {name!r}")
        nid = self._push("param", (), name)
        self._params[name] = nid
        self._param_values[name] = _as_value(value, f"param {name!r}").copy()
        return nid

    def add(self, a: int, b: int) -> int:
        return self._push("add", (a, b))

    def sub(self, a: int, b: int) -> int:
        return self._push("sub", (a, b))

    def mul(self, a: int, b: int) -> int:
        return self._push("mul", (a, b))

    def matmul(self, a: int, b: int) -> int:
        return self._push("matmul", (a, b))

    def transpose(self, a: int) -> int:
        return self._push("transpose", (a,))

    def softplus(self, a: int) -> int:
        return self._push("softplus", (a,))

    def exp(self, a: int) -> int:
        return self._push("exp", (a,))

    def log(self, a: int) -> int:
        return self._push("log", (a,))

    def softmax(self, a: int, axis: int = 1, mask=None) -> int:
        """Softmax along ``axis``; entries where the boolean ``mask`` is
        False get weight exactly 0.  Every slice must keep one entry."""
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.ndim != 2 or not mask.any(axis=axis).all():
                raise InvalidInput("softmax mask must be 2-D and leave every "
                                   "slice an unmasked entry")
        return self._push("softmax", (a,), (axis, mask))

    def log_softmax(self, a: int, axis: int = 1) -> int:
        return self._push("log_softmax", (a,), axis)

    def l2_normalize(self, a: int, axis: int = 1) -> int:
        return self._push("l2_normalize", (a,), axis)

    def sum(self, a: int, axis: int | None = None) -> int:
        return self._push("sum", (a,), axis)

    def mean(self, a: int, axis: int | None = None) -> int:
        return self._push("mean", (a,), axis)

    def scale(self, a: int, c: float) -> int:
        return self._push("scale", (a,), float(c))

    def stack(self, nodes: list[int]) -> int:
        """Row-wise concatenation of 2-D nodes with equal column counts."""
        return self._push("stack", tuple(nodes))

    def cross_entropy(self, logits: int, weights: int) -> int:
        """Scalar -mean_i sum_j weights_ij log_softmax(logits)_ij.

        With one-hot ``weights`` this is the mean softmax cross-entropy at
        the labels.  Only ``logits`` gets an adjoint: ``weights`` is treated
        as data even when it depends on a parameter.
        """
        return self._push("cross_entropy", (logits, weights))

    def anchored_contrastive(self, z: int, anchor_cols: int, allow: int,
                             pos: int, own: int, inv_pos: int,
                             tau: float) -> int:
        """Scalar supervised contrastive loss of the rows of ``z`` with
        anchor columns: the mean over samples i of

            log(sum_j allow_ij e^{s_ij} + sum_k own_ik e^{a_ik})
                - inv_pos_i (sum_j pos_ij s_ij + sum_k own_ik a_ik),

        where s = z z^T / tau and a = z anchor_cols / tau.  Shapes: z
        (b, d), anchor_cols (d, n_a), allow and pos (b, b), own (b, n_a),
        inv_pos (b, 1).  Only ``z`` gets an adjoint: the anchors, masks and
        weights are treated as data even when they depend on a parameter.
        """
        return self._push("anchored_contrastive",
                          (z, anchor_cols, allow, pos, own, inv_pos), float(tau))

    # ---- parameter access --------------------------------------------------

    def param_names(self) -> list[str]:
        return list(self._params)

    def param_value(self, name: str) -> np.ndarray:
        return self._param_values[name]

    def set_param(self, name: str, value) -> None:
        new = _as_value(value, f"param {name!r}")
        if new.shape != self._param_values[name].shape:
            raise ShapeError(f"param {name!r} shape changed")
        self._param_values[name] = new.copy()
        self._forward_done = False

    def update_param(self, name: str, delta: np.ndarray) -> None:
        """Subtract ``delta`` from a parameter in place.

        Raises InvalidInput naming the parameter if it turns non-finite.
        """
        value = self._param_values[name]
        value -= delta
        self._forward_done = False
        if not np.isfinite(value).all():
            raise InvalidInput(f"param {name!r} contains non-finite entries")

    # ---- execution -----------------------------------------------------

    def forward(self, feeds: dict[str, Any] | None = None) -> None:
        """Evaluate all nodes in order; stores values for backward()."""
        feeds = feeds or {}
        for name in self._inputs:
            if name not in feeds and name not in self._defaults:
                raise OrderError(f"missing feed for input {name!r}")
        vals, saved = self._values, self._saved
        for i, node in enumerate(self._nodes):
            op, args, pay = node.op, node.args, node.payload
            if op == "const":
                vals[i] = pay
            elif op == "input":
                vals[i] = _as_value(feeds[pay], f"input {pay!r}") \
                    if pay in feeds else self._defaults[pay]
            elif op == "param":
                vals[i] = self._param_values[pay]
            elif op in _FUSED:
                vals[i], saved[i] = _FUSED[op][0]([vals[a] for a in args], pay)
            else:
                vals[i] = self._eval(op, [vals[a] for a in args], pay)
        self._forward_done = True

    def _eval(self, op: str, a: list[np.ndarray], pay) -> np.ndarray:
        if op in ("add", "sub", "mul"):
            x, y = a
            if not _broadcast_ok(x.shape, y.shape):
                raise ShapeError(f"{op}: incompatible shapes {x.shape} and {y.shape}")
            return {"add": np.add, "sub": np.subtract, "mul": np.multiply}[op](x, y)
        if op == "matmul":
            x, y = a
            if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[0]:
                raise ShapeError(f"matmul: incompatible shapes {x.shape} and {y.shape}")
            return x @ y
        if op == "transpose":
            return a[0].T
        if op == "softplus":
            x = a[0]
            return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
        if op == "exp":
            return np.exp(a[0])
        if op == "log":
            return np.log(a[0])
        if op == "softmax":
            axis, mask = pay
            x = a[0]
            if mask is not None:
                if mask.shape != x.shape:
                    raise ShapeError(f"softmax: mask shape {mask.shape} != {x.shape}")
                x = np.where(mask, x, -np.inf)
            sh = x - x.max(axis=axis, keepdims=True)
            e = np.exp(sh)
            return e / e.sum(axis=axis, keepdims=True)
        if op == "log_softmax":
            x = a[0]
            sh = x - x.max(axis=pay, keepdims=True)
            return sh - np.log(np.exp(sh).sum(axis=pay, keepdims=True))
        if op == "l2_normalize":
            x = a[0]
            n = np.sqrt((x * x).sum(axis=pay, keepdims=True))
            if (n < 1e-300).any():
                rows = np.flatnonzero(n.ravel() < 1e-300).tolist()
                raise DegenerateInput(f"l2_normalize: zero-norm row(s) {rows}",
                                      rows=rows)
            return x / n
        if op == "sum":
            return np.asarray(a[0].sum()) if pay is None else a[0].sum(axis=pay, keepdims=True)
        if op == "mean":
            return np.asarray(a[0].mean()) if pay is None else a[0].mean(axis=pay, keepdims=True)
        if op == "scale":
            return a[0] * pay
        if op == "stack":
            if any(x.ndim != 2 or x.shape[1] != a[0].shape[1] for x in a):
                raise ShapeError(f"stack: incompatible shapes {[x.shape for x in a]}")
            return np.vstack(a)
        raise ShapeError(f"unknown op {op!r}")  # pragma: no cover

    def value(self, node: int) -> np.ndarray:
        if not self._forward_done:
            raise OrderError("value() before forward()")
        return self._values[node]

    def backward(self, loss: int) -> dict[str, np.ndarray]:
        """Adjoint pass from a scalar loss node; returns parameter gradients.

        Only nodes that depend on some parameter get an adjoint: a
        contribution to a constant, an input, or anything computed from
        those alone is never formed.  The adjoints that are formed use the
        same operations, accumulated in the same order, as a full pass.  A
        node's adjoint is dropped once it has been passed to its arguments,
        so the pass holds the adjoints of one frontier, not of every node.
        """
        if not self._forward_done:
            raise OrderError("backward() before forward()")
        if self._values[loss].shape != ():
            raise ShapeError("loss node must be scalar")
        adj: list[np.ndarray | None] = [None] * len(self._nodes)
        adj[loss] = np.asarray(1.0)
        vals = self._values
        needs = self._needs_grad
        for i in range(loss, -1, -1):
            g = adj[i]
            if g is None:
                continue
            node = self._nodes[i]
            op, args, pay = node.op, node.args, node.payload
            if not args:
                continue
            if op in _FUSED:
                contribs = _FUSED[op][1](self._saved[i], g) \
                    if needs[args[0]] else ()
            else:
                contribs = self._grads(op, [vals[a] for a in args], vals[i],
                                       g, pay, [needs[a] for a in args])
            adj[i] = None  # spent: only a parameter's adjoint is kept
            for a, ga in zip(args, contribs):
                if ga is None:
                    continue
                adj[a] = ga if adj[a] is None else adj[a] + ga
        grads = {}
        for name, nid in self._params.items():
            g = adj[nid]
            grads[name] = np.zeros_like(self._param_values[name]) if g is None else g
        return grads

    def _grads(self, op, ins, out, g, pay, want):
        """Adjoint contributions to each argument; None where ``want`` is
        False.  Unary ops are only reached when their argument is wanted."""
        if op in ("add", "sub", "mul", "matmul"):
            wa, wb = want
            x, y = ins
            if op == "add":
                return (_unbroadcast(g, x.shape) if wa else None,
                        _unbroadcast(g, y.shape) if wb else None)
            if op == "sub":
                return (_unbroadcast(g, x.shape) if wa else None,
                        _unbroadcast(-g, y.shape) if wb else None)
            if op == "mul":
                return (_unbroadcast(g * y, x.shape) if wa else None,
                        _unbroadcast(g * x, y.shape) if wb else None)
            return (g @ y.T if wa else None, x.T @ g if wb else None)
        if op == "transpose":
            return (g.T,)
        if op == "softplus":
            # the sigmoid, from the forward value: e^x / (1 + e^x)
            return (g * np.exp(ins[0] - out),)
        if op == "exp":
            return (g * out,)
        if op == "log":
            return (g / ins[0],)
        if op == "softmax":
            # masked entries have out == 0, so they get no adjoint
            dot = (g * out).sum(axis=pay[0], keepdims=True)
            return (out * (g - dot),)
        if op == "log_softmax":
            sm = np.exp(out)
            return (g - sm * g.sum(axis=pay, keepdims=True),)
        if op == "l2_normalize":
            n = np.sqrt((ins[0] * ins[0]).sum(axis=pay, keepdims=True))
            dot = (g * out).sum(axis=pay, keepdims=True)
            return ((g - out * dot) / n,)
        if op == "sum":
            return (np.broadcast_to(g, ins[0].shape).copy(),)
        if op == "mean":
            count = ins[0].size if pay is None else ins[0].shape[pay]
            return (np.broadcast_to(g / count, ins[0].shape).copy(),)
        if op == "scale":
            return (g * pay,)
        if op == "stack":
            parts = np.split(g, np.cumsum([x.shape[0] for x in ins])[:-1])
            return tuple(p if w else None for p, w in zip(parts, want))
        raise ShapeError(f"unknown op {op!r}")  # pragma: no cover


def grad_check(tape: Tape, feeds: dict[str, Any], loss: int,
               h: float = 1e-5, params: list[str] | None = None) -> float:
    """Max relative error between tape gradients and central differences.

    The relative error for one parameter entry is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-12).
    """
    tape.forward(feeds)
    grads = tape.backward(loss)
    worst = 0.0
    for name in params if params is not None else tape.param_names():
        base = tape.param_value(name).copy()
        analytic = grads[name]
        pert = base.copy()
        for idx in np.ndindex(base.shape):
            pert[idx] = base[idx] + h
            tape.set_param(name, pert)
            tape.forward(feeds)
            lp = float(tape.value(loss))
            pert[idx] = base[idx] - h
            tape.set_param(name, pert)
            tape.forward(feeds)
            lm = float(tape.value(loss))
            pert[idx] = base[idx]
            numeric = (lp - lm) / (2.0 * h)
            a = float(analytic[idx]) if analytic.shape else float(analytic)
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            worst = max(worst, err)
        tape.set_param(name, base)
    tape.forward(feeds)
    return worst
