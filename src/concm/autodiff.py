"""Minimal reverse-mode differentiation tape.

A Tape records a straight-line program over 2-D float64 arrays (plus 0-d
scalars).  Nodes are appended in construction order, which is therefore a
topological order; forward() evaluates every node for a given feed of
inputs, backward() accumulates adjoints in reverse and returns gradients
for the named parameters.  The primitive set is what the calibration and projector networks need;
this is not a general autodiff library:

* elementwise: add, sub, mul, scale, softplus;
* linear algebra: matmul, transpose, stack (row-wise concatenation);
* reductions: mean (the scalar mean of all entries);
* row-wise: masked softmax, l2_normalize;
* fused losses, one node each with a hand-derived backward:
  cross_entropy (the projector's matching loss) and anchored_contrastive
  (its supervised contrastive loss with structure anchors).  Their forward
  keeps the softmax, the masked exponentials and the row denominators that
  the backward reuses, and their mask and weight arguments get no adjoint.

softplus is max(x, 0) + log1p(exp(-|x|)); its backward takes the sigmoid
from the forward value as exp(x - softplus(x)).

Elementwise binary ops take operands of equal shape, except that add also
takes a (1, n) row as its second operand against an (m, n) matrix: the
bias of a linear layer.  Every other pairing is a ShapeError.

A row is zero-norm when its norm sqrt(sum(x * x)), taken by ``row_norms``,
is < MIN_NORM or +inf; l2_normalize rejects it (DegenerateInput, or
InvalidInput when the row holds a non-finite entry), and ``zero_norm_rows``
applies the same test to feature rows.
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


# rows whose Euclidean norm falls below this have no direction
MIN_NORM = 1e-300


def row_norms(x: np.ndarray) -> np.ndarray:
    """sqrt(sum(x * x)) of each row of the 2-D ``x`` as a (rows, 1) column,
    +inf where the sum overflows: the norm l2_normalize divides by.  The
    squares are formed about _STEP_CHUNK entries (whole rows) at a time."""
    n = np.empty((x.shape[0], 1))
    step = max(1, _STEP_CHUNK // max(1, x.shape[1]))
    with np.errstate(over="ignore"):
        for i in range(0, x.shape[0], step):
            part = x[i:i + step]
            np.sqrt((part * part).sum(axis=1, keepdims=True), out=n[i:i + step])
    return n


def zero_norm_rows(x: np.ndarray) -> np.ndarray:
    """Indices of the rows of the 2-D ``x`` that l2_normalize rejects: a
    ``row_norms`` value < MIN_NORM, which holds exactly when every square
    underflows to 0, or +inf, which holds when some square or the sum
    overflows.  Either way the row has no finite direction."""
    n = row_norms(x)
    return np.flatnonzero((n < MIN_NORM) | (n == np.inf))


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
    exp(sim) over every other sample and its own anchor ``own``[i]; its
    positive similarities are those under ``pos``[i] and ``own``[i],
    weighted by ``inv_pos``[i] (b, 1).  Keeps for the backward the masked
    exponentials over the row denominators and the weighted positive masks.
    """
    z, cols, pos, own, inv_pos = args
    b = z.shape[0]
    if (z.ndim != 2 or cols.ndim != 2 or cols.shape[0] != z.shape[1]
            or pos.shape != (b, b) or own.shape != (b, cols.shape[1])
            or inv_pos.shape != (b, 1)):
        raise ShapeError(f"anchored_contrastive: incompatible shapes "
                         f"{[x.shape for x in args]}")
    inv_tau = 1.0 / tau
    sims = (z @ z.T) * inv_tau
    asims = (z @ cols) * inv_tau
    # row i of ``p``: the similarities to the other samples, then to the
    # anchors, -inf off the denominator (the diagonal and the anchors not
    # marked in ``own``), so exp gives 0 there.  Each row is taken relative
    # to its largest entry, added back after the log: no exp overflows
    p = np.empty((b, b + cols.shape[1]))
    p[:, :b] = sims
    np.fill_diagonal(p, -np.inf)
    p[:, b:] = np.where(own > 0, asims, -np.inf)
    shift = p.max(axis=1, keepdims=True)
    p -= shift
    np.exp(p, out=p)
    denom = p.sum(axis=1, keepdims=True)
    pos_w, own_w = pos * inv_pos, own * inv_pos
    per_sample = (np.log(denom) + shift).ravel() - _row_dot(sims, pos_w) \
        - _row_dot(asims, own_w)
    p /= denom
    return np.asarray(per_sample.mean()), (z, cols, p[:, :b], p[:, b:], pos_w,
                                           own_w, inv_tau)


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


# entries of lr * g that Tape.update_param forms at a time, and of x * x
# that row_norms does: 256 KiB, so the buffer stays in cache and no
# weight-sized (2 MB for a 512 x 512 weight) or file-sized temporary is made
_STEP_CHUNK = 32768


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
        # update_param's lr * g, a chunk at a time; made by the first update
        self._step: np.ndarray | None = None
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
        """A fixed value that never gets an adjoint; a float64 array is
        held as given, not copied."""
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
        """A trainable value; a float64 array is held as given, not copied,
        so ``update_param`` changes the caller's array."""
        if name in self._params:
            raise OrderError(f"duplicate parameter name {name!r}")
        nid = self._push("param", (), name)
        self._params[name] = nid
        self._param_values[name] = _as_value(value, f"param {name!r}")
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

    def softmax(self, a: int, mask) -> int:
        """Row-wise softmax; entries where the boolean ``mask`` is False get
        weight exactly 0.  Every row must keep one entry."""
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2 or not mask.any(axis=1).all():
            raise InvalidInput("softmax mask must be 2-D and leave every "
                               "row an unmasked entry")
        return self._push("softmax", (a,), mask)

    def l2_normalize(self, a: int) -> int:
        return self._push("l2_normalize", (a,))

    def mean(self, a: int) -> int:
        return self._push("mean", (a,))

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

    def anchored_contrastive(self, z: int, anchor_cols: int, pos: int,
                             own: int, inv_pos: int, tau: float) -> int:
        """Scalar supervised contrastive loss of the rows of ``z`` with
        anchor columns: the mean over samples i of

            log(sum_{j != i} e^{s_ij} + sum_k own_ik e^{a_ik})
                - inv_pos_i (sum_j pos_ij s_ij + sum_k own_ik a_ik),

        where s = z z^T / tau and a = z anchor_cols / tau.  Shapes: z
        (b, d), anchor_cols (d, n_a), pos (b, b), own (b, n_a), inv_pos
        (b, 1).  Only ``z`` gets an adjoint: the anchors, masks and weights
        are treated as data even when they depend on a parameter.
        """
        return self._push("anchored_contrastive",
                          (z, anchor_cols, pos, own, inv_pos), float(tau))

    # ---- parameter access --------------------------------------------------

    def param_names(self) -> list[str]:
        return list(self._params)

    def param_value(self, name: str) -> np.ndarray:
        return self._param_values[name]

    def update_param(self, name: str, g: np.ndarray, lr: float) -> None:
        """Subtract ``lr * g`` from a parameter in place.

        The product is formed ``_STEP_CHUNK`` entries at a time in one
        buffer the tape keeps, so an update forms no parameter-sized
        temporary and leaves ``g`` as it was.  Raises InvalidInput naming
        the parameter if it turns non-finite.
        """
        value = self._param_values[name]
        if g.shape != value.shape:
            raise ShapeError(f"gradient of param {name!r} has shape {g.shape}, "
                             f"not {value.shape}")
        if self._step is None:
            self._step = np.empty(_STEP_CHUNK)
        flat, g = value.reshape(-1), g.reshape(-1)
        for start in range(0, flat.size, _STEP_CHUNK):
            part = g[start:start + _STEP_CHUNK]
            flat[start:start + part.size] -= np.multiply(
                lr, part, out=self._step[:part.size])
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
            if x.shape != y.shape and not (op == "add" and x.ndim == 2
                                           and y.shape == (1, x.shape[1])):
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
        if op == "softmax":
            if pay.shape != a[0].shape:
                raise ShapeError(f"softmax: mask shape {pay.shape} != {a[0].shape}")
            x = np.where(pay, a[0], -np.inf)
            sh = x - x.max(axis=1, keepdims=True)
            e = np.exp(sh)
            return e / e.sum(axis=1, keepdims=True)
        if op == "l2_normalize":
            x = a[0]
            n = row_norms(x)
            rows = np.flatnonzero((n < MIN_NORM) | (n == np.inf)).tolist()
            if rows:
                if not np.isfinite(x[rows]).all():
                    raise InvalidInput(f"l2_normalize: non-finite row(s) {rows}")
                raise DegenerateInput(f"l2_normalize: zero-norm row(s) {rows}",
                                      rows=rows)
            return x / n
        if op == "mean":
            return np.asarray(a[0].mean())
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
                # a (1, n) bias row gets the column sums of the adjoint
                gb = g if y.shape == g.shape else g.sum(axis=0, keepdims=True)
                return (g if wa else None, gb if wb else None)
            if op == "sub":
                return (g if wa else None, -g if wb else None)
            if op == "mul":
                return (g * y if wa else None, g * x if wb else None)
            return (g @ y.T if wa else None, x.T @ g if wb else None)
        if op == "transpose":
            return (g.T,)
        if op == "softplus":
            # the sigmoid, from the forward value: e^x / (1 + e^x)
            return (g * np.exp(ins[0] - out),)
        if op == "softmax":
            # masked entries have out == 0, so they get no adjoint
            dot = (g * out).sum(axis=1, keepdims=True)
            return (out * (g - dot),)
        if op == "l2_normalize":
            dot = (g * out).sum(axis=1, keepdims=True)
            return ((g - out * dot) / row_norms(ins[0]),)
        if op == "mean":
            return (np.broadcast_to(g / ins[0].size, ins[0].shape).copy(),)
        if op == "scale":
            return (g * pay,)
        if op == "stack":
            parts = np.split(g, np.cumsum([x.shape[0] for x in ins])[:-1])
            return tuple(p if w else None for p, w in zip(parts, want))
        raise ShapeError(f"unknown op {op!r}")  # pragma: no cover


def grad_check(tape: Tape, feeds: dict[str, Any], loss: int) -> float:
    """Max relative error between tape gradients and central differences.

    The relative error for one parameter entry is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-12).  Each entry
    of a parameter is perturbed in place, in the array the tape holds (the
    caller's own float64 array), and restored.
    """
    h = 1e-5
    tape.forward(feeds)
    grads = tape.backward(loss)
    worst = 0.0
    for name in tape.param_names():
        value = tape.param_value(name)
        analytic = grads[name]
        for idx in np.ndindex(value.shape):
            entry = value[idx]
            value[idx] = entry + h
            tape.forward(feeds)
            lp = float(tape.value(loss))
            value[idx] = entry - h
            tape.forward(feeds)
            lm = float(tape.value(loss))
            value[idx] = entry
            numeric = (lp - lm) / (2.0 * h)
            a = float(analytic[idx])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            worst = max(worst, err)
    tape.forward(feeds)
    return worst
