"""Minimal reverse-mode differentiation tape.

A Tape records a straight-line program over 2-D float64 arrays (plus 0-d
scalars).  Nodes are appended in construction order, which is therefore a
topological order; forward() evaluates every node for a given feed of
inputs, backward() accumulates adjoints in reverse and returns gradients
for the named parameters.  The primitive set is exactly what the
calibration and projector networks need; this is not a general autodiff
library.

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
    if not np.all(np.isfinite(v)):
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


def _expit(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid without overflow: exp only ever sees -|x|."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


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
        if not np.all(np.isfinite(value)):
            raise InvalidInput(f"param {name!r} contains non-finite entries")

    # ---- execution -----------------------------------------------------

    def forward(self, feeds: dict[str, Any] | None = None) -> None:
        """Evaluate all nodes in order; stores values for backward()."""
        feeds = feeds or {}
        for name in self._inputs:
            if name not in feeds and name not in self._defaults:
                raise OrderError(f"missing feed for input {name!r}")
        vals = self._values
        for i, node in enumerate(self._nodes):
            op, args, pay = node.op, node.args, node.payload
            if op == "const":
                vals[i] = pay
            elif op == "input":
                vals[i] = _as_value(feeds[pay], f"input {pay!r}") \
                    if pay in feeds else self._defaults[pay]
            elif op == "param":
                vals[i] = self._param_values[pay]
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
            return np.logaddexp(0.0, a[0])
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
            if np.any(n < 1e-300):
                rows = np.flatnonzero(n.ravel() < 1e-300).tolist()
                raise DegenerateInput(f"l2_normalize: zero-norm row(s) {rows}")
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
        same operations, accumulated in the same order, as a full pass.
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
            want = [needs[a] for a in args]
            ins = [vals[a] for a in args]
            contribs = self._grads(op, ins, vals[i], g, pay, want)
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
            return (g * _expit(ins[0]),)
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
