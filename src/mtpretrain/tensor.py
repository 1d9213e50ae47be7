"""Dense tensors with reverse-mode autodiff, Adam, and the LR schedule.

Everything is numpy under the hood. Training runs in float32; gradient
checking switches the whole stack to float64 via set_default_dtype so
central differences have enough headroom.

Every op records one node on the tape. `linear` (x @ W + b), `layer_norm`,
`gelu`, `softmax`, `dropout`, `cross_entropy`, `vocab_cross_entropy`
(the cross-entropy of logits against a tied vocabulary table, formed a
row chunk at a time and never kept) and `attention` (multi-head scaled
dot-product attention from flat query, key and value rows to flat
context rows, keeping only its probabilities and a boolean dropout
mask) are single nodes, each with a closed-form backward pass; the
arithmetic operators, reshape, transpose, sum, matmul, index_rows and
concat are the primitives between them.

Gradient buffers: a node's first gradient write takes ownership of the
array it is handed instead of copying it into a zeroed buffer. Every
backward therefore hands over either an array it has just allocated, or
the upstream buffer itself when the op only passes it on (add, sub,
reshape, transpose, concat). An upstream buffer passed to two different
parents is copied for the second one. A node drops its own gradient once
its backward has run, so after `backward()` only leaves hold a `.grad`.

Constants get no gradient: an input that neither requires a gradient nor
has parents (dropout masks, regression targets) is skipped, and its
backward term is never computed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import arrayfile

_DEFAULT_DTYPE = np.float32

GELU_COEFF = 0.7978845608028654  # sqrt(2 / pi)
GELU_CUBIC = 0.044715
NORM_EPS = 1e-12       # layer_norm's variance floor and normalize_rows'
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-6
GRADCHECK_STEP = 1e-5  # central-difference step of check_gradients
VOCAB_CHUNK_ROWS = 256  # rows of the logit block vocab_cross_entropy holds


def set_default_dtype(dtype) -> None:
    """Switch the dtype used for newly created tensors ("float32"/"float64")."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported default dtype: {dtype}")
    _DEFAULT_DTYPE = dt.type


def default_dtype():
    return _DEFAULT_DTYPE


class ShapeError(ValueError):
    """Raised when an op receives incompatible shapes."""


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _rows_dot(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Every last-axis row of a dotted with w, keeping that axis. One
    matrix-vector product runs several times faster than a numpy
    reduction along short rows."""
    return (a.reshape(-1, a.shape[-1]) @ w).reshape(a.shape[:-1] + (1,))


def _rows_max(a: np.ndarray) -> np.ndarray:
    """The max over the last axis, keeping it. Taken over the first axis of
    a transposed copy it is an elementwise maximum of whole rows, several
    times faster than numpy's reduction along short rows."""
    rows = np.ascontiguousarray(a.reshape(-1, a.shape[-1]).T)
    return rows.max(axis=0).reshape(a.shape[:-1] + (1,))


def _sum_leading(a: np.ndarray) -> np.ndarray:
    """a summed over every axis but the last, as a vector-matrix product."""
    rows = a.reshape(-1, a.shape[-1])
    return np.ones(rows.shape[0], a.dtype) @ rows


class Tensor:
    """A numpy array plus an optional gradient and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.parents: tuple = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None

    # ------------------------------------------------------------- basics
    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.grad is not None})"

    def _accumulate(self, g: np.ndarray) -> None:
        """Add g into .grad. The first write keeps g itself when it already
        has this tensor's shape and dtype, so g must be an array that no
        other node will write to."""
        if self.grad is not None:
            self.grad += g
        elif (isinstance(g, np.ndarray) and g.shape == self.data.shape
              and g.dtype == self.data.dtype):
            self.grad = g
        else:
            self.grad = np.zeros_like(self.data)
            self.grad += g

    # ----------------------------------------------------------- backward
    def backward(self) -> None:
        """Backpropagate from this scalar, accumulating into .grad buffers."""
        if self.data.ndim != 0:
            raise ShapeError(
                f"backward requires a scalar loss, got shape {self.data.shape}")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones((), dtype=self.data.dtype))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    # ------------------------------------------------------- op plumbing
    @staticmethod
    def _result(data: np.ndarray, parents: Sequence["Tensor"],
                backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        # a plain loop: a generator for any() costs more than the test
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out.parents = tuple(parents)
                out._backward = backward
                return out
        out.requires_grad = False
        out.parents = ()
        out._backward = None
        return out

    @staticmethod
    def _wrap(other, like: "Tensor") -> "Tensor":
        if isinstance(other, Tensor):
            return other
        t = Tensor.__new__(Tensor)
        t.data = np.asarray(other, dtype=like.data.dtype)
        t.grad = None
        t.requires_grad = False
        t.parents = ()
        t._backward = None
        return t

    # ---------------------------------------------------------- arithmetic
    def __add__(self, other):
        other = Tensor._wrap(other, self)
        data = self.data + other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                go = _unbroadcast(g, other.data.shape)
                if go is g and self.requires_grad and other is not self:
                    go = g.copy()
                other._accumulate(go)

        return Tensor._result(data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other):
        other = Tensor._wrap(other, self)
        data = self.data - other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-g, other.data.shape))

        return Tensor._result(data, (self, other), backward)

    def __mul__(self, other):
        other = Tensor._wrap(other, self)
        data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        return Tensor._result(data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self):
        data = -self.data

        def backward(g):
            self._accumulate(-g)

        return Tensor._result(data, (self,), backward)

    def __pow__(self, exponent):
        c = float(exponent)
        data = self.data ** c

        def backward(g):
            self._accumulate(g * c * self.data ** (c - 1.0))

        return Tensor._result(data, (self,), backward)

    # ------------------------------------------------------ elementwise fns
    def log(self):
        data = np.log(self.data)

        def backward(g):
            self._accumulate(g / self.data)

        return Tensor._result(data, (self,), backward)

    def tanh(self):
        data = np.tanh(self.data)

        def backward(g):
            self._accumulate(g * (1.0 - data * data))

        return Tensor._result(data, (self,), backward)

    def clamp(self, lo: float, hi: float):
        data = np.clip(self.data, lo, hi)
        inside = (self.data > lo) & (self.data < hi)

        def backward(g):
            self._accumulate(g * inside)

        return Tensor._result(data, (self,), backward)

    # -------------------------------------------------------- shape movers
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        data = self.data.reshape(shape)

        def backward(g):
            self._accumulate(g.reshape(old))

        return Tensor._result(data, (self,), backward)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inverse = np.argsort(axes)
        data = self.data.transpose(axes)

        def backward(g):
            self._accumulate(g.transpose(inverse))

        return Tensor._result(data, (self,), backward)

    def sum(self, axis=None, keepdims: bool = False):
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(g):
            if axis is None:
                self._accumulate(np.broadcast_to(g, shape).copy())
                return
            if not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                g = np.expand_dims(g, axes)
            self._accumulate(np.broadcast_to(g, shape).copy())

        return Tensor._result(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    def matmul(self, other: "Tensor"):
        other = Tensor._wrap(other, self)
        try:
            data = np.matmul(self.data, other.data)
        except ValueError as exc:
            raise ShapeError(
                f"matmul shapes {self.data.shape} x {other.data.shape}") from exc

        def backward(g):
            a, b = self.data, other.data
            if self.requires_grad:
                ga = np.matmul(g, np.swapaxes(b, -1, -2))
                self._accumulate(_unbroadcast(ga, a.shape))
            if other.requires_grad:
                gb = np.matmul(np.swapaxes(a, -1, -2), g)
                other._accumulate(_unbroadcast(gb, b.shape))

        return Tensor._result(data, (self, other), backward)

    __matmul__ = matmul


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data, name: str = "") -> Tensor:
    """A tensor that takes gradients. Parameters are named by their keys in
    `Model.params` and `Adam`; `name` is ignored, and stays only while
    `perfbench/selftest.py` passes it."""
    return Tensor(data, requires_grad=True)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of zero tensors")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accumulate(piece)

    return Tensor._result(data, tensors, backward)


def index_rows(table: Tensor, indices) -> Tensor:
    """Gather rows: out[..., :] = table[indices[...], :] with scatter-add grad."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError(f"index_rows needs integer indices, got {idx.dtype}")
    data = table.data[idx]

    def backward(g):
        # One 1-D add.at over flat element offsets: the same additions in
        # the same order as a row-wise add.at, several times faster.
        width = table.data[0].size
        flat = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
        # contiguous whatever the table's strides, so the flat view below
        # is the buffer itself
        grad = np.zeros(table.data.shape, dtype=table.data.dtype)
        np.add.at(grad.reshape(-1), flat, g.reshape(-1))
        table._accumulate(grad)

    return Tensor._result(data, (table,), backward)


# ------------------------------------------------------------ fused nodes

def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias over the last axis of x."""
    try:
        data = np.matmul(x.data, weight.data)
    except ValueError as exc:
        raise ShapeError(
            f"linear shapes {x.data.shape} x {weight.data.shape}") from exc
    data += bias.data

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.matmul(g, weight.data.T))
        if weight.requires_grad:
            rows = x.data.reshape(-1, x.data.shape[-1])
            weight._accumulate(np.matmul(rows.T, g.reshape(-1, g.shape[-1])))
        if bias.requires_grad:
            bias._accumulate(_sum_leading(g))

    return Tensor._result(data, (x, weight, bias), backward)


def _class_targets(op: str, targets, n: int, k: int) -> np.ndarray:
    """targets as n integer class ids in [0, k), or a ShapeError naming
    the first one that is not."""
    t = np.asarray(targets)
    if t.ndim != 1 or t.shape[0] != n:
        raise ShapeError(f"{op} targets {t.shape} vs {n} rows")
    if not np.issubdtype(t.dtype, np.integer):
        raise ShapeError(f"{op} targets must be integer class ids, got "
                         f"{t.dtype} {t[:1].tolist()}")
    outside = (t < 0) | (t >= k)
    if outside.any():
        raise ShapeError(f"{op} target {t[outside][0]} outside [0, {k})")
    return t


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood over rows of (N, K) logits.

    The backward pass uses the fused softmax-minus-onehot form rather than
    differentiating through an explicit log-softmax graph.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects 2-d logits, got {logits.data.shape}")
    n = logits.data.shape[0]
    t = _class_targets("cross_entropy", targets, n, logits.data.shape[1])
    rows = np.arange(n)
    expd = logits.data - logits.data.max(axis=1, keepdims=True)
    picked = expd[rows, t]
    np.exp(expd, out=expd)
    denom = expd.sum(axis=1, keepdims=True)
    data = np.asarray((np.log(denom[:, 0]) - picked).mean(),
                      dtype=logits.data.dtype)

    def backward(g):
        probs = expd / denom
        probs[rows, t] -= 1.0
        probs *= g / n
        logits._accumulate(probs)

    return Tensor._result(data, (logits,), backward)


def vocab_cross_entropy(states: Tensor, table: Tensor, bias: Tensor,
                        targets) -> Tensor:
    """cross_entropy(linear(states, table.T, bias), targets) for (n, H)
    states, a (V, H) table and a (V,) bias, with no (n, V) array kept.

    One pass over VOCAB_CHUNK_ROWS rows at a time forms that chunk's
    logits, its loss terms and its logit gradient for an upstream of 1,
    and reduces the gradient at once into those of states, table and
    bias. The backward pass only scales the three by its upstream.
    """
    s, w, b = states.data, table.data, bias.data
    if s.ndim != 2 or w.ndim != 2 or s.shape[1] != w.shape[1] \
            or b.shape != w.shape[:1]:
        raise ShapeError(f"vocab_cross_entropy shapes: states {s.shape}, "
                         f"table {w.shape}, bias {b.shape}")
    n = s.shape[0]
    t = _class_targets("vocab_cross_entropy", targets, n, w.shape[0])
    gs = np.empty(s.shape, s.dtype) if states.requires_grad else None
    gw = np.zeros(w.shape, w.dtype) if table.requires_grad else None
    gb = np.zeros(b.shape, b.dtype) if bias.requires_grad else None
    losses = np.empty(n, s.dtype)
    block = np.empty((min(n, VOCAB_CHUNK_ROWS), w.shape[0]), s.dtype)
    ones = np.ones(w.shape[0], s.dtype)
    for lo in range(0, n, VOCAB_CHUNK_ROWS):
        rows = s[lo:lo + VOCAB_CHUNK_ROWS]
        picks = (np.arange(rows.shape[0]), t[lo:lo + VOCAB_CHUNK_ROWS])
        logits = np.matmul(rows, w.T, out=block[:rows.shape[0]])
        logits += b
        logits -= logits.max(axis=1, keepdims=True)
        picked = logits[picks]
        np.exp(logits, out=logits)
        denom = logits @ ones
        losses[lo:lo + VOCAB_CHUNK_ROWS] = np.log(denom) - picked
        # the logits' gradient: (softmax - onehot) / n
        logits *= (1.0 / (denom * n))[:, None]
        logits[picks] -= 1.0 / n
        if gs is not None:
            np.matmul(logits, w, out=gs[lo:lo + VOCAB_CHUNK_ROWS])
        if gw is not None:
            gw += logits.T @ rows
        if gb is not None:
            gb += _sum_leading(logits)
    data = np.asarray(losses.mean(), dtype=s.dtype)

    def backward(g):
        for x, grad in ((states, gs), (table, gw), (bias, gb)):
            if grad is not None:
                x._accumulate(grad * g)

    return Tensor._result(data, (states, table, bias), backward)


def _softmax(a: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of an array, as a new array."""
    probs = a - _rows_max(a)
    np.exp(probs, out=probs)
    probs /= _rows_dot(probs, np.ones(a.shape[-1], a.dtype))
    return probs


def _softmax_backward(g: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """The gradient at a softmax's input, given the gradient g at its
    output probs: p * (g - sum(g * p)), exactly 0 wherever p underflowed
    to 0."""
    gx = g * probs
    np.subtract(g, _rows_dot(gx, np.ones(probs.shape[-1], probs.dtype)),
                out=gx)
    gx *= probs
    return gx


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    probs = _softmax(x.data)

    def backward(g):
        x._accumulate(_softmax_backward(g, probs))

    return Tensor._result(probs, (x,), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray,
              heads: int, scale: float, p: float,
              rng: "np.random.Generator | None") -> Tensor:
    """Multi-head scaled dot-product attention over flat rows, as one node.

    q holds B*m query rows and k, v hold B*L key and value rows, each H
    wide and split into `heads` heads of H/heads columns; batch row i owns
    query rows [i*m, (i+1)*m) and key rows [i*L, (i+1)*L). bias is the
    (B, L) additive key bias (0 for a real key, a large negative number
    for padding). Returns the (B*m, H) context rows.

    The forward runs the steps of the composed ops in their order: q @ k,
    times scale (cast to the input dtype), plus bias, softmax, inverted
    dropout with a mask drawn from `rng` over the (B, heads, m, L)
    probabilities (none when `rng` is None or p is 0), then probs @ v; the
    backward applies their backward formulas. So values and gradients are
    bit-identical to that chain's, and the same draws are taken. The node
    keeps the probabilities and a boolean keep mask.
    """
    bias = np.asarray(bias, dtype=q.data.dtype)
    qs = q.data.shape
    if not (bias.ndim == len(qs) == 2 and bias.size and heads >= 1
            and qs[1] % heads == 0 and qs[0] % bias.shape[0] == 0
            and k.data.shape == v.data.shape == (bias.size, qs[1])):
        raise ShapeError(f"attention shapes: q {qs}, k {k.data.shape}, v "
                         f"{v.data.shape}, bias {bias.shape}, {heads} heads")
    (b, seq), (rows, h) = bias.shape, qs
    m, d = rows // b, h // heads
    q4 = q.data.reshape(b, m, heads, d).transpose(0, 2, 1, 3)
    k4 = k.data.reshape(b, seq, heads, d).transpose(0, 2, 3, 1)
    v4 = v.data.reshape(b, seq, heads, d).transpose(0, 2, 1, 3)
    scale = np.asarray(scale, dtype=q.data.dtype)
    scores = np.matmul(q4, k4)
    scores *= scale
    scores += bias[:, None, None, :]
    probs = _softmax(scores)
    keep = 1.0 - p
    kept = None if rng is None or p <= 0.0 else rng.random(probs.shape) < keep

    def dropped() -> "tuple[np.ndarray, np.ndarray | None]":
        """The probabilities after dropout, and the scaled keep mask."""
        if kept is None:
            return probs, None
        mask = kept.astype(probs.dtype)
        mask /= keep
        return probs * mask, mask

    ctx = np.matmul(dropped()[0], v4)
    data = ctx.transpose(0, 2, 1, 3).reshape(rows, h)

    def backward(g):
        g4 = g.reshape(b, m, heads, d).transpose(0, 2, 1, 3)
        used, mask = dropped()
        if v.requires_grad:
            gv = np.matmul(np.swapaxes(used, -1, -2), g4)
            v._accumulate(gv.transpose(0, 2, 1, 3).reshape(b * seq, h))
        gs = np.matmul(g4, np.swapaxes(v4, -1, -2))
        if mask is not None:
            gs *= mask
        gs = _softmax_backward(gs, probs)
        gs *= scale
        if q.requires_grad:
            gq = np.matmul(gs, np.swapaxes(k4, -1, -2))
            q._accumulate(gq.transpose(0, 2, 1, 3).reshape(rows, h))
        if k.requires_grad:
            gk = np.matmul(np.swapaxes(q4, -1, -2), gs)
            k._accumulate(gk.transpose(0, 3, 1, 2).reshape(b * seq, h))

    return Tensor._result(data, (q, k, v), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalise over the last axis, then scale by gamma and shift by beta."""
    n = x.data.shape[-1]
    avg = np.full(n, 1.0 / n, x.data.dtype)
    xhat = x.data - _rows_dot(x.data, avg)
    inv = _rows_dot(xhat * xhat, avg)
    inv += NORM_EPS
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    xhat *= inv
    data = xhat * gamma.data
    data += beta.data

    def backward(g):
        g_xhat = g * xhat
        if gamma.requires_grad:
            gamma._accumulate(_sum_leading(g_xhat))
        if beta.requires_grad:
            beta._accumulate(_sum_leading(g))
        if x.requires_grad:
            # inv * (d - mean(d) - xhat * mean(d * xhat)) with d = g * gamma
            scaled = gamma.data / n
            proj = _rows_dot(g_xhat, scaled)
            gx = g * gamma.data
            gx -= _rows_dot(g, scaled)
            np.multiply(xhat, proj, out=g_xhat)
            gx -= g_xhat
            gx *= inv
            x._accumulate(gx)

    return Tensor._result(data, (x, gamma, beta), backward)


def gelu(x: Tensor) -> Tensor:
    """The tanh approximation 0.5 x (1 + tanh(c (x + 0.044715 x^3)))."""
    xd = x.data
    # half = 0.5 (1 + tanh(u)), u = c x (1 + 0.044715 x^2)
    half = np.multiply(xd, xd, out=np.empty_like(xd))
    half *= GELU_CUBIC
    half += 1.0
    half *= xd
    half *= GELU_COEFF
    np.tanh(half, out=half)
    half += 1.0
    half *= 0.5

    def backward(g):
        # half + x * half * (1 - half) * 2c (1 + 3 * 0.044715 x^2)
        d = xd * xd
        d *= 3.0 * GELU_CUBIC
        d += 1.0
        d *= xd
        d *= 2.0 * GELU_COEFF
        d *= half
        d *= 1.0 - half
        d += half
        d *= g
        x._accumulate(d)

    return Tensor._result(xd * half, (x,), backward)


def dropout(x: Tensor, p: float,
            rng: "np.random.Generator | None") -> Tensor:
    """Inverted dropout with masks drawn from `rng`; the identity, drawing
    nothing, when `rng` is None or p is 0."""
    if rng is None or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.data.shape) < keep).astype(x.data.dtype)
    mask /= keep

    def backward(g):
        x._accumulate(g * mask)

    return Tensor._result(x.data * mask, (x,), backward)


def normalize_rows(x: Tensor) -> Tensor:
    sq = (x * x).sum(axis=-1, keepdims=True)
    return x * (sq + NORM_EPS) ** -0.5


def cosine_similarity(u: Tensor, v: Tensor) -> Tensor:
    """Cosine of the angle between matching rows (last axis)."""
    return (normalize_rows(u) * normalize_rows(v)).sum(axis=-1)


# ------------------------------------------------------------------ Adam

DECAY_EXEMPT_SUFFIXES = (".bias", ".gamma", ".beta")


def decays(name: str) -> bool:
    return not name.endswith(DECAY_EXEMPT_SUFFIXES)


class Adam:
    """Adam with L2 decay folded into the gradient (skipped for bias/norm)."""

    def __init__(self, params: "dict[str, Tensor]",
                 weight_decay: float = 0.01):
        self.params = params
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay and decays(name):
                g = g + self.weight_decay * p.data
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def lr_at(tokens_seen: float, total_tokens: float, base_lr: float = 1e-4,
          warmup_frac: float = 0.01) -> float:
    """Linear warmup to base_lr over the first warmup_frac of tokens,
    then linear decay to zero at total_tokens."""
    if total_tokens <= 0:
        raise ValueError("total_tokens must be positive")
    if not 0 <= tokens_seen <= total_tokens:
        raise ValueError(
            f"tokens_seen {tokens_seen} outside [0, {total_tokens}]")
    warmup = warmup_frac * total_tokens
    if warmup > 0 and tokens_seen < warmup:
        return base_lr * tokens_seen / warmup
    if total_tokens == warmup:
        return base_lr
    return base_lr * (total_tokens - tokens_seen) / (total_tokens - warmup)


# --------------------------------------------------------- gradient check

@dataclass
class GradCheckResult:
    max_error: float
    worst_param: str


def check_gradients(loss_fn: Callable[[], Tensor], params: "dict[str, Tensor]",
                    max_entries: Optional[int] = None,
                    rng: Optional[np.random.Generator] = None) -> GradCheckResult:
    """Compare analytic gradients against central finite differences.

    The relative error uses a 1e-4 floor in the denominator so near-zero
    gradient pairs are judged on absolute terms. Requires float64 tensors;
    float32 does not give the differences enough precision to mean anything.
    """
    if max_entries is not None and max_entries < 1:
        raise ValueError(f"gradient check needs at least one entry per "
                         f"parameter, got {max_entries}")
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise ValueError(
                f"gradient check needs float64 parameters ({name} is "
                f"{p.data.dtype}); call set_default_dtype('float64') first")
        p.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in params.items()}
    if rng is None:
        rng = np.random.default_rng(0)
    worst = ("", 0.0)
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if max_entries is not None and n > max_entries:
            idx = rng.choice(n, size=max_entries, replace=False)
        else:
            idx = np.arange(n)
        worst_here = 0.0
        for i in idx:
            saved = flat[i]
            flat[i] = saved + GRADCHECK_STEP
            up = loss_fn().item()
            flat[i] = saved - GRADCHECK_STEP
            down = loss_fn().item()
            flat[i] = saved
            numeric = (up - down) / (2.0 * GRADCHECK_STEP)
            a = analytic[name].reshape(-1)[i]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-4)
            worst_here = max(worst_here, err)
        if worst_here >= worst[1]:
            worst = (name, worst_here)
    return GradCheckResult(max_error=worst[1], worst_param=worst[0])


# ------------------------------------------------------------ checkpoints

CHECKPOINT_MAGIC = b"MTPT"
CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    config: dict
    train_state: dict
    params: "dict[str, np.ndarray]"
    adam_m: "dict[str, np.ndarray]"
    adam_v: "dict[str, np.ndarray]"
    adam_t: int


def save_checkpoint(path, params: "dict[str, Tensor]", optimizer: Adam,
                    config: dict, step: int, tokens_seen: int) -> None:
    """Parameters, then Adam's m and v, as float32 blocks; written
    atomically. A config that is not a dict is refused before anything is
    written, since load_checkpoint would refuse the file."""
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: config must be a dict, got "
                              f"{type(config).__name__}")
    names = list(params)
    header = {"config": config, "params": names, "adam_t": optimizer.t,
              "train_state": {"step": operator.index(step),
                              "tokens_seen": operator.index(tokens_seen)}}
    arrays = [params[k].data for k in names] \
        + [optimizer.m[k] for k in names] + [optimizer.v[k] for k in names]
    arrayfile.write_atomic(path, arrayfile.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header,
        [np.asarray(a, dtype="<f4") for a in arrays]))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; any short or garbled file raises CheckpointError."""
    header, arrays = arrayfile.read(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                    CheckpointError)
    config, state = header.get("config"), header.get("train_state")
    if not (isinstance(config, dict) and isinstance(state, dict)
            and all(type(state.get(k)) is int
                    for k in ("step", "tokens_seen"))):
        raise CheckpointError(
            f"{path}: config and train_state must be objects, and "
            f"train_state must hold integer step and tokens_seen")
    names = header.get("params")
    n = len(names) if isinstance(names, list) else 0
    if not (n and all(isinstance(k, str) for k in names)
            and len(set(names)) == n and len(arrays) == 3 * n
            and all(a.dtype.str == "<f4" and a.shape == arrays[i % n].shape
                    for i, a in enumerate(arrays))
            and type(header.get("adam_t")) is int):
        raise CheckpointError(f"{path}: the parameter list, adam_t or the "
                              f"data blocks are corrupt")
    groups = [dict(zip(names, (a.copy() for a in arrays[g:g + n])))
              for g in range(0, len(arrays), n)]
    return Checkpoint(config, state, *groups, adam_t=header["adam_t"])
