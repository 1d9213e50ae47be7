"""Dense tensors with reverse-mode autodiff, Adam, and the LR schedule.

Everything is numpy under the hood. Training runs in float32; gradient
checking switches the whole stack to float64 via set_default_dtype so
central differences have enough headroom.

Every op records one node on the tape. `linear` (x @ W + b), `layer_norm`,
`gelu`, `softmax`, `dropout`, `cross_entropy`, `vocab_cross_entropy`
(the cross-entropy of logits against a tied vocabulary table, formed
VOCAB_CHUNK_ROWS rows at a time and never kept) and `attention` (multi-head scaled
dot-product attention from flat query, key and value rows to flat
context rows, keeping its inputs, its probabilities and a boolean
dropout mask) are single nodes, each with a closed-form backward pass;
the arithmetic operators, reshape, transpose, sum, matmul, index_rows and
concat are the primitives between them.

Nodes and values: the graph links `Node`s, not `Tensor`s. A tensor holds
its `data` and, exactly when it takes a gradient, its node (a parameter's
leaf node is made with it). The node holds the gradient reaching it, its
parents' nodes, the backward closure, and its value's shape, dtype and a
weak reference, but not the value; so a parameter keeps one array for
its whole life. Each op's closure keeps exactly the arrays its formula
reads (linear its input and weight, gelu its derivative, layer_norm its
normalized input and inverse deviation, dropout its boolean keep mask;
add, sub, reshape, index_rows and concat none of their inputs) and the
nodes it passes gradients to.
So a forward value lives only while a caller or a saving closure holds
it: a residual sum that only layer_norm reads, or a projection output
that only dropout reads, dies as soon as the forward has moved past it.

Gradient buffers: a node's first gradient write takes ownership of the
array it is handed instead of copying it into a zeroed buffer. Every
backward therefore hands over either an array it has just allocated, or
the upstream buffer itself when the op only passes it on (add, sub,
reshape, transpose, concat). An upstream buffer passed to two different
parents is copied for the second one. A node drops its own gradient once
its backward has run, so after `backward()` only leaves (the nodes of
parameters, read and set through `Tensor.grad`) hold a gradient.

Constants get no gradient: a tensor with no node (dropout masks,
regression targets, an op result none of whose inputs took one) is not
a parent, its backward term is never computed, and setting its `.grad`
to anything but None raises ValueError.

Graph lifetime: `backward()` frees the graph as it walks it. Once a
node's backward has run, or no gradient reached it, the walk swaps its
closure for one that raises `FreedGraphError`, empties its parents and
drops its own reference to it. A node's saved arrays (attention
probabilities, layer_norm's normalized input, dropout masks) are thus
gone before the walk reaches the nodes below it, and a loss held after
its backward keeps only its value and an emptied node. A later backward
that reaches a freed node raises rather than add nothing.
`backward(retain_graph=True)` keeps the graph, so that a second root
over a shared forward can run its own backward. Freed activations go
back to glibc's heap. On import this module pins glibc's trim and mmap
thresholds (`mallopt`), so that the freed pages stay in the process for
the next step's forward instead of going back to the kernel and being
faulted in again. On `so-pretrain`
(B=L=32) with the graph freed, a step after the warm-up took ~1,250
minor page faults and 2.5 ms of system time under glibc's dynamic
thresholds; with only the trim threshold pinned ~3,750, with only the
mmap threshold ~1,500 (setting either one stops glibc adjusting the
other), and with both under one. Where `mallopt` cannot be found the pin
does nothing.

Every op that makes a node (the arithmetic operators, log, tanh, clamp,
reshape, transpose, sum, matmul and the module's node functions) is
wrapped by `_op`. Outside `check_gradients` the wrapper tests one
module global and calls the op; inside it, the call goes to the check's
replay, which may hand back the output a recorded forward already made
(see `check_gradients`).
"""

from __future__ import annotations

import ctypes
import functools
import operator
import weakref
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
VOCAB_CHUNK_ROWS = 64  # rows of the logit block vocab_cross_entropy holds
# glibc's mallopt parameters and the values pinned for them: freed heap
# memory is kept up to the trim threshold, and blocks below the mmap
# threshold come from the heap, not from their own mapping
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_TRIM_BYTES = 512 << 20
MALLOC_MMAP_BYTES = 64 << 20


@functools.cache
def _pin_malloc_thresholds() -> bool:
    """Pin glibc's trim and mmap thresholds, once per process; False,
    and nothing done, where the C library has no `mallopt`."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # both: setting one stops glibc's adjustment of the other
    trim = mallopt(M_TRIM_THRESHOLD, MALLOC_TRIM_BYTES)
    mmap = mallopt(M_MMAP_THRESHOLD, MALLOC_MMAP_BYTES)
    return bool(trim and mmap)


_pin_malloc_thresholds()


def set_default_dtype(dtype) -> None:
    """Switch the dtype used for newly created tensors ("float32"/"float64")."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported default dtype: {dtype}")
    _DEFAULT_DTYPE = dt.type


def default_dtype():
    return _DEFAULT_DTYPE


_replay: "Optional[_Replay]" = None   # set only while check_gradients runs


def _op(fn):
    """fn, called through the running gradient check's replay, if any."""
    @functools.wraps(fn)
    def op(*args, **kwargs):
        if _replay is None:
            return fn(*args, **kwargs)
        return _replay.call(fn, args, kwargs)
    return op


class ShapeError(ValueError):
    """Raised when an op receives incompatible shapes."""


class FreedGraphError(RuntimeError):
    """Raised when backward reaches a node whose graph an earlier backward
    has freed."""


def _freed_backward(g: np.ndarray) -> None:
    raise FreedGraphError(
        "backward reached a node whose graph was freed by an earlier "
        "backward; pass retain_graph=True to the earlier call to keep it")


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


_NO_VALUE = np.empty(0)   # a dead value, as `Node.data` reports it


class Node:
    """A taped value's place in the graph, apart from the value itself:
    the gradient reaching it, the nodes of the inputs it passes gradients
    to, its backward closure (None for a leaf), and its value's shape and
    dtype. A leaf stands for a tensor that takes a gradient and has no
    parents (a parameter); it is made with the tensor."""

    __slots__ = ("grad", "parents", "backward", "shape", "dtype", "_value")

    def __init__(self, data, parents: tuple = (),
                 backward: Optional[Callable[[np.ndarray], None]] = None):
        self.grad: Optional[np.ndarray] = None
        self.parents = parents
        self.backward = backward
        self.shape = data.shape
        self.dtype = data.dtype
        # a numpy scalar takes no weak reference, and is a few bytes
        self._value = weakref.ref(data) if isinstance(data, np.ndarray) \
            else None

    @property
    def data(self) -> np.ndarray:
        """The node's value while a caller or a backward closure still
        holds it, else an empty array: the node keeps none of it."""
        value = None if self._value is None else self._value()
        return _NO_VALUE if value is None else value

    def accumulate(self, g: np.ndarray) -> None:
        """Add g into .grad. The first write keeps g itself when it already
        has this node's shape and dtype, so g must be an array that no
        other node will write to."""
        if self.grad is not None:
            self.grad += g
        elif (isinstance(g, np.ndarray) and g.shape == self.shape
              and g.dtype == self.dtype):
            self.grad = g
        else:
            self.grad = np.zeros(self.shape, self.dtype)
            self.grad += g


def _result(data, nodes: Sequence[Optional[Node]],
            backward: Callable[[np.ndarray], None]) -> "Tensor":
    """A tensor holding data, with a node whose backward closure passes
    gradients to `nodes` (each input's `node`) when any of them is not
    None. The closure must hold only the nodes and the arrays its formula
    reads, never a Tensor, so that every other forward value dies with
    the last caller holding it."""
    out = Tensor.__new__(Tensor)
    out.data = data
    # a plain loop: a generator for any() costs more than the test
    for n in nodes:
        if n is not None:
            parents = tuple(nodes) if None not in nodes \
                else tuple([p for p in nodes if p is not None])
            out.node = Node(data, parents, backward)
            return out
    out.node = None
    return out


def _topological_order(root: Node) -> "list[Node]":
    """Every node under root, each after its parents. Its own frame, so
    that no loop variable of the sort holds a node during the walk."""
    order = []
    seen = set()
    stack = [(root, False)]
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
    return order


class Tensor:
    """A numpy array and, when it takes a gradient, its node."""

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.node = Node(self.data) if requires_grad else None

    # ------------------------------------------------------------- basics
    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def grad(self) -> Optional[np.ndarray]:
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, g: Optional[np.ndarray]) -> None:
        if self.node is not None:
            self.node.grad = g
        elif g is not None:
            raise ValueError("a tensor that takes no gradient has no .grad")

    @property
    def parents(self) -> "tuple[Node, ...]":
        """The nodes this tensor's node passes gradients to."""
        return () if self.node is None else self.node.parents

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.grad is not None})"

    # ----------------------------------------------------------- backward
    def backward(self, retain_graph: bool = False) -> None:
        """Backpropagate from this scalar, accumulating into the leaves'
        .grad buffers. Unless retain_graph, each node is freed as soon as
        the walk has passed it."""
        if self.data.ndim != 0:
            raise ShapeError(
                f"backward requires a scalar loss, got shape {self.data.shape}")
        root = self.node
        if root is None:
            return    # a constant: no gradient to pass on
        order = _topological_order(root)
        root.accumulate(np.ones((), dtype=self.data.dtype))
        while order:
            node = order.pop()
            if node.backward is not None:
                if node.grad is not None:
                    node.backward(node.grad)
                    node.grad = None
                if not retain_graph:
                    node.backward = _freed_backward
                    node.parents = ()

    # ------------------------------------------------------- op plumbing
    @staticmethod
    def _wrap(other, like: "Tensor") -> "Tensor":
        if isinstance(other, Tensor):
            return other
        t = Tensor.__new__(Tensor)
        t.data = np.asarray(other, dtype=like.data.dtype)
        t.node = None
        return t

    # ---------------------------------------------------------- arithmetic
    @_op
    def __add__(self, other):
        other = Tensor._wrap(other, self)
        a, b = self.node, other.node

        def backward(g):
            if a is not None:
                a.accumulate(_unbroadcast(g, a.shape))
            if b is not None:
                gb = _unbroadcast(g, b.shape)
                if gb is g and a is not None and b is not a:
                    gb = g.copy()
                b.accumulate(gb)

        return _result(self.data + other.data, (a, b), backward)

    __radd__ = __add__

    @_op
    def __sub__(self, other):
        other = Tensor._wrap(other, self)
        a, b = self.node, other.node

        def backward(g):
            if a is not None:
                a.accumulate(_unbroadcast(g, a.shape))
            if b is not None:
                b.accumulate(_unbroadcast(-g, b.shape))

        return _result(self.data - other.data, (a, b), backward)

    @_op
    def __mul__(self, other):
        other = Tensor._wrap(other, self)
        a, b = self.node, other.node
        # each input's gradient reads the other input
        x = self.data if b is not None else None
        y = other.data if a is not None else None

        def backward(g):
            if a is not None:
                a.accumulate(_unbroadcast(g * y, a.shape))
            if b is not None:
                b.accumulate(_unbroadcast(g * x, b.shape))

        return _result(self.data * other.data, (a, b), backward)

    __rmul__ = __mul__

    @_op
    def __neg__(self):
        a = self.node

        def backward(g):
            a.accumulate(-g)

        return _result(-self.data, (a,), backward)

    @_op
    def __pow__(self, exponent):
        c = float(exponent)
        a, x = self.node, self.data

        def backward(g):
            a.accumulate(g * c * x ** (c - 1.0))

        return _result(x ** c, (a,), backward)

    # ------------------------------------------------------ elementwise fns
    @_op
    def log(self):
        a, x = self.node, self.data

        def backward(g):
            a.accumulate(g / x)

        return _result(np.log(x), (a,), backward)

    @_op
    def tanh(self):
        a = self.node
        data = np.tanh(self.data)

        def backward(g):
            a.accumulate(g * (1.0 - data * data))

        return _result(data, (a,), backward)

    @_op
    def clamp(self, lo: float, hi: float):
        a = self.node
        inside = (self.data > lo) & (self.data < hi)

        def backward(g):
            a.accumulate(g * inside)

        return _result(np.clip(self.data, lo, hi), (a,), backward)

    # -------------------------------------------------------- shape movers
    @_op
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self.node

        def backward(g):
            a.accumulate(g.reshape(a.shape))

        return _result(self.data.reshape(shape), (a,), backward)

    @_op
    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        a = self.node
        inverse = np.argsort(axes)

        def backward(g):
            a.accumulate(g.transpose(inverse))

        return _result(self.data.transpose(axes), (a,), backward)

    @_op
    def sum(self, axis=None, keepdims: bool = False):
        a = self.node

        def backward(g):
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                g = np.expand_dims(g, axes)
            a.accumulate(np.broadcast_to(g, a.shape).copy())

        return _result(self.data.sum(axis=axis, keepdims=keepdims), (a,),
                       backward)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    @_op
    def matmul(self, other: "Tensor"):
        other = Tensor._wrap(other, self)
        try:
            data = np.matmul(self.data, other.data)
        except ValueError as exc:
            raise ShapeError(
                f"matmul shapes {self.data.shape} x {other.data.shape}") from exc
        a, b = self.node, other.node
        # each input's gradient reads the other input
        x = self.data if b is not None else None
        y = other.data if a is not None else None

        def backward(g):
            if a is not None:
                ga = np.matmul(g, np.swapaxes(y, -1, -2))
                a.accumulate(_unbroadcast(ga, a.shape))
            if b is not None:
                gb = np.matmul(np.swapaxes(x, -1, -2), g)
                b.accumulate(_unbroadcast(gb, b.shape))

        return _result(data, (a, b), backward)

    __matmul__ = matmul


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data, name: str = "") -> Tensor:
    """A tensor that takes gradients. Parameters are named by their keys in
    `Model.params` and `Adam`; `name` is ignored, and stays only while
    `perfbench/selftest.py` passes it."""
    return Tensor(data, requires_grad=True)


@_op
def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of zero tensors")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
    nodes = [t.node for t in tensors]

    def backward(g):
        for n, piece in zip(nodes, np.split(g, splits, axis=axis)):
            if n is not None:
                n.accumulate(piece)

    return _result(data, nodes, backward)


@_op
def index_rows(table: Tensor, indices) -> Tensor:
    """Gather rows: out[..., :] = table[indices[...], :] with scatter-add grad."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError(f"index_rows needs integer indices, got {idx.dtype}")
    node = table.node

    def backward(g):
        # contiguous, so the flat view below is the buffer itself
        grad = np.zeros(node.shape, dtype=node.dtype)
        # One 1-D add.at over flat element offsets: the same additions in
        # the same order as a row-wise add.at, several times faster.
        width = grad[0].size
        flat = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
        np.add.at(grad.reshape(-1), flat, g.reshape(-1))
        node.accumulate(grad)

    return _result(table.data[idx], (node,), backward)


# ------------------------------------------------------------ fused nodes

@_op
def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias over the last axis of x."""
    try:
        data = np.matmul(x.data, weight.data)
    except ValueError as exc:
        raise ShapeError(
            f"linear shapes {x.data.shape} x {weight.data.shape}") from exc
    data += bias.data
    nx, nw, nb = x.node, weight.node, bias.node
    # x's gradient reads the weight, the weight's reads x
    rows = x.data.reshape(-1, x.data.shape[-1]) if nw is not None else None
    w = weight.data if nx is not None else None

    def backward(g):
        if nx is not None:
            nx.accumulate(np.matmul(g, w.T))
        if nw is not None:
            nw.accumulate(np.matmul(rows.T, g.reshape(-1, g.shape[-1])))
        if nb is not None:
            nb.accumulate(_sum_leading(g))

    return _result(data, (nx, nw, nb), backward)


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


@_op
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
    node = logits.node

    def backward(g):
        probs = expd / denom
        probs[rows, t] -= 1.0
        probs *= g / n
        node.accumulate(probs)

    return _result(data, (node,), backward)


@_op
def vocab_cross_entropy(states: Tensor, table: Tensor, bias: Tensor,
                        targets) -> Tensor:
    """cross_entropy(linear(states, table.T, bias), targets) for (n, H)
    states, a (V, H) table and a (V,) bias, with no (n, V) array kept.

    One pass over VOCAB_CHUNK_ROWS rows at a time forms that chunk's
    logits, its loss terms and its logit gradient for an upstream of 1,
    and reduces the gradient at once into those of states, table and
    bias. The backward pass only scales the three by its upstream.
    The table's and bias's gradients are sums over the chunks, so once n
    exceeds VOCAB_CHUNK_ROWS the chunk size is part of their bits.
    """
    s, w, b = states.data, table.data, bias.data
    if s.ndim != 2 or w.ndim != 2 or s.shape[1] != w.shape[1] \
            or b.shape != w.shape[:1]:
        raise ShapeError(f"vocab_cross_entropy shapes: states {s.shape}, "
                         f"table {w.shape}, bias {b.shape}")
    n = s.shape[0]
    t = _class_targets("vocab_cross_entropy", targets, n, w.shape[0])
    nodes = states.node, table.node, bias.node
    gs = np.empty(s.shape, s.dtype) if nodes[0] is not None else None
    gw = np.zeros(w.shape, w.dtype) if nodes[1] is not None else None
    gb = np.zeros(b.shape, b.dtype) if nodes[2] is not None else None
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
        for node, grad in zip(nodes, (gs, gw, gb)):
            if node is not None:
                node.accumulate(grad * g)

    return _result(data, nodes, backward)


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


@_op
def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    probs = _softmax(x.data)
    node = x.node

    def backward(g):
        node.accumulate(_softmax_backward(g, probs))

    return _result(probs, (node,), backward)


@_op
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
    nq, nk, nv = q.node, k.node, v.node

    def backward(g):
        g4 = g.reshape(b, m, heads, d).transpose(0, 2, 1, 3)
        used, mask = dropped()
        if nv is not None:
            gv = np.matmul(np.swapaxes(used, -1, -2), g4)
            nv.accumulate(gv.transpose(0, 2, 1, 3).reshape(b * seq, h))
        gs = np.matmul(g4, np.swapaxes(v4, -1, -2))
        if mask is not None:
            gs *= mask
        gs = _softmax_backward(gs, probs)
        gs *= scale
        if nq is not None:
            gq = np.matmul(gs, np.swapaxes(k4, -1, -2))
            nq.accumulate(gq.transpose(0, 2, 1, 3).reshape(rows, h))
        if nk is not None:
            gk = np.matmul(np.swapaxes(q4, -1, -2), gs)
            nk.accumulate(gk.transpose(0, 3, 1, 2).reshape(b * seq, h))

    return _result(data, (nq, nk, nv), backward)


@_op
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
    gd = gamma.data
    data = xhat * gd
    data += beta.data
    nx, ng, nb = x.node, gamma.node, beta.node

    def backward(g):
        g_xhat = g * xhat
        if ng is not None:
            ng.accumulate(_sum_leading(g_xhat))
        if nb is not None:
            nb.accumulate(_sum_leading(g))
        if nx is not None:
            # inv * (d - mean(d) - xhat * mean(d * xhat)) with d = g * gamma
            scaled = gd / n
            proj = _rows_dot(g_xhat, scaled)
            gx = g * gd
            gx -= _rows_dot(g, scaled)
            np.multiply(xhat, proj, out=g_xhat)
            gx -= g_xhat
            gx *= inv
            nx.accumulate(gx)

    return _result(data, (nx, ng, nb), backward)


@_op
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
    node = x.node
    if node is not None:    # the derivative, all the backward reads:
        # half + x * half * (1 - half) * 2c (1 + 3 * 0.044715 x^2)
        d = xd * xd
        d *= 3.0 * GELU_CUBIC
        d += 1.0
        d *= xd
        d *= 2.0 * GELU_COEFF
        d *= half
        d *= 1.0 - half
        d += half

    def backward(g):
        node.accumulate(d * g)

    return _result(xd * half, (node,), backward)


@_op
def dropout(x: Tensor, p: float,
            rng: "np.random.Generator | None") -> Tensor:
    """Inverted dropout with masks drawn from `rng`; the identity, drawing
    nothing, when `rng` is None or p is 0. The node keeps the boolean keep
    mask, and its backward scales it again."""
    if rng is None or p <= 0.0:
        return x
    keep = 1.0 - p
    kept = rng.random(x.data.shape) < keep
    dtype = x.data.dtype
    node = x.node

    def mask() -> np.ndarray:
        scaled = kept.astype(dtype)
        scaled /= keep
        return scaled

    def backward(g):
        node.accumulate(g * mask())

    data = mask()
    data *= x.data
    return _result(data, (node,), backward)


def normalize_rows(x: Tensor) -> Tensor:
    sq = (x * x).sum(axis=-1, keepdims=True)
    return x * (sq + NORM_EPS) ** -0.5


def cosine_similarity(u: Tensor, v: Tensor) -> Tensor:
    """Cosine of the angle between matching rows (last axis)."""
    return (normalize_rows(u) * normalize_rows(v)).sum(axis=-1)


# ------------------------------------------------------------------ Adam

DECAY_EXEMPT_SUFFIXES = ("bias", ".gamma", ".beta")


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
        # a parameter keeps one array for its whole life (its node holds
        # only a weak reference to it): refuse the step before any update
        for name, p in self.params.items():
            if p.node.data is not p.data:
                raise ValueError(f"parameter {name!r}: its array was "
                                 "rebound; fill it in place instead")
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

    Parameters the analytic backward never reached (their `.grad` is still
    None) have an expected gradient of exactly zero, so one joint probe
    stands for all of them: each of their entries moves by
    +-GRADCHECK_STEP * (1 + u), random sign and u in [0, 1) from a
    fixed-seed generator of its own, and one forward must return a loss
    bit-identical to the analytic pass's. The steps differ in size, so a
    read that a uniform shift would not move (a softmax bias) still moves
    the loss. If it moves, or is NaN, every one of them is checked entry
    by entry like the reached parameters. The probe relies on loss_fn
    being deterministic, as the central differences already do. `rng`
    draws each parameter's sampled entries in `params` order, probed ones
    included, so the reached parameters' entries do not depend on the
    probe. Every moved entry is restored from a saved copy, also when
    loss_fn raises.

    The differences are replayed against one recorded forward. After the
    probe, every parameter's node is detached until the check ends
    (restored also when loss_fn raises), so no later forward builds a
    graph, and loss_fn runs once with each op call's arguments and output
    recorded. A difference names the parameter it moves, and its k-th op
    call returns the recording's k-th output, without running the op,
    only if it is the same op with the same keyword names, each tensor
    argument is the recorded object itself (a recorded output, or a
    parameter other than the moved one), each other tensor (a constant
    the loss made) and each array holds the bytes of a copy taken at
    recording, and each other value has the same type and compares
    equal. Any other call runs the op. An op's output is a pure function
    of its arguments, so every difference is bit-identical to a full
    forward, and only the ops the moved entry reaches run again. An op
    that receives an `np.random.Generator` turns the replay off for the
    check, since a skipped draw would shift the stream. The analytic
    gradients are kept as the analytic backward left them, and each
    parameter gets back its own node; an unreached parameter's is 0.
    """
    global _replay
    if max_entries is not None and max_entries < 1:
        raise ValueError(f"gradient check needs at least one entry per "
                         f"parameter, got {max_entries}")
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise ValueError(
                f"gradient check needs float64 parameters ({name} is "
                f"{p.data.dtype}); call set_default_dtype('float64') first")
        p.grad = None
    root = loss_fn()
    base = root.item()
    root.backward()    # backward frees the analytic graph as it walks it
    del root           # and nothing of it is alive at the first difference
    grads = [p.grad for p in params.values()]
    unreached = [p for p in params.values() if p.grad is None]
    probed = bool(unreached) and _loss_ignores(loss_fn, unreached, base)
    if rng is None:
        rng = np.random.default_rng(0)
    nodes = [p.node for p in params.values()]
    try:
        for p in params.values():
            p.node = None
        _replay = replay = _Replay(params.values())
        replay.record(loss_fn)
        worst = ("", 0.0)
        for (name, p), grad in zip(params.items(), grads):
            flat = p.data.reshape(-1)
            n = flat.size
            if max_entries is not None and n > max_entries:
                idx = rng.choice(n, size=max_entries, replace=False)
            else:
                idx = np.arange(n)
            if probed and grad is None:
                idx = ()    # the probe showed the loss does not read it
            replay.moved = p
            worst_here = 0.0
            for i in idx:
                saved = flat[i]
                try:
                    flat[i] = saved + GRADCHECK_STEP
                    up = replay.run(loss_fn)
                    flat[i] = saved - GRADCHECK_STEP
                    down = replay.run(loss_fn)
                finally:
                    flat[i] = saved
                numeric = (up - down) / (2.0 * GRADCHECK_STEP)
                a = 0.0 if grad is None else grad.flat[i]
                err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-4)
                worst_here = max(worst_here, err)
            if worst_here >= worst[1]:
                worst = (name, worst_here)
    finally:
        _replay = None
        for p, node in zip(params.values(), nodes):
            p.node = node
    return GradCheckResult(max_error=worst[1], worst_param=worst[0])


class _Replay:
    """One forward of a gradient check's loss, recorded op call by op
    call, and the finite differences replayed against it (the match rule
    is in `check_gradients`)."""

    def __init__(self, params):
        self.same = {id(p) for p in params}   # matched by identity
        self.ops = []   # (op, keyword names, argument snapshots, output)
        self.recording = True
        self.drew = False   # an op received a Generator
        self.moved = None
        self.k = 0

    def record(self, loss_fn) -> None:
        self.run(loss_fn)
        self.recording = False
        if self.drew:
            self.ops.clear()

    def run(self, loss_fn) -> float:
        self.k = 0
        return loss_fn().item()

    def call(self, fn, args, kwargs):
        k = self.k
        self.k = k + 1
        values = args + tuple(kwargs.values()) if kwargs else args
        if self.recording:
            snaps = [self._snap(v) for v in values]
            out = fn(*args, **kwargs)
            self.ops.append((fn, tuple(kwargs), snaps, out))
            self.same.add(id(out))
            return out
        if k < len(self.ops):
            op, names, snaps, out = self.ops[k]
            if op is fn and names == tuple(kwargs) \
                    and self._matches(values, snaps):
                return out
        return fn(*args, **kwargs)

    def _snap(self, v):
        """What an argument in v's place must match: v itself, matched by
        identity, or a (kind, type, value) tuple."""
        if isinstance(v, Tensor):
            if id(v) in self.same:
                return v
            return "bytes", Tensor, _array_bytes(v.data)
        if isinstance(v, np.ndarray):
            return "bytes", type(v), _array_bytes(v)
        if isinstance(v, (list, tuple)):
            return "seq", type(v), [self._snap(x) for x in v]
        self.drew |= isinstance(v, np.random.Generator)
        return "eq", type(v), v

    def _matches(self, values, snaps) -> bool:
        if len(values) != len(snaps):
            return False
        for v, snap in zip(values, snaps):
            if v is snap:
                if v is self.moved:
                    return False
                continue
            if type(snap) is not tuple or type(v) is not snap[1]:
                return False
            kind, cls, x = snap
            if kind == "bytes":
                same = _array_bytes(v.data if cls is Tensor else v) == x
            elif kind == "seq":
                same = self._matches(v, x)
            else:
                same = bool(v == x)
            if not same:
                return False
        return True


def _array_bytes(a: np.ndarray) -> tuple:
    return a.dtype, a.shape, a.tobytes()


def _loss_ignores(loss_fn: Callable[[], Tensor], params: "list[Tensor]",
                  base: float) -> bool:
    """Whether one forward with every entry of params moved at once, along
    a fixed-seed non-uniform random direction, gives exactly `base`."""
    gen = np.random.default_rng(0)
    saved = [p.data.copy() for p in params]
    try:
        for p in params:
            sign = gen.choice((-1.0, 1.0), size=p.data.shape)
            p.data += sign * GRADCHECK_STEP * (1.0 + gen.random(p.data.shape))
        return loss_fn().item() == base
    finally:
        for p, copy in zip(params, saved):
            p.data[...] = copy


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
