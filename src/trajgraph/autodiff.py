"""Reverse-mode automatic differentiation over float64 numpy arrays.

A :class:`DArray` wraps an ndarray plus an optional gradient buffer. Every
operation records a backward closure on its output, so the tape is rebuilt
on each forward pass. Backward consumes the tape: interior nodes drop their
closure, parents and gradient as it runs them (leaves keep `.grad`), and a
later backward that reaches a consumed node raises ContractError.
All values are float64 throughout, which keeps finite-difference gradient
checks unambiguous at desk scale.

Only the ops the model actually needs are implemented. Broadcasting follows
numpy rules; backward passes sum gradients back over broadcast axes.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ContractError, ShapeError

# Tape recording is toggled per thread, so a no_grad block in one thread
# never stops another thread from recording.
_STATE = threading.local()


def _grad_enabled() -> bool:
    return getattr(_STATE, "grad_enabled", True)


class no_grad:
    """Context manager that disables tape recording (evaluation fast path)."""

    def __enter__(self):
        self._prev = _grad_enabled()
        _STATE.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _STATE.grad_enabled = self._prev
        return False


class DArray:
    """Differentiable float64 array: values plus an optional same-shape grad."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bw")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple = ()
        self._bw = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "DArray":
        """Value-sharing constant; gradients never flow through it."""
        return DArray(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Populate .grad on the tracked leaves reachable from this scalar."""
        if self.data.size != 1:
            raise ContractError("backward requires a scalar loss")
        if not self.requires_grad:
            raise ContractError("loss is not connected to any tracked array")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._bw is _consumed:
                raise ContractError("backward through a tape an earlier backward consumed")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._bw is not None:
                node._bw(node.grad)
                node._bw, node._parents, node.grad = _consumed, (), None

    # Operator sugar; every overload defers to the module-level ops.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, p):
        return power(self, p)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"DArray(shape={self.data.shape}{flag})"


def _consumed(g):   # the closure of a node whose tape a backward has freed
    raise ContractError("backward through a tape an earlier backward consumed")


def _coerce(x) -> DArray:
    return x if isinstance(x, DArray) else DArray(x)


def _track(data: np.ndarray, parents, bw) -> DArray:
    out = DArray(data)
    if _grad_enabled():
        tracked = tuple(p for p in parents if p.requires_grad)
        if tracked:
            out.requires_grad = True
            out._parents = tracked
            out._bw = bw
    return out


def _accum(t: DArray, g: np.ndarray):
    """Accumulate a gradient the caller may still share (view/broadcast)."""
    if t.grad is None:
        if np.shape(g) == t.data.shape:
            t.grad = np.array(g)   # take an owned copy
        else:
            t.grad = np.zeros_like(t.data)
            t.grad += g
    else:
        t.grad += g


def _accum_owned(t: DArray, g: np.ndarray):
    """Accumulate a freshly-allocated full-shape gradient (no copy)."""
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def _accum_view(t: DArray, g: np.ndarray):
    """Accumulate from a single-parent op that may pass a view of its own
    gradient. Aliasing is sound there: the child's gradient is fully
    consumed before the parent's buffer is ever mutated."""
    if t.grad is None:
        if np.shape(g) == t.data.shape:
            t.grad = g
        else:
            t.grad = np.zeros_like(t.data)
            t.grad += g
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> DArray:
    a, b = _coerce(a), _coerce(b)

    def bw(g):
        if a.requires_grad:
            ga = _unbroadcast(g, a.data.shape)
            _accum(a, ga) if ga is g else _accum_owned(a, ga)
        if b.requires_grad:
            gb = _unbroadcast(g, b.data.shape)
            _accum(b, gb) if gb is g else _accum_owned(b, gb)

    return _track(a.data + b.data, (a, b), bw)


def sub(a, b) -> DArray:
    a, b = _coerce(a), _coerce(b)

    def bw(g):
        if a.requires_grad:
            ga = _unbroadcast(g, a.data.shape)
            _accum(a, ga) if ga is g else _accum_owned(a, ga)
        if b.requires_grad:
            _accum_owned(b, _unbroadcast(-g, b.data.shape))

    return _track(a.data - b.data, (a, b), bw)


def mul(a, b) -> DArray:
    a, b = _coerce(a), _coerce(b)

    def bw(g):
        if a.requires_grad:
            _accum_owned(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum_owned(b, _unbroadcast(g * a.data, b.data.shape))

    return _track(a.data * b.data, (a, b), bw)


def div(a, b) -> DArray:
    a, b = _coerce(a), _coerce(b)

    def bw(g):
        if a.requires_grad:
            _accum_owned(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accum_owned(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _track(a.data / b.data, (a, b), bw)


def neg(a) -> DArray:
    a = _coerce(a)

    def bw(g):
        if a.requires_grad:
            _accum_owned(a, -g)

    return _track(-a.data, (a,), bw)


def power(a, p: float) -> DArray:
    a = _coerce(a)
    p = float(p)
    out_data = a.data ** p

    def bw(g):
        if a.requires_grad:
            _accum_owned(a, g * p * a.data ** (p - 1.0))

    return _track(out_data, (a,), bw)


def matmul(a, b) -> DArray:
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul requires arrays of rank >= 2")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}"
        )

    def bw(g):
        if a.requires_grad:
            _accum_owned(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            _accum_owned(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _track(a.data @ b.data, (a, b), bw)


def reduce_sum(a, axis=None, keepdims=False) -> DArray:
    a = _coerce(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if not a.requires_grad:
            return
        # _accum_view broadcasts, so the gradient is never materialized here
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum_view(a, g)

    return _track(out_data, (a,), bw)


def reduce_mean(a, axis=None, keepdims=False) -> DArray:
    a = _coerce(a)
    if axis is None:
        n = a.data.size
    elif isinstance(axis, tuple):
        n = int(np.prod([a.data.shape[i] for i in axis]))
    else:
        n = a.data.shape[axis]
    return mul(reduce_sum(a, axis, keepdims), 1.0 / n)


def reduce_max(a, axis=None, keepdims=False) -> DArray:
    """Max-reduction; subgradient goes to the first argmax (lowest index)."""
    a = _coerce(a)
    out_data = a.data.max(axis=axis, keepdims=keepdims)

    def bw(g):
        if not a.requires_grad:
            return
        grad = np.zeros_like(a.data)
        if axis is None:
            idx = np.unravel_index(np.argmax(a.data), a.data.shape)
            grad[idx] = float(np.asarray(g).reshape(()))
        else:
            am = np.argmax(a.data, axis=axis)
            gg = g if keepdims else np.expand_dims(g, axis)
            np.put_along_axis(
                grad, np.expand_dims(am, axis), np.asarray(gg, dtype=np.float64), axis
            )
        _accum_owned(a, grad)

    return _track(out_data, (a,), bw)


def reshape(a, shape) -> DArray:
    a = _coerce(a)

    def bw(g):
        if a.requires_grad:
            _accum_view(a, g.reshape(a.data.shape))

    return _track(a.data.reshape(shape), (a,), bw)


def transpose(a, axes) -> DArray:
    a = _coerce(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def bw(g):
        if a.requires_grad:
            _accum_view(a, g.transpose(inv))

    return _track(a.data.transpose(axes), (a,), bw)


def _is_basic_index(idx) -> bool:
    items = idx if isinstance(idx, tuple) else (idx,)
    return all(isinstance(i, (int, np.integer, slice)) or i is Ellipsis
               for i in items)


def take(a, idx) -> DArray:
    a = _coerce(a)
    basic = _is_basic_index(idx)

    def bw(g):
        if a.requires_grad:
            grad = np.zeros_like(a.data)
            if basic:
                grad[idx] += g   # basic indices never repeat elements
            else:
                np.add.at(grad, idx, g)
            _accum_owned(a, grad)

    return _track(a.data[idx], (a,), bw)


def concat(arrays, axis=0) -> DArray:
    arrays = [_coerce(x) for x in arrays]
    sizes = [x.data.shape[axis] for x in arrays]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for x, lo, hi in zip(arrays, offsets[:-1], offsets[1:]):
            if x.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                _accum_view(x, g[tuple(sl)])

    return _track(np.concatenate([x.data for x in arrays], axis=axis), arrays, bw)


def stack(arrays, axis=0) -> DArray:
    arrays = [_coerce(x) for x in arrays]

    def bw(g):
        parts = np.moveaxis(g, axis, 0)
        for x, part in zip(arrays, parts):
            if x.requires_grad:
                _accum_view(x, part)

    return _track(np.stack([x.data for x in arrays], axis=axis), arrays, bw)


def exp(a) -> DArray:
    a = _coerce(a)
    out_data = np.exp(a.data)

    def bw(g):
        if a.requires_grad:
            _accum_owned(a, g * out_data)

    return _track(out_data, (a,), bw)


def log(a) -> DArray:
    a = _coerce(a)

    def bw(g):
        if a.requires_grad:
            _accum_owned(a, g / a.data)

    return _track(np.log(a.data), (a,), bw)


def clamp_min(a, floor: float) -> DArray:
    """max(a, floor) elementwise; gradient passes wherever a >= floor."""
    a = _coerce(a)
    mask = a.data >= floor

    def bw(g):
        if a.requires_grad:
            _accum_owned(a, g * mask)

    return _track(np.maximum(a.data, floor), (a,), bw)


def tanh(a) -> DArray:
    a = _coerce(a)
    out_data = np.tanh(a.data)

    def bw(g):
        if a.requires_grad:
            _accum_owned(a, g * (1.0 - out_data * out_data))

    return _track(out_data, (a,), bw)


def sigmoid(a) -> DArray:
    a = _coerce(a)
    with np.errstate(over="ignore"):
        out_data = 1.0 / (1.0 + np.exp(-a.data))

    def bw(g):
        if a.requires_grad:
            _accum_owned(a, g * out_data * (1.0 - out_data))

    return _track(out_data, (a,), bw)


def relu(a) -> DArray:
    a = _coerce(a)
    mask = a.data > 0

    def bw(g):
        if a.requires_grad:
            _accum_owned(a, g * mask)

    return _track(np.maximum(a.data, 0.0), (a,), bw)


def elu(a) -> DArray:
    """ELU with alpha=1: x for x > 0, exp(x) - 1 otherwise."""
    a = _coerce(a)
    pos = a.data > 0
    out_data = np.where(pos, a.data, np.expm1(np.minimum(a.data, 0.0)))

    def bw(g):
        if a.requires_grad:
            _accum_owned(a, g * np.where(pos, 1.0, out_data + 1.0))

    return _track(out_data, (a,), bw)
