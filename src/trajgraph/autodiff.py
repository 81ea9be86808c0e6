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

Fused nodes record a chain of ops as one tape node with a hand-written
backward, so the tape keeps one array per chain rather than one per op:
`mlp` (a whole multi-layer perceptron, GEMMs, activations and batch norm
included, keeping each layer's post-activation array and batch
statistics; batch norm exists only here), `gru_cell` (one GRU layer step
on the layer's parameters as registered, GEMMs and bias sums included,
keeping its four gate arrays), `category_map` (tanh of each row's own
category map), `tanh_add` (tanh of a broadcast sum, whose
terms may be row gathers) and `mul_sum` (a product summed over one axis).
`segment_sum` adds rows into segments, optionally weighted, through the
sparse incidence matrix that `segments` builds once per index; the
decoder's attention and the encoder's message sum use it. `scatter`
writes an array into a zero array through a view, with one copy. `add`
and `sub` keep no untracked operand: their backward reads only shapes.

The two category nodes take C-stacked weights and biases and an (R,)
category index, and pick each row's own biases themselves. Their forward
still multiplies every row by all C categories' weights and keeps each
row's own (the benchmark counts the decoder's rows that way until its v2,
see ROADMAP); only the own rows stay on the tape. `_affine_grads` is the
one place that adds up a fused node's weight and bias gradients: per
category, on that category's rows only. The GEMMs of `linear` are
`matmul` nodes.
"""

from __future__ import annotations

import threading

import numpy as np
import scipy.sparse

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


def _sum_bw(a: DArray, b: DArray, negate_b: bool):
    """Backward of a + b, or of a - b when `negate_b`. It captures only the
    tracked operands and reads only their shapes, so an untracked constant
    operand leaves the tape with the forward."""
    a = a if a.requires_grad else None
    b = b if b.requires_grad else None

    def bw(g):
        if a is not None:
            ga = _unbroadcast(g, a.data.shape)
            _accum(a, ga) if ga is g else _accum_owned(a, ga)
        if b is not None:
            gb = _unbroadcast(-g if negate_b else g, b.data.shape)
            _accum(b, gb) if gb is g else _accum_owned(b, gb)

    return bw


def add(a, b) -> DArray:
    a, b = _coerce(a), _coerce(b)
    return _track(a.data + b.data, (a, b), _sum_bw(a, b, negate_b=False))


def sub(a, b) -> DArray:
    a, b = _coerce(a), _coerce(b)
    return _track(a.data - b.data, (a, b), _sum_bw(a, b, negate_b=True))


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


def scatter(x, shape, view) -> DArray:
    """The adjoint of a view: a zero array of `shape` that holds x where
    `view(out)` (a view of `out` with x's shape) points, written with one
    copy. Backward reads x's gradient through the same view."""
    x = _coerce(x)
    out_data = np.zeros(shape)
    view(out_data)[...] = x.data

    def bw(g):
        if x.requires_grad:
            _accum_view(x, view(g))

    return _track(out_data, (x,), bw)


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


def segments(index, n: int) -> scipy.sparse.csc_matrix:
    """The (n, E) 0/1 incidence matrix of an (E,) index into n rows: a
    product with it adds up the (E, ...) rows that share an index, the
    adjoint of gathering rows by that index. Its `indices` is the index.
    Built once per index, it serves every `segment_sum` and gathered
    `tanh_add` term over that index."""
    index = np.asarray(index, dtype=np.intp)
    e = len(index)
    return scipy.sparse.csc_matrix((np.ones(e), index, np.arange(e + 1)), shape=(n, e))


def segment_sum(x, seg, weights=None) -> DArray:
    """Row sums by segment, out[s] = sum of weights[e] * x[e] over the rows
    e with seg.indices[e] == s, for an (E,) or (E, F) `x` and an (n, E)
    `seg` from `segments`; an empty segment sums to zero. The weighted
    product is not kept: backward multiplies the gradient by the other
    factor."""
    x = _coerce(x)
    weights = None if weights is None else _coerce(weights)
    index = seg.indices
    w = None if weights is None else weights.data.reshape(
        (-1,) + (1,) * (x.data.ndim - 1))
    out_data = seg @ (x.data if w is None else w * x.data)

    def bw(g):
        ge = g[index]
        if x.requires_grad:
            _accum_owned(x, ge if w is None else ge * w)
        if weights is not None and weights.requires_grad:
            _accum_owned(weights, (ge * x.data).sum(axis=tuple(range(1, ge.ndim))))

    return _track(out_data, (x,) if weights is None else (x, weights), bw)


def tanh_add(*terms) -> DArray:
    """tanh(terms[0] + terms[1] + ...) with numpy broadcasting, summed left
    to right, as one tape node that keeps only its output.

    A term may be a pair (x, seg) of an array and an (n, E) incidence
    matrix from `segments`: it stands for the rows x[seg.indices], which
    are read but never kept and must have the output's shape; backward
    adds their gradient back into x's rows through `seg`.
    """
    pairs = [t if isinstance(t, tuple) else (t, None) for t in terms]
    terms = [_coerce(t) for t, _ in pairs]
    gathers = [seg for _, seg in pairs]
    pre = None
    for t, seg in zip(terms, gathers):
        x = t.data if seg is None else t.data[seg.indices]
        pre = x if pre is None else pre + x
    out_data = np.tanh(pre)

    def bw(g):
        d = g * (1.0 - out_data * out_data)
        for t, seg in zip(terms, gathers):
            if not t.requires_grad:
                continue
            if seg is None:
                gt = _unbroadcast(d, t.data.shape)
                _accum(t, gt) if gt is d else _accum_owned(t, gt)
            else:
                _accum_owned(t, seg @ d)

    return _track(out_data, terms, bw)


def mul_sum(a, b, axis: int) -> DArray:
    """(a * b).sum(axis) with broadcasting, as one tape node that keeps
    no product: backward multiplies the gradient by the other factor."""
    a, b = _coerce(a), _coerce(b)
    out_data = (a.data * b.data).sum(axis=axis)

    def bw(g):
        g = np.expand_dims(g, axis)
        if a.requires_grad:
            _accum_owned(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum_owned(b, _unbroadcast(g * a.data, b.data.shape))

    return _track(out_data, (a, b), bw)


def batch_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and biased variance over every leading axis, (F,)
    each, in the summation order the composed-op batch norm used."""
    axes = tuple(range(x.ndim - 1))
    inv_m = 1.0 / int(np.prod(x.shape[:-1]))
    mean = x.sum(axis=axes) * inv_m
    var = ((x - mean) ** 2.0).sum(axis=axes) * inv_m
    return mean, var


# activation -> (function, its derivative as a function of its output)
ACTIVATIONS = {
    None: (lambda x: x, None),
    "elu": (lambda x: np.where(x > 0, x, np.expm1(np.minimum(x, 0.0))),   # alpha = 1
            lambda y: np.where(y > 0, 1.0, y + 1.0)),
    "relu": (lambda x: np.maximum(x, 0.0), lambda y: y > 0),
    "tanh": (np.tanh, lambda y: 1.0 - y * y),
}


def mlp(x, layers, train: bool) -> DArray:
    """A multi-layer perceptron over x's last axis as one tape node with a
    hand-written backward.

    Each (w, b, act, bn) of `layers` is one layer: a = act(h w + b), one
    2-D GEMM over the flattened leading axes, with act one of
    ACTIVATIONS; then, unless bn is None, the batch norm
    gamma * (a - mean) / (var + eps)**0.5 + beta. bn holds the tracked
    (F,) gamma and beta, the running buffers run_mean and run_var, and
    eps, as `nn.BatchNorm` does. In train mode mean and var are
    `batch_stats(a)`, backward differentiates through them, and the
    running buffers advance in place to 0.9 * running + 0.1 * batch; in
    eval mode they are copies of the running buffers.

    Per layer the node keeps a and, with batch norm, the (F,) mean and
    std. Backward recomputes each normalized array and each normalized
    layer output once, and no GEMM or activation: each activation's
    derivative comes from its output.
    """
    x = _coerce(x)
    lead = x.data.shape[:-1]
    outs, means, stds = [], [], []
    h = x.data
    for w, b, act, bn in layers:
        pre = h.reshape(-1, h.shape[-1]) @ w.data
        pre += b.data
        a = ACTIVATIONS[act][0](pre).reshape(lead + (w.data.shape[-1],))
        outs.append(a)
        if bn is None:
            means.append(None)
            stds.append(None)
            h = a
            continue
        if train:
            mean, var = batch_stats(a)
            bn.run_mean.data[...] = 0.9 * bn.run_mean.data + 0.1 * mean
            bn.run_var.data[...] = 0.9 * bn.run_var.data + 0.1 * var
        else:   # a copy: a later train call advances the buffer in place
            mean, var = bn.run_mean.data.copy(), bn.run_var.data
        std = (var + bn.eps) ** 0.5
        h = bn.gamma.data * ((a - mean) / std) + bn.beta.data
        means.append(mean)
        stds.append(std)

    def bw(g):
        d, xn = g, None   # xn: layer l's normalized output, if recomputed
        for l in range(len(layers) - 1, -1, -1):
            w, b, act, bn = layers[l]
            if bn is not None:
                if xn is None:
                    xn = (outs[l] - means[l]) / stds[l]
                axes = tuple(range(d.ndim - 1))
                if bn.gamma.requires_grad:
                    _accum_owned(bn.gamma, (d * xn).sum(axis=axes))
                if bn.beta.requires_grad:
                    _accum_owned(bn.beta, d.sum(axis=axes))
                d_xn = d * bn.gamma.data
                if train:
                    inv_m = 1.0 / int(np.prod(d.shape[:-1]))
                    d_xn = (d_xn - d_xn.sum(axis=axes) * inv_m
                            - xn * ((d_xn * xn).sum(axis=axes) * inv_m))
                d = d_xn / stds[l]
            if act is not None:
                d = d * ACTIVATIONS[act][1](outs[l])
            d = d.reshape(-1, w.data.shape[-1])
            if b.requires_grad:
                _accum_owned(b, _unbroadcast(d, b.data.shape))
            d = np.ascontiguousarray(d)   # a strided operand can leave numpy's BLAS path
            xn = None
            if l == 0:
                h = x.data
            elif layers[l - 1][3] is None:
                h = outs[l - 1]
            else:   # the layer below's normalized output
                below = layers[l - 1][3]
                xn = (outs[l - 1] - means[l - 1]) / stds[l - 1]
                h = below.gamma.data * xn + below.beta.data
            if w.requires_grad:
                _accum_owned(w, h.reshape(-1, h.shape[-1]).T @ d)
            if l > 0:
                d = (d @ w.data.T).reshape(h.shape)
            elif x.requires_grad:
                _accum_owned(x, (d @ w.data.T).reshape(h.shape))

    params = [p for w, b, _, bn in layers
              for p in ((w, b) if bn is None else (w, b, bn.gamma, bn.beta))]
    return _track(h, [x] + params, bw)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a) -> DArray:
    a = _coerce(a)
    out_data = _sigmoid(a.data)

    def bw(g):
        if a.requires_grad:
            _accum_owned(a, g * out_data * (1.0 - out_data))

    return _track(out_data, (a,), bw)


def _own_rows(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(C, R, F) -> (R, F): row r of category rows[r]."""
    return x[rows, np.arange(len(rows))]


def _affine_grads(x: DArray, w: DArray, b: DArray, g: np.ndarray, rows):
    """Accumulate the gradients of `x`, `w` and `b` through y = x W + b
    given dy = g, or, for C-stacked (C, F, H) weights, (C, H) biases and
    an (R,) category index `rows`, through y[r] = x[r] W[c] + b[c] with
    c = rows[r]: per category present, one GEMM each for dx and dW and one
    row sum for db, on that category's rows only."""
    if rows is None:
        grads = (g @ w.data.T if x.requires_grad else None,
                 x.data.T @ g if w.requires_grad else None,
                 g.sum(axis=0) if b.requires_grad else None)
    else:
        grads = (np.empty(x.data.shape) if x.requires_grad else None,
                 np.zeros_like(w.data) if w.requires_grad else None,
                 np.zeros_like(b.data) if b.requires_grad else None)
        dx, dw, db = grads
        for c in np.unique(rows):
            idx = np.flatnonzero(rows == c)
            gc = g[idx]
            if dx is not None:
                dx[idx] = gc @ w.data[c].T
            if dw is not None:
                dw[c] = x.data[idx].T @ gc
            if db is not None:
                db[c] = gc.sum(axis=0)
    for t, d in zip((x, w, b), grads):
        if d is not None:
            _accum_owned(t, d)


def gru_cell(x, h, w_ih, w_hh, b_ih, b_hh, rows=None) -> DArray:
    """One GRU layer step as one tape node with a hand-written backward.

    The parameters are a `nn.GRUStack` layer's as registered, gate blocks
    (reset r, update z, candidate n) along their last axis: w_ih (F, 3H),
    w_hh (H, 3H), and (3H,) biases b_ih and b_hh. For x (R, F) and state
    h (R, H):

        r = sigmoid(x W_ir + h W_hr + (b_ir + b_hr))
        z = sigmoid(x W_iz + h W_hz + (b_iz + b_hz))
        n = tanh(x W_in + b_in + r * (h W_hn + b_hn))
        h' = (1 - z) * n + z * h

    With `rows`, an (R,) category index, the parameters are C-stacked,
    (C, F, 3H), (C, H, 3H) and (C, 3H), and row r goes through the GRU of
    category rows[r]. The forward runs the six gate GEMMs as untracked
    `matmul` calls, each row against all C categories (the benchmark
    counts the decoder's rows that way until its v2, see ROADMAP), and
    keeps each row's own category and biases. The node keeps r, z, n and
    h W_hn + b_hn, four (R, H) arrays; backward runs `_affine_grads` once
    for the input and once for the hidden side.
    """
    x, h, w_ih, w_hh, b_ih, b_hh = (_coerce(t) for t in (x, h, w_ih, w_hh, b_ih, b_hh))
    if rows is not None:
        rows = np.asarray(rows)
    hd = w_hh.data.shape[-2]
    blocks = (slice(0, hd), slice(hd, 2 * hd), slice(2 * hd, 3 * hd))

    def own(a):
        return a if rows is None else a[rows]

    def gemm(a, w, block):
        out = matmul(a.data, w.data[..., block]).data
        return out if rows is None else _own_rows(out, rows)

    xr, hr, xz, hz, xn, hn = (gemm(a, w, block) for block in blocks
                              for a, w in ((x, w_ih), (h, w_hh)))
    b_rz = own(b_ih.data[..., :2 * hd] + b_hh.data[..., :2 * hd])
    r = _sigmoid(xr + hr + b_rz[..., :hd])
    z = _sigmoid(xz + hz + b_rz[..., hd:])
    hn_b = hn + own(b_hh.data[..., 2 * hd:])
    n = np.tanh(xn + own(b_ih.data[..., 2 * hd:]) + r * hn_b)
    out_data = (1.0 - z) * n + z * h.data

    def bw(g):
        da_n = g * (1.0 - z) * (1.0 - n * n)
        da_r = da_n * hn_b * r * (1.0 - r)
        da_z = g * (h.data - n) * z * (1.0 - z)
        _affine_grads(x, w_ih, b_ih, np.concatenate([da_r, da_z, da_n], axis=-1), rows)
        _affine_grads(h, w_hh, b_hh, np.concatenate([da_r, da_z, da_n * r], axis=-1), rows)
        if h.requires_grad:
            _accum_owned(h, g * z)

    return _track(out_data, (x, h, w_ih, w_hh, b_ih, b_hh), bw)


def category_map(h, w, b, rows) -> DArray:
    """tanh(h W_c + b_c) with each row's own category c = rows[r], as one
    tape node that keeps only its output.

    h is (R, F), and w and b are the C-stacked (C, F, H) weights and
    (C, H) biases. The forward multiplies every row by all C weights and
    keeps each row's own category, as the decoder did before this node;
    backward is `_affine_grads` on each category's rows only.
    """
    h, w, b = _coerce(h), _coerce(w), _coerce(b)
    rows = np.asarray(rows)
    out_data = np.tanh(_own_rows(matmul(h.data, w.data).data, rows) + b.data[rows])

    def bw(g):
        _affine_grads(h, w, b, g * (1.0 - out_data * out_data), rows)

    return _track(out_data, (h, w, b), bw)
