"""Reverse-mode automatic differentiation over float64 numpy arrays.

A :class:`DArray` wraps an ndarray plus an optional gradient buffer. Every
operation records a backward closure on its output, so the tape is rebuilt
on each forward pass. Backward consumes the tape: interior nodes drop their
closure, parents and gradient as it runs them (leaves keep `.grad`), and a
later backward that reaches a consumed node raises ContractError.
Every backward adds gradients through `_accum`: each parent gets a fresh
array or a view of the node's own gradient, its first one becomes its
buffer and later ones add in place. No backward hands one array, or two
overlapping views, to two parents (`add` copies g if both operands get it).
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
category map), `graph_attention` (the decoder's whole attention step
over one window's edges, projections, per-target softmax and weighted
sum included, keeping only the (E,) weights alpha). `segment_sum` adds
rows into segments through the sparse incidence matrix that `segments`
builds once per index; the encoder's message sum uses it, and
`graph_attention` gathers and scatters through such matrices. `scatter`
writes an array into a zero array through a view, with one copy. `add`
and `sub` keep no untracked operand: their backward reads only shapes.

The two category nodes take C-stacked weights and biases and an (R,)
category index, and pick each row's own biases themselves. Their forward
still multiplies every row by all C categories' weights and keeps each
row's own (the benchmark counts the decoder's rows that way until its v2,
see ROADMAP); only the own rows stay on the tape. `_affine_grads` is the
one place that adds up their input and bias gradients, per category on
that category's rows only; it hands each weight-gradient term to
`_record`, and `_flush` forms it (see `_record`). The GEMMs of `linear`
are `matmul` nodes.
"""

from __future__ import annotations

import contextlib

import numpy as np
import scipy.sparse

from .errors import ContractError, ShapeError

_grad_enabled = True   # tape recording; `no_grad` switches it off


@contextlib.contextmanager
def no_grad():
    """Disable tape recording (evaluation fast path) process-wide; on exit
    restore the previous setting, so blocks nest."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


class DArray:
    """Differentiable float64 array: values plus an optional same-shape grad."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bw", "_terms")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple = ()
        self._bw = None
        self._terms = None   # a weight's recorded gradient terms, see `_record`

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
        try:
            while topo:
                node = topo.pop()
                if node._terms is not None:   # every use of it has run
                    _flush(node)
                if node._bw is not None:
                    node._bw(node.grad)
                    node._bw, node._parents, node.grad = _consumed, (), None
        finally:   # a closure that raised leaves no recorded term behind
            for node in topo:
                node._terms = None

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

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"DArray(shape={self.data.shape}{flag})"


def _consumed(g):   # the closure of a node whose tape a backward has freed
    raise ContractError("backward through a tape an earlier backward consumed")


def _coerce(x) -> DArray:
    return x if isinstance(x, DArray) else DArray(x)


def _track(data: np.ndarray, parents, bw) -> DArray:
    out = DArray(data)
    if _grad_enabled:
        tracked = tuple(p for p in parents if p.requires_grad)
        if tracked:
            out.requires_grad = True
            out._parents = tracked
            out._bw = bw
    return out


def _accum(t: DArray, g: np.ndarray):
    """Add g into t's gradient: t keeps its first g as its buffer (a zero
    buffer if g broadcasts). g must be fresh or a view of the caller's own
    gradient; never pass one array, or two overlapping views, to two parents."""
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
            _accum(a, _unbroadcast(g, a.data.shape))
        if b is not None:
            gb = _unbroadcast(-g if negate_b else g, b.data.shape)
            if gb is g and a is not None and a is not b and a.data.shape == g.shape:
                gb = g.copy()   # a received g itself
            _accum(b, gb)

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
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _track(a.data * b.data, (a, b), bw)


def div(a, b) -> DArray:
    a, b = _coerce(a), _coerce(b)

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _track(a.data / b.data, (a, b), bw)


def neg(a) -> DArray:
    a = _coerce(a)

    def bw(g):
        if a.requires_grad:
            _accum(a, -g)

    return _track(-a.data, (a,), bw)


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
            _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _track(a.data @ b.data, (a, b), bw)


def reduce_sum(a, axis=None, keepdims=False) -> DArray:
    a = _coerce(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if not a.requires_grad:
            return
        # _accum broadcasts, so the gradient is never materialized here
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, g)

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
        _accum(a, grad)

    return _track(out_data, (a,), bw)


def reshape(a, shape) -> DArray:
    a = _coerce(a)

    def bw(g):
        if a.requires_grad:
            _accum(a, g.reshape(a.data.shape))

    return _track(a.data.reshape(shape), (a,), bw)


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
            _accum(a, grad)

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
                _accum(x, g[tuple(sl)])

    return _track(np.concatenate([x.data for x in arrays], axis=axis), arrays, bw)


def stack(arrays, axis=0) -> DArray:
    arrays = [_coerce(x) for x in arrays]

    def bw(g):
        parts = np.moveaxis(g, axis, 0)
        for x, part in zip(arrays, parts):
            if x.requires_grad:
                _accum(x, part)

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
            _accum(x, view(g))

    return _track(out_data, (x,), bw)


def log(a) -> DArray:
    a = _coerce(a)

    def bw(g):
        if a.requires_grad:
            _accum(a, g / a.data)

    return _track(np.log(a.data), (a,), bw)


def clamp_min(a, floor: float) -> DArray:
    """max(a, floor) elementwise; gradient passes wherever a >= floor."""
    a = _coerce(a)
    mask = a.data >= floor

    def bw(g):
        if a.requires_grad:
            _accum(a, g * mask)

    return _track(np.maximum(a.data, floor), (a,), bw)


def segments(index, n: int) -> scipy.sparse.csc_matrix:
    """The (n, E) 0/1 incidence matrix of an (E,) index into n rows: a
    product with it adds up the (E, ...) rows that share an index, the
    adjoint of gathering rows by that index. Its `indices` is the index.
    Built once per index, it serves every `segment_sum` over that index."""
    index = np.asarray(index, dtype=np.intp)
    e = len(index)
    return scipy.sparse.csc_matrix((np.ones(e), index, np.arange(e + 1)), shape=(n, e))


def segment_sum(x, seg) -> DArray:
    """Row sums by segment, out[s] = sum of x[e] over the rows e with
    seg.indices[e] == s, for an (E,) or (E, F) `x` and an (n, E) `seg`
    from `segments`; an empty segment sums to zero."""
    x = _coerce(x)
    index = seg.indices

    def bw(g):
        if x.requires_grad:
            _accum(x, g[index])

    return _track(seg @ x.data, (x,), bw)


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
                    _accum(bn.gamma, (d * xn).sum(axis=axes))
                if bn.beta.requires_grad:
                    _accum(bn.beta, d.sum(axis=axes))
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
                _accum(b, _unbroadcast(d, b.data.shape))
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
                _accum(w, h.reshape(-1, h.shape[-1]).T @ d)
            if l > 0:
                d = (d @ w.data.T).reshape(h.shape)
            elif x.requires_grad:
                _accum(x, (d @ w.data.T).reshape(h.shape))

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
            _accum(a, g * out_data * (1.0 - out_data))

    return _track(out_data, (a,), bw)


def _own_rows(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(C, R, F) -> (R, F): row r of category rows[r]."""
    return x[rows, np.arange(len(rows))]


def _category_rows(rows: np.ndarray, n: int) -> list[tuple[int, np.ndarray]]:
    """(c, the indices r with rows[r] == c, ascending) for each of the n
    categories that `rows` holds."""
    order = np.argsort(rows, kind="stable")
    groups, lo = [], 0
    for c, hi in enumerate(np.bincount(rows, minlength=n).cumsum().tolist()):
        if hi > lo:
            groups.append((c, order[lo:hi]))
        lo = hi
    return groups


def _affine_grads(x: DArray | None, w: DArray, b: DArray, g: np.ndarray, rows):
    """Accumulate the gradients of `x`, `w` and `b` through y = x W + b
    given dy = g, or, for C-stacked (C, F, H) weights, (C, H) biases and
    an (R,) category index `rows`, through y[r] = x[r] W[c] + b[c] with
    c = rows[r]: per category present, one GEMM for dx and one row sum for
    db, on that category's rows only. W's gradient term is handed to
    `_record`. x None stands for an untracked zero input, which gives W
    nothing."""
    if x is not None and w.requires_grad:
        _record(w, x.data, g, rows)
    x_grad = x is not None and x.requires_grad
    if rows is None:
        grads = (g @ w.data.T if x_grad else None,
                 g.sum(axis=0) if b.requires_grad else None)
    else:
        grads = (np.empty(x.data.shape) if x_grad else None,
                 np.zeros_like(b.data) if b.requires_grad else None)
        dx, db = grads
        for c, idx in _category_rows(rows, w.data.shape[0]):
            gc = g[idx]
            if dx is not None:
                dx[idx] = gc @ w.data[c].T
            if db is not None:
                db[c] = gc.sum(axis=0)
    for t, d in zip((x, b), grads):
        if d is not None:
            _accum(t, d)


def _record(w: DArray, x: np.ndarray, g: np.ndarray, rows):
    """Record one use's weight-gradient term x^T g (per category with
    `rows`) on w for `_flush`, the only code that forms a `gru_cell` or
    `category_map` weight gradient.

    The terms wait on w until `DArray.backward` reaches w in its walk
    (every use has then run) and flushes them as one GEMM per category
    over all recorded rows, or sooner: a term that would take the recorded
    operand bytes past w's own `nbytes` first flushes the earlier ones,
    and a term that alone outweighs w is flushed as soon as it is
    recorded. So the recorded operands stay within w's size, bar a single
    oversize term, and backward still frees the tape as it walks."""
    size = x.nbytes + g.nbytes
    if w._terms is not None and w._terms[0] + size > w.data.nbytes:
        _flush(w)
    if w._terms is None:
        w._terms = [0]   # [recorded bytes, term, ...]
    w._terms[0] += size
    w._terms.append((x, g, rows))
    if size > w.data.nbytes:
        _flush(w)


def _flush(w: DArray):
    """Add the sum of x^T g over w's recorded (x, g, rows) terms into its
    gradient: for C-stacked weights, category c's slice over the rows with
    rows == c. One GEMM per category over all terms' rows, stacked once;
    one term is read as it is."""
    terms, w._terms = w._terms[1:], None
    x, g, rows = terms[0]
    if len(terms) > 1:
        x, g = (np.concatenate([t[i] for t in terms]) for i in (0, 1))
        rows = None if rows is None else np.concatenate([t[2] for t in terms])
        del terms   # the stacked copies replace the recorded operands
    if rows is None:
        _accum(w, x.T @ g)
        return
    dw = np.zeros_like(w.data)
    for c, idx in _category_rows(rows, w.data.shape[0]):
        np.matmul(x[idx].T, g[idx], out=dw[c])
    _accum(w, dw)


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
    for the input and once for the hidden side (weight gradients: see
    `_record`). An untracked all-zero h, a first step's state, is not
    kept: W_hh gets nothing from it.
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
    # an untracked all-zero state (a first step) stays off the tape
    h_kept = h if h.requires_grad or h.data.any() else None

    def bw(g):
        da_n = g * (1.0 - z) * (1.0 - n * n)
        da_r = da_n * hn_b * r * (1.0 - r)
        da_z = g * (-n if h_kept is None else h_kept.data - n) * z * (1.0 - z)
        _affine_grads(x, w_ih, b_ih, np.concatenate([da_r, da_z, da_n], axis=-1), rows)
        _affine_grads(h_kept, w_hh, b_hh, np.concatenate([da_r, da_z, da_n * r], axis=-1), rows)
        if h_kept is not None and h_kept.requires_grad:
            _accum(h_kept, g * z)

    parents = (x, w_ih, b_ih, b_hh) if h_kept is None else (x, h, w_ih, w_hh, b_ih, b_hh)
    return _track(out_data, parents, bw)


def category_map(h, w, b, rows) -> DArray:
    """tanh(h W_c + b_c) with each row's own category c = rows[r], as one
    tape node that keeps only its output.

    h is (R, F), and w and b are the C-stacked (C, F, H) weights and
    (C, H) biases. The forward multiplies every row by all C weights and
    keeps each row's own category, as the decoder did before this node;
    backward is `_affine_grads` on each category's rows only (W's
    gradient: see `_record`).
    """
    h, w, b = _coerce(h), _coerce(w), _coerce(b)
    rows = np.asarray(rows)
    out_data = np.tanh(_own_rows(matmul(h.data, w.data).data, rows) + b.data[rows])

    def bw(g):
        _affine_grads(h, w, b, g * (1.0 - out_data * out_data), rows)

    return _track(out_data, (h, w, b), bw)


def graph_attention(gq, gk, gv, edges, w_q, w_k, w_v, w_1, b_1, scale: float) -> DArray:
    """The decoder's attention message m (R, H) over one window's E
    qualifying edges, as one tape node that keeps only the weights alpha.

    gq, gk and gv are the (R, H) category-mapped rows. `edges` is the
    window's `decoder.WindowEdges`: the (R, E) incidence matrices src and
    tgt (`segments`) of each edge's source and target row, edges sorted by
    target with `starts` and `counts` per target that has one, the sampled
    weights z (E,) and the edge-feature parts qe, ke (E, A) and ve (E, H).
    w_q, w_k and w_v are the node rows of the query, key and first value
    maps, and w_1, b_1 the second value map. Per edge e from s to t:

        q = tanh(gq[s] w_q + qe)            k = tanh(gk[t] w_k + ke)
        num = z exp(q . k / scale - max over t's edges)
        alpha = num / (sum of num over t's edges)
        v = tanh(tanh(gv[s] w_v - gv[t] w_v + ve) w_1 + b_1)
        m[t] = sum of alpha v over t's edges

    A target without an edge gets a zero message. The shift by the
    per-target maximum is a constant and gets no gradient. Backward
    recomputes q, k and the values from the inputs, and scatters into the
    sources and targets through src and tgt.
    """
    gq, gk, gv, w_q, w_k, w_v, w_1, b_1 = (
        _coerce(t) for t in (gq, gk, gv, w_q, w_k, w_v, w_1, b_1))
    src, tgt, z, qe, ke, ve = edges.src, edges.tgt, edges.z, edges.qe, edges.ke, edges.ve
    index = tgt.indices

    def edge_values():
        q = np.tanh((gq.data @ w_q.data)[src.indices] + qe.data)
        k = np.tanh((gk.data @ w_k.data)[index] + ke.data)
        gvh = gv.data @ w_v.data
        v1 = np.tanh(gvh[src.indices] - gvh[index] + ve.data)
        return q, k, v1, np.tanh(v1 @ w_1.data + b_1.data)

    q, k, _, values = edge_values()
    scores = (q * k).sum(axis=-1) / scale
    shift = np.repeat(np.maximum.reduceat(scores, edges.starts), edges.counts)
    num = z.data * np.exp(scores - shift)
    alpha = num / (tgt @ num)[index]
    out_data = tgt @ (alpha[:, None] * values)

    def bw(g):
        q, k, v1, values = edge_values()
        ge = g[index]
        d_alpha = (ge * values).sum(axis=-1)
        d_val = ge * alpha[:, None] * (1.0 - values * values)
        d_v1 = (d_val @ w_1.data.T) * (1.0 - v1 * v1)
        # the gradient of num is centred / denominator, so a score's is
        # centred * alpha and a weight's centred * alpha / z
        centred = d_alpha - (tgt @ (alpha * d_alpha))[index]
        d_score = centred * alpha / scale
        d_q = d_score[:, None] * k * (1.0 - q * q)
        d_k = d_score[:, None] * q * (1.0 - k * k)
        for t, w, d in ((gq, w_q, src @ d_q), (gk, w_k, tgt @ d_k),
                        (gv, w_v, src @ d_v1 - tgt @ d_v1)):
            if w.requires_grad:
                _accum(w, t.data.T @ d)
            if t.requires_grad:
                _accum(t, d @ w.data.T)
        for t, d in ((qe, d_q), (ke, d_k), (ve, d_v1)):
            if t.requires_grad:
                _accum(t, d)
        if z.requires_grad:
            _accum(z, centred * alpha / z.data)
        if w_1.requires_grad:
            _accum(w_1, v1.T @ d_val)
        if b_1.requires_grad:
            _accum(b_1, d_val.sum(axis=0))

    return _track(out_data, (gq, gk, gv, z, qe, ke, ve, w_q, w_k, w_v, w_1, b_1), bw)
