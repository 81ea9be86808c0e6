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
`gru_cell` (one GRU layer step, GEMMs included, keeping its four gate
arrays), `category_map` (tanh of each row's own category map),
`batch_norm`, `tanh_add` (tanh of a broadcast sum, whose terms may be row
gathers) and `mul_sum` (a product summed over one axis). `segment_sum`
adds rows into segments, optionally weighted, through the sparse
incidence matrix that `segments` builds once per index; the decoder's
attention uses it to run on its qualifying edges only.

The two category nodes take C-stacked weights and an (R,) category index.
Their forward still multiplies every row by all C categories' weights
and keeps each row's own (the benchmark counts the decoder's rows that way
until its v2, see ROADMAP); only the own rows stay on the tape, and
backward multiplies each category's weights by that category's rows only.
Every other GEMM is its own `matmul` node.
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


def batch_norm(x, gamma, beta, mean: np.ndarray, var: np.ndarray,
               eps: float, train: bool) -> DArray:
    """gamma * (x - mean) / (var + eps)**0.5 + beta over the last axis, as
    one tape node with a hand-written backward.

    `mean` and `var` are (F,) arrays. In train mode they must be
    `batch_stats(x.data)`, and backward differentiates through them; in
    eval mode they are constants (the running statistics). The node keeps
    only its output: backward recomputes the normalized input from `x`
    and the statistics, so neither may change before backward runs.
    """
    x, gamma, beta = _coerce(x), _coerce(gamma), _coerce(beta)
    std = (var + eps) ** 0.5
    out_data = gamma.data * ((x.data - mean) / std) + beta.data

    def bw(g):
        axes = tuple(range(g.ndim - 1))
        xn = (x.data - mean) / std
        if gamma.requires_grad:
            _accum_owned(gamma, (g * xn).sum(axis=axes))
        if beta.requires_grad:
            _accum_owned(beta, g.sum(axis=axes))
        if x.requires_grad:
            d_xn = g * gamma.data
            if train:
                inv_m = 1.0 / int(np.prod(g.shape[:-1]))
                d_xn = (d_xn - d_xn.sum(axis=axes) * inv_m
                        - xn * ((d_xn * xn).sum(axis=axes) * inv_m))
            _accum_owned(x, d_xn / std)

    return _track(out_data, (x, gamma, beta), bw)


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


def _own_rows(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(C, R, F) -> (R, F): row r of category rows[r]."""
    return x[rows, np.arange(len(rows))]


def _linear_grads(x: DArray, w: DArray, g: np.ndarray, rows):
    """Accumulate the gradients of `x` and `w` through y = x W given dy =
    g, or, for C-stacked (C, F, H) weights and an (R,) category index
    `rows`, through y[r] = x[r] W[rows[r]]: one GEMM each for dx and dW
    per category present, on that category's rows only."""
    if rows is None:
        if x.requires_grad:
            _accum_owned(x, g @ w.data.T)
        if w.requires_grad:
            _accum_owned(w, x.data.T @ g)
        return
    dx = np.empty(x.data.shape) if x.requires_grad else None
    dw = np.zeros_like(w.data) if w.requires_grad else None
    for c in np.unique(rows):
        idx = np.flatnonzero(rows == c)
        if dx is not None:
            dx[idx] = g[idx] @ w.data[c].T
        if dw is not None:
            dw[c] = x.data[idx].T @ g[idx]
    if dx is not None:
        _accum_owned(x, dx)
    if dw is not None:
        _accum_owned(w, dw)


def gru_cell(x, h, w_ih, w_hh, b_ih, b_hn, rows=None) -> DArray:
    """One GRU layer step as one tape node with a hand-written backward.

    The weights hold gate blocks (reset r, update z, candidate n) along
    their last axis: w_ih is (F, 3H), w_hh (H, 3H), b_ih = (b_ir + b_hr,
    b_iz + b_hz, b_in) broadcasts against (R, 3H) and b_hn against (R, H).
    For x (R, F) and state h (R, H):

        r = sigmoid(x W_ir + h W_hr + b_r)
        z = sigmoid(x W_iz + h W_hz + b_z)
        n = tanh(x W_in + b_in + r * (h W_hn + b_hn))
        h' = (1 - z) * n + z * h

    With `rows`, an (R,) category index, the weights are C-stacked, (C, F,
    3H) and (C, H, 3H), and row r goes through the GRU of category
    rows[r]. The forward runs the six gate GEMMs as untracked `matmul`
    calls, each row against all C categories (the benchmark counts the
    decoder's rows that way until its v2, see ROADMAP), and keeps each
    row's own category. The node keeps r, z, n and h W_hn + b_hn, four
    (R, H) arrays; backward runs one GEMM each for dW_ih, dW_hh, dx and dh
    per category, on that category's rows only.
    """
    x, h, w_ih, w_hh, b_ih, b_hn = (_coerce(t) for t in (x, h, w_ih, w_hh, b_ih, b_hn))
    if rows is not None:
        rows = np.asarray(rows)
    hd = w_hh.data.shape[-2]
    blocks = (slice(0, hd), slice(hd, 2 * hd), slice(2 * hd, 3 * hd))

    def gemm(a, w, block):
        out = matmul(a.data, w.data[..., block]).data
        return out if rows is None else _own_rows(out, rows)

    xr, hr, xz, hz, xn, hn = (gemm(a, w, block) for block in blocks
                              for a, w in ((x, w_ih), (h, w_hh)))
    b_r, b_z, b_in = (b_ih.data[..., block] for block in blocks)
    r = _sigmoid(xr + hr + b_r)
    z = _sigmoid(xz + hz + b_z)
    hn_b = hn + b_hn.data
    n = np.tanh(xn + b_in + r * hn_b)
    out_data = (1.0 - z) * n + z * h.data

    def bw(g):
        da_n = g * (1.0 - z) * (1.0 - n * n)
        da_r = da_n * hn_b * r * (1.0 - r)
        da_z = g * (h.data - n) * z * (1.0 - z)
        d_hn = da_n * r
        d_ih = np.concatenate([da_r, da_z, da_n], axis=-1)
        _linear_grads(x, w_ih, d_ih, rows)
        _linear_grads(h, w_hh, np.concatenate([da_r, da_z, d_hn], axis=-1), rows)
        if h.requires_grad:
            _accum_owned(h, g * z)
        if b_ih.requires_grad:
            _accum_owned(b_ih, _unbroadcast(d_ih, b_ih.data.shape))
        if b_hn.requires_grad:
            _accum_owned(b_hn, _unbroadcast(d_hn, b_hn.data.shape))

    return _track(out_data, (x, h, w_ih, w_hh, b_ih, b_hn), bw)


def category_map(h, w, b, rows) -> DArray:
    """tanh(h W_c + b) with each row's own category c = rows[r], as one
    tape node that keeps only its output.

    h is (R, F), w the C-stacked (C, F, H) weights and b broadcasts
    against (R, H). The forward multiplies every row by all C weights and
    keeps each row's own category, as the decoder did before this node;
    backward runs one GEMM each for dh and dW per category, on that
    category's rows only.
    """
    h, w, b = _coerce(h), _coerce(w), _coerce(b)
    rows = np.asarray(rows)
    out_data = np.tanh(_own_rows(matmul(h.data, w.data).data, rows) + b.data)

    def bw(g):
        d = g * (1.0 - out_data * out_data)
        _linear_grads(h, w, d, rows)
        if b.requires_grad:
            _accum_owned(b, _unbroadcast(d, b.data.shape))

    return _track(out_data, (h, w, b), bw)
