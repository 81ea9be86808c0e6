"""Independent oracles shared across the test suite.

These stay deliberately naive: plain loops and central finite differences,
never calling back into the code paths they are meant to check.
"""

import math
from typing import NamedTuple

import numpy as np

from trajgraph import autodiff as ad
from trajgraph.autodiff import DArray
from trajgraph.decoder import DecoderRun
from trajgraph.nn import linear


def finite_difference(f, x, eps=1e-6):
    """Central-difference gradient of a scalar function of one array.

    `f` must recompute from the current contents of `x` on every call.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f()
        flat[i] = orig - eps
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def fd_step(loss_value, atol, floor=1e-6):
    """Central-difference step for a loss of this size.

    One ulp of the loss divided by 2 * eps is the round-off floor of the
    difference quotient; a step of 10 ulp / atol keeps it at atol / 20.
    """
    return max(floor, 10.0 * np.spacing(abs(loss_value)) / atol)


def fd_probe_check(loss_fn, arrays, rng, n_probes=20, eps=1e-6, rtol=1e-4, atol=1e-7):
    """Compare backward() gradients against finite differences at random
    coordinates of the given DArrays. Returns the worst relative error seen.

    `loss_fn` rebuilds the graph from the arrays' current data each call.
    `eps` is the smallest step; `fd_step` widens it for large losses.
    """
    loss = loss_fn()
    loss.backward()
    eps = fd_step(loss.item(), atol, eps)
    analytic = [a.grad if a.grad is not None else np.zeros_like(a.data) for a in arrays]
    worst = 0.0
    for _ in range(n_probes):
        ai = int(rng.integers(0, len(arrays)))
        arr = arrays[ai]
        idx = int(rng.integers(0, arr.data.size))
        flat = arr.data.reshape(-1)
        orig = flat[idx]
        flat[idx] = orig + eps
        f_plus = loss_fn().item()
        flat[idx] = orig - eps
        f_minus = loss_fn().item()
        flat[idx] = orig
        fd = (f_plus - f_minus) / (2.0 * eps)
        an = analytic[ai].reshape(-1)[idx]
        err = abs(an - fd)
        denom = max(abs(an), abs(fd))
        rel = err / denom if denom > 0 else 0.0
        assert err <= rtol * denom + atol, (
            f"grad mismatch at array {ai} index {idx}: analytic {an}, fd {fd}")
        worst = max(worst, rel if denom > 0 else err)
    for a in arrays:
        a.grad = None
    return worst


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def fused_gru_reference(x, h, w_ih, w_hh, b_ih, b_hh):
    """GRU update with fused gate GEMMs: gi = x W_ih + b_ih and
    gh = h W_hh + b_hh, gate blocks (reset, update, candidate). Plain
    (F, 3H) weights with (3H,) biases, or C-stacked (C, F, 3H) weights
    with (C, 1, 3H) biases on (C, R, F) inputs."""
    H = w_hh.shape[-2]
    gi = x @ w_ih + b_ih
    gh = h @ w_hh + b_hh
    r = _sigmoid(gi[..., :H] + gh[..., :H])
    z = _sigmoid(gi[..., H:2 * H] + gh[..., H:2 * H])
    n = np.tanh(gi[..., 2 * H:] + r * gh[..., 2 * H:])
    return (1.0 - z) * n + z * h


def _pick_rows(x, rows):
    """(C, R, F) -> (R, F): row r of category rows[r]. A (C, 1, F) array
    gives every row its category's single row."""
    return x[rows, 0] if x.shape[1] == 1 else x[rows, np.arange(len(rows))]


def _scatter_rows(g, rows, shape):
    """Adjoint of `_pick_rows`: (R, F) back to `shape`, zero in the rows of
    the other categories, or summed per category for a (C, 1, F) shape."""
    if shape[1] == 1:
        onehot = (np.arange(shape[0])[:, None] == rows).astype(np.float64)
        return (onehot @ g).reshape(shape)
    out = np.zeros(shape)
    out[rows, np.arange(len(rows))] = g
    return out


def pick(a, rows):
    """The per-row category pick as its own tape node, (C, R, F) -> (R, F):
    row r of category rows[r]; a (C, 1, F) input (a stacked bias) gives
    each row its category's row. Backward scatters into (C, R, F) zeros."""
    a = ad._coerce(a)
    rows = np.asarray(rows)

    def bw(g):
        if a.requires_grad:
            ad._accum(a, _scatter_rows(g, rows, a.data.shape))

    return ad._track(_pick_rows(a.data, rows), (a,), bw)


def _unary(a, out_data, derivative):
    """An elementwise op as its own tape node, given its output and a
    function of (input, output) giving its derivative."""
    a = ad._coerce(a)

    def bw(g):
        if a.requires_grad:
            ad._accum(a, g * derivative(a.data, out_data))

    return ad._track(out_data, (a,), bw)


def tanh(a):
    """tanh as its own tape node, as autodiff ran it before the MLP node."""
    out = np.tanh(ad._coerce(a).data)
    return _unary(a, out, lambda x, y: 1.0 - y * y)


def exp(a):
    """exp as its own tape node."""
    return _unary(a, np.exp(ad._coerce(a).data), lambda x, y: y)


def sqrt(a):
    """Square root as its own tape node."""
    out = np.sqrt(ad._coerce(a).data)
    return _unary(a, out, lambda x, y: 0.5 / y)


def elu(a):
    """ELU (alpha = 1) as its own tape node."""
    x = ad._coerce(a).data
    out = np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))
    return _unary(a, out, lambda x, y: np.where(x > 0, 1.0, y + 1.0))


def relu(a):
    """ReLU as its own tape node."""
    return _unary(a, np.maximum(ad._coerce(a).data, 0.0), lambda x, y: x > 0)


_ACTIVATIONS = {None: lambda x: x, "elu": elu, "relu": relu, "tanh": tanh}


class GRUGates(NamedTuple):
    """GRU weights split per gate: reset (r), update (z), candidate (n)."""

    w_ir: DArray
    w_iz: DArray
    w_in: DArray
    w_hr: DArray
    w_hz: DArray
    w_hn: DArray
    b_r: DArray     # b_ir + b_hr
    b_z: DArray     # b_iz + b_hz
    b_in: DArray
    b_hn: DArray    # stays inside the reset product


def gru_gates(w_ih, w_hh, b_ih, b_hh):
    """Split fused (reset, update, candidate) weight blocks along the last
    axis into taped slices. Works on one GRU's (F, 3H) weights with (3H,)
    biases and on C GRUs stacked as (C, F, 3H) weights with (C, 1, 3H)
    biases."""
    h = w_hh.shape[-2]
    r, z, n = slice(0, h), slice(h, 2 * h), slice(2 * h, 3 * h)
    return GRUGates(
        w_ih[..., r], w_ih[..., z], w_ih[..., n],
        w_hh[..., r], w_hh[..., z], w_hh[..., n],
        b_ih[..., r] + b_hh[..., r], b_ih[..., z] + b_hh[..., z],
        b_ih[..., n], b_hh[..., n])


def _gate_values(pre, bias, rows):
    if rows is None:
        xr, hr, xz, hz, xn, hn, b_r, b_z, b_in, b_hn = (t.data for t in pre + bias)
    else:
        xr, hr, xz, hz, xn, hn, b_r, b_z, b_in, b_hn = (
            _pick_rows(t.data, rows) for t in pre + bias)
    r = _sigmoid(xr + hr + b_r)
    z = _sigmoid(xz + hz + b_z)
    hn_b = hn + b_hn
    n = np.tanh(xn + b_in + r * hn_b)
    return r, z, n, hn_b


def gate_node(pre, bias, h, rows=None):
    """The GRU gate math as one tape node over the six taped GEMM outputs
    `pre` (x W_ir, h W_hr, x W_iz, h W_hz, x W_in, h W_hn) and the biases
    (b_r, b_z, b_in, b_hn), as the decoder ran it before the GEMMs moved
    into the node. With `rows`, `pre` is (C, R, H) and `bias` (C, 1, H):
    row r reads category rows[r]'s copy, and backward scatters the
    gradients back into (C, R, H) zeros. Backward recomputes the gates."""
    pre = [ad._coerce(p) for p in pre]
    bias = [ad._coerce(b) for b in bias]
    h = ad._coerce(h)
    _, z, n, _ = _gate_values(pre, bias, rows)
    out_data = (1.0 - z) * n + z * h.data

    def bw(g):
        r, z, n, hn_b = _gate_values(pre, bias, rows)
        da_n = g * (1.0 - z) * (1.0 - n * n)
        da_r = da_n * hn_b * r * (1.0 - r)
        da_z = g * (h.data - n) * z * (1.0 - z)
        d_hn = da_n * r
        for t, gt in zip(pre + bias, (da_r, da_r, da_z, da_z, da_n, d_hn,
                                      da_r, da_z, da_n, d_hn)):
            if not t.requires_grad:
                continue
            if rows is not None:
                ad._accum(t, _scatter_rows(gt, rows, t.data.shape))
            else:
                # one gate gradient feeds several parents: each gets a copy
                ad._accum(t, ad._unbroadcast(gt, t.data.shape).copy())
        if h.requires_grad:
            ad._accum(h, ad._unbroadcast(g * z, h.data.shape))

    return ad._track(out_data, pre + bias + [h], bw)


def composed_gru_cell(x, h, w_ih, w_hh, b_ih, b_hh, rows=None):
    """One GRU layer step as the decoder ran it before `autodiff.gru_cell`
    took in its GEMMs: taped gate slices (`gru_gates`), six taped `matmul`
    nodes and `gate_node`. Plain (F, 3H) weights with (3H,) biases, or,
    with `rows`, C-stacked (C, F, 3H) weights with (C, 3H) biases."""
    if rows is not None:
        c, width = b_ih.shape
        b_ih, b_hh = b_ih.reshape(c, 1, width), b_hh.reshape(c, 1, width)
    g = gru_gates(w_ih, w_hh, b_ih, b_hh)
    pre = (x @ g.w_ir, h @ g.w_hr, x @ g.w_iz, h @ g.w_hz, x @ g.w_in, h @ g.w_hn)
    return gate_node(pre, (g.b_r, g.b_z, g.b_in, g.b_hn), h, rows)


def composed_category_map(h, w, b, rows):
    """tanh(h W_c + b_c) as the decoder ran it before `autodiff.category_map`,
    on C-stacked weights and (C, H) biases: a taped C-stacked GEMM, a taped
    `pick`, a taped row gather of the biases, their sum and a tanh node."""
    return tanh(pick(h @ w, rows) + b[rows])


def per_step_affine_grads(x, w, b, g, rows):
    """`autodiff._affine_grads` as it was before weight gradients were
    recorded: every call forms and adds dW at once, a zero-filled
    (C, F, H) block per call for C-stacked weights. Patched in for it,
    it gives the reference gradients of any backward."""
    x_grad = x is not None and x.requires_grad
    w_grad = x is not None and w.requires_grad
    if rows is None:
        grads = (g @ w.data.T if x_grad else None,
                 x.data.T @ g if w_grad else None,
                 g.sum(axis=0) if b.requires_grad else None)
    else:
        grads = (np.empty(x.data.shape) if x_grad else None,
                 np.zeros_like(w.data) if w_grad else None,
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
            ad._accum(t, d)


def composed_gru_step(x, h, g):
    """The GRU gate math op by op on the tape (one node per op), as the
    decoder ran it before the fused gate node; broadcasts like numpy."""
    r = ad.sigmoid(x @ g.w_ir + h @ g.w_hr + g.b_r)
    z = ad.sigmoid(x @ g.w_iz + h @ g.w_hz + g.b_z)
    n = tanh(x @ g.w_in + g.b_in + r * (h @ g.w_hn + g.b_hn))
    return (1.0 - z) * n + z * h


class MaskCollapseDecoderRun(DecoderRun):
    """The decoder's category dispatch before the row pick: every op after
    a category GEMM runs on all C copies of each row, and one-hot masks
    collapse the copies to each agent's own category. The hidden state is
    (B, N, H). The attention scores and the head are the decoder's own;
    only the category maps, the GRU gate math and the step are replaced."""

    def __init__(self, decoder, batch, n_agents, categories):
        super().__init__(decoder, batch, n_agents, categories)
        n_cat, h = decoder.n_categories, decoder.hidden
        cats = np.asarray(categories).reshape(batch * n_agents)
        self.state = [DArray(np.zeros((batch, n_agents, h))) for _ in self._gru]
        # (C, B*N, 1) selection masks over flattened agents
        self._mask_stack = np.stack([(cats == c)[:, None].astype(np.float64)
                                     for c in range(n_cat)])
        self._stacked_b = [ad.stack([a.b for a in maps]).reshape(n_cat, 1, h)
                           for maps in (decoder.g_q, decoder.g_k, decoder.g_v)]
        self._gates = []
        for layer in zip(*(gru.params for gru in decoder.grus)):
            w_ih, w_hh, b_ih, b_hh = (ad.stack(list(p)) for p in zip(*layer))
            self._gates.append(gru_gates(w_ih, w_hh, b_ih.reshape(n_cat, 1, 3 * h),
                                         b_hh.reshape(n_cat, 1, 3 * h)))

    def _stack_rows(self, x):
        return x.reshape(1, self.batch * self.n_agents, x.shape[-1])

    def _collapse(self, stacked):
        out = (stacked * DArray(self._mask_stack)).sum(axis=0)
        return out.reshape(self.batch, self.n_agents, stacked.shape[-1])

    def _category_maps(self, h):
        if self.decoder.homogeneous:
            return [h, h, h]
        return [self._collapse(tanh(self._stack_rows(h) @ w + b)).reshape(h.shape)
                for (w, _), b in zip(self._gmaps, self._stacked_b)]

    def step(self, x, graph, eps, window):
        if graph is None:
            m = DArray(self._zero_m)
        else:   # the attention reads one (B*N, H) row per agent
            h = self.state[-1]
            m = self.attend(h.reshape(self.batch * self.n_agents, h.shape[-1]),
                            graph, window)
        inp = ad.concat([m, x], axis=-1)
        new_state = []
        for layer, gates in enumerate(self._gates):
            xs = self._stack_rows(inp)
            hs = self._stack_rows(self.state[layer])
            h_new = self._collapse(composed_gru_step(xs, hs, gates))
            new_state.append(h_new)
            inp = h_new
        self.state = new_state
        h_top = new_state[-1]
        pre = h_top + DArray(eps) if eps is not None else h_top
        return x + self.decoder.f_out(pre)


def composed_batch_norm(bn, x, train):
    """Batch norm op by op on the tape (one node per op), as it ran before
    the batch-norm node; advances `bn`'s running buffers in train mode."""
    if train:
        axes = tuple(range(x.ndim - 1))
        mean = x.mean(axis=axes, keepdims=True)
        centred = x - mean
        var = (centred * centred).mean(axis=axes, keepdims=True)
        bn.run_mean.data[...] = 0.9 * bn.run_mean.data + 0.1 * mean.data.reshape(-1)
        bn.run_var.data[...] = 0.9 * bn.run_var.data + 0.1 * var.data.reshape(-1)
        xn = (x - mean) / sqrt(var + bn.eps)
    else:
        xn = (x - bn.run_mean) / sqrt(bn.run_var + DArray(bn.eps))
    return bn.gamma * xn + bn.beta


def composed_mlp(mlp, x, train=True):
    """`nn.MLP.__call__` op by op on the tape, as it ran before the MLP
    node: per layer `nn.linear` (reshapes, a `matmul` node and a bias add),
    an activation node and `composed_batch_norm`."""
    for w, b, act, bn in mlp.layers:
        x = _ACTIVATIONS[act](linear(x, w, b))
        if bn is not None:
            x = composed_batch_norm(bn, x, train)
    return x


class DenseAttentionDecoderRun(DecoderRun):
    """The decoder's attention on all B*N*N pair slots, op by op on the
    tape, as it ran before it attended over qualifying edges only: every
    add, tanh and product of the category maps and the pairwise chains is
    its own node, and masks zero the exponent and the numerator of every
    pair that does not qualify (diagonal, or sampled weight <= 1/2); a
    target with no qualifying in-edge gets a denominator of one. The GRU
    and the head are the decoder's own."""

    def __init__(self, decoder, batch, n_agents, categories):
        super().__init__(decoder, batch, n_agents, categories)
        self._dense_caches = {}

    def _dense_window_cache(self, graph, window):
        cache = self._dense_caches.get(window)
        if cache is None:
            dec, hd = self.decoder, self.decoder.hidden
            e = graph.edge_feats
            qualify = (graph.z.data > 0.5) & ~np.eye(self.n_agents, dtype=bool)
            cache = self._dense_caches[window] = {
                "qe": linear(e, dec.f_q.W[hd:], dec.f_q.b),
                "ke": linear(e, dec.f_k.W[hd:], dec.f_k.b),
                "ve": linear(e, dec.f_v[0].W[hd:], dec.f_v[0].b),
                "qualify": qualify.astype(np.float64),
                "has_in": qualify.any(axis=1),
            }
        return cache

    def _category_maps(self, h):
        if self.decoder.homogeneous:
            return [h, h, h]
        return [composed_category_map(h, w, b, self.rows) for w, b in self._gmaps]

    def _masked_softmax(self, scores, graph, cache):
        qmask = cache["qualify"]
        # stable weights: shift scores by the per-target max over qualifying
        # edges (a constant, so the ratio is unchanged)
        masked = np.where(qmask > 0, scores.data, -np.inf)
        shift = masked.max(axis=1, keepdims=True)
        shift = np.where(np.isfinite(shift), shift, 0.0)
        exp_scores = exp((scores - DArray(shift)) * DArray(qmask))
        weight_num = graph.z * exp_scores * DArray(qmask)
        denom = weight_num.sum(axis=1, keepdims=True)
        denom = denom + DArray((~cache["has_in"]).astype(np.float64)[:, None, :])
        return weight_num / denom

    def attention(self, h, graph, window):
        """Weights alpha (B, N, N), source by target, plus the value input."""
        dec = self.decoder
        b, n, hd = self.batch, self.n_agents, h.shape[-1]
        cache = self._dense_window_cache(graph, window)
        gq, gk, gv = self._category_maps(h)
        qh = linear(gq, dec.f_q.W[:hd])
        kh = linear(gk, dec.f_k.W[:hd])
        q = tanh(qh.reshape(b, n, 1, dec.attn_dim) + cache["qe"])
        k = tanh(kh.reshape(b, 1, n, dec.attn_dim) + cache["ke"])
        scores = (q * k).sum(axis=-1) / math.sqrt(dec.attn_dim)
        return self._masked_softmax(scores, graph, cache), gv

    def attend(self, h, graph, window):
        f_v = self.decoder.f_v
        b, n, hd = self.batch, self.n_agents, h.shape[-1]
        alpha, gv = self.attention(h, graph, window)
        gvh = linear(gv, f_v[0].W[:hd])
        v1 = tanh(gvh.reshape(b, n, 1, hd) - gvh.reshape(b, 1, n, hd)
                  + self._dense_window_cache(graph, window)["ve"])
        values = tanh(linear(v1, f_v[1].W, f_v[1].b))
        return (alpha.reshape(b, n, n, 1) * values).sum(axis=1)


class ComposedEdgeAttentionDecoderRun(DecoderRun):
    """The decoder's attention over each window's qualifying edges, op by
    op on the tape, the computation `autodiff.graph_attention` fuses: row
    gathers (`take`) of the projected sources and targets, the shifted
    softmax and a `segment_sum` of the alpha-weighted values into the
    targets. After the category maps an attended step records 30 tape
    nodes: the query and the key a GEMM, gather, add and tanh each (8),
    the scores a product, sum and scale (3), the weights a shift, exp,
    product with z, `segment_sum`, gather and division (6), the values
    a GEMM, two gathers, a difference, an add and a tanh, then a GEMM, an
    add and a tanh (9), and the message a reshape of alpha, a product, a
    `segment_sum` and a reshape (4). The window cache, the GRU and the
    head are the decoder's own."""

    def attention(self, h, graph, window):
        """Weights alpha (E,) over the window's qualifying edges, in the
        order of `_window_cache`, plus the category-mapped (B*N, H) value
        input."""
        dec = self.decoder
        edges = self._window_cache(graph, window)
        gq, gk, gv = self._category_maps(h)
        q = tanh(linear(gq, self._wq)[edges.src.indices] + edges.qe)
        k = tanh(linear(gk, self._wk)[edges.tgt.indices] + edges.ke)
        scores = (q * k).sum(axis=-1) / math.sqrt(dec.attn_dim)   # (E,)
        # stable weights: shift scores by the per-target max (a constant,
        # so the ratio is unchanged)
        shift = np.repeat(np.maximum.reduceat(scores.data, edges.starts), edges.counts)
        weight_num = edges.z * exp(scores - DArray(shift))
        denom = ad.segment_sum(weight_num, edges.tgt)
        return weight_num / denom[edges.tgt.indices], gv

    def attend(self, h, graph, window):
        edges = self._window_cache(graph, window)
        if edges.z.shape[0] == 0:
            return DArray(self._zero_m)
        f_v1 = self.decoder.f_v[1]
        alpha, gv = self.attention(h, graph, window)
        # value: relative latent position concat edge feature, f_v split
        gvh = linear(gv, self._wv)
        v1 = tanh(gvh[edges.src.indices] - gvh[edges.tgt.indices] + edges.ve)
        values = tanh(linear(v1, f_v1.W, f_v1.b))
        m = ad.segment_sum(values * alpha.reshape(-1, 1), edges.tgt)
        return m.reshape(self.batch, self.n_agents, -1)


def tape_arrays(out):
    """The interior tape nodes reachable from `out`, the ndarrays they keep
    alive (node outputs, arrays held by backward closures, and the values
    of untracked constants those closures hold), and the parameters
    (tracked leaves) they reach."""
    seen, stack, nodes, arrays, params = set(), [out], [], [], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._bw is None:
            params.append(node.data)
            continue
        nodes.append(node)
        arrays.append(node.data)
        for cell in node._bw.__closure__ or ():
            held = cell.cell_contents
            for item in held if isinstance(held, (list, tuple)) else (held,):
                if isinstance(item, np.ndarray):
                    arrays.append(item)
                elif isinstance(item, DArray) and not item.requires_grad:
                    arrays.append(item.data)
        stack.extend(node._parents)
    return nodes, arrays, params


def _base(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def tape_bytes(out):
    """Bytes of the distinct buffers that the tape below `out` owns: a view
    counts once, as its base buffer, and a parameter's buffer (or a view
    of it) is not the tape's."""
    nodes, arrays, params = tape_arrays(out)
    owned = {id(_base(a)): _base(a).nbytes for a in arrays}
    for p in params:
        owned.pop(id(_base(p)), None)
    return sum(owned.values())


def masked_mlp_reference(params, prefix, x, train, mask):
    """An encoder MLP on dense rows. Each layer is affine; a layer with a
    `.bn` entry adds ELU and batch norm, one without adds nothing. In train
    mode the statistics cover the rows where `mask` is 1, and the running
    buffers in `params` advance in place."""
    lead = tuple(range(x.ndim - 1))
    i = 0
    while f"{prefix}.{i}.W" in params:
        x = x @ params[f"{prefix}.{i}.W"] + params[f"{prefix}.{i}.b"]
        bn = f"{prefix}.{i}.bn"
        if f"{bn}.gamma" in params:
            x = np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))
            if train:
                count = np.broadcast_to(mask, x.shape[:-1] + (1,)).sum()
                mean = (x * mask).sum(axis=lead) / count
                var = (((x - mean) ** 2) * mask).sum(axis=lead) / count
                params[f"{bn}.run_mean"] = 0.9 * params[f"{bn}.run_mean"] + 0.1 * mean
                params[f"{bn}.run_var"] = 0.9 * params[f"{bn}.run_var"] + 0.1 * var
            else:
                mean, var = params[f"{bn}.run_mean"], params[f"{bn}.run_var"]
            x = params[f"{bn}.gamma"] * (x - mean) / np.sqrt(var + 1e-5) \
                + params[f"{bn}.beta"]
        i += 1
    return x


def dense_encoder_reference(params, v, state, train):
    """GraphEncoder.gnn_pass followed by update_relations, computed on all
    N^2 pairs with the self-pairs masked out of batch norm, of messages,
    of edge embeddings and of logits.

    `params` maps names to arrays and its running statistics advance in
    train mode; `state` is None or the per-layer (B*N*N, H) edge-GRU
    state. Returns (v_t, e_t, logits, new_state).
    """
    b, n, _ = v.shape
    mask = np.broadcast_to((1.0 - np.eye(n))[None, :, :, None], (b, n, n, 1))
    diffs = v[:, :, None] - v[:, None]
    msg = masked_mlp_reference(params, "enc.edge1", diffs, train, mask) * mask
    v_t = masked_mlp_reference(params, "enc.node", msg.sum(axis=1), train, 1.0)
    tdiffs = v_t[:, :, None] - v_t[:, None]
    e_t = masked_mlp_reference(params, "enc.edge2", tdiffs, train, mask) * mask
    x = e_t.reshape(b * n * n, -1)
    layers = sum(1 for k in params if k.endswith(".W_hh") and k.startswith("enc.edgegru."))
    if state is None:
        width = params["enc.edgegru.l0.W_hh"].shape[0]
        state = [np.zeros((b * n * n, width))] * layers
    new_state = []
    for i in range(layers):
        p = f"enc.edgegru.l{i}"
        x = fused_gru_reference(x, state[i], params[f"{p}.W_ih"], params[f"{p}.W_hh"],
                                params[f"{p}.b_ih"], params[f"{p}.b_hh"])
        new_state.append(x)
    flat_mask = mask.reshape(b * n * n, 1)
    logits = masked_mlp_reference(params, "enc.proj", x, train, flat_mask) * flat_mask
    return v_t, e_t, logits.reshape(b, n, n), new_state


def naive_ade_fde(truth, pred):
    """Per-agent ADE/FDE via explicit loops over agents and steps."""
    n, t = truth.shape[0], truth.shape[1]
    ade = np.zeros(n)
    fde = np.zeros(n)
    for i in range(n):
        total = 0.0
        for s in range(t):
            dx = truth[i, s, 0] - pred[i, s, 0]
            dy = truth[i, s, 1] - pred[i, s, 1]
            total += (dx * dx + dy * dy) ** 0.5
        ade[i] = total / t
        dx = truth[i, t - 1, 0] - pred[i, t - 1, 0]
        dy = truth[i, t - 1, 1] - pred[i, t - 1, 1]
        fde[i] = (dx * dx + dy * dy) ** 0.5
    return ade, fde


def naive_reconstruction_loss(truth, pred, t_history):
    """Eq.-style squared loss via explicit double loops."""
    n, t_total = truth.shape[0], truth.shape[1]
    t_future = t_total - t_history
    total = 0.0
    for s in range(t_history, t_total):
        for i in range(n):
            dx = truth[i, s, 0] - pred[i, s, 0]
            dy = truth[i, s, 1] - pred[i, s, 1]
            total += dx * dx + dy * dy
    return total / (n * t_future)


def entropy_of_degrees(degrees, n_nodes):
    """Normalized in-degree entropy computed directly from a degree vector."""
    degrees = np.asarray(degrees, dtype=np.float64)
    total = degrees.sum()
    if total == 0:
        return 0.0
    h = 0.0
    for d in degrees:
        if d > 0:
            p = d / total
            h -= p * np.log(p)
    return h / np.log(n_nodes)


def enumerate_degree_vectors(n_nodes, n_edges):
    """All non-increasing in-degree vectors with sum n_edges, entries <= N-1."""
    out = []

    def rec(remaining, max_part, prefix):
        slots = n_nodes - len(prefix)
        if slots == 0:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        if remaining > max_part * slots:
            return
        for d in range(min(max_part, remaining), -1, -1):
            rec(remaining - d, d, prefix + [d])

    rec(n_edges, n_nodes - 1, [])
    return out


def brute_force_min_entropy(n_nodes, n_edges):
    """Minimum normalized entropy over all feasible in-degree vectors."""
    if n_edges == 0:
        return 0.0
    best = np.inf
    for vec in enumerate_degree_vectors(n_nodes, n_edges):
        best = min(best, entropy_of_degrees(vec, n_nodes))
    return best


def hard_entropy(z):
    """Normalized in-degree entropy of one hard (N, N) graph, from its
    positive in-degrees only; exactly 1 for equal in-degrees."""
    d = np.asarray(z, dtype=np.float64).sum(axis=0)
    total = d.sum()
    if total == 0:
        return 0.0
    if np.all(d == d[0]):
        return 1.0
    p = d[d > 0] / total
    return float(-(p * np.log(p)).sum() / math.log(len(d)))


def _entropy_rows(d):
    """Normalized entropy of each row of a (P, N) in-degree array; 0 for a
    row without edges."""
    total = d.sum(axis=1, keepdims=True)
    p = np.divide(d, total, out=np.zeros_like(d), where=total > 0)
    plogp = p * np.log(np.where(p > 0, p, 1.0))
    return -plogp.sum(axis=1) / math.log(d.shape[1])


def brute_force_selection_entropy(probs, theta_low, theta_high):
    """Minimum entropy over every completion of the uncertain edges
    (U <= 16): all 2^U graphs are built and their column sums scored."""
    n = probs.shape[0]
    offdiag = ~np.eye(n, dtype=bool)
    certain = ((probs > theta_high) & offdiag).astype(np.float64)
    rows, cols = np.nonzero((probs >= theta_low) & (probs <= theta_high) & offdiag)
    if len(rows) > 16:
        raise ValueError(f"{len(rows)} uncertain edges is too many to enumerate")
    masks = np.arange(1 << len(rows))
    graphs = np.repeat(certain[None], len(masks), axis=0)
    for bit, (i, j) in enumerate(zip(rows, cols)):
        graphs[:, i, j] = masks >> bit & 1
    return float(_entropy_rows(graphs.sum(axis=1)).min())


def degree_box_min_entropy(low, high):
    """Minimum entropy over every integer in-degree vector with
    low <= d <= high, two leading columns looped and the rest vectorized."""
    n = len(low)
    ranges = [np.arange(lo, hi + 1) for lo, hi in zip(low, high)]
    tail = np.stack(np.meshgrid(*ranges[2:], indexing="ij"), axis=-1).reshape(-1, n - 2)
    best = math.inf
    for a in ranges[0]:
        for b in ranges[1]:
            d = np.column_stack([np.full(len(tail), a), np.full(len(tail), b), tail])
            best = min(best, float(_entropy_rows(d.astype(np.float64)).min()))
    return best


def per_sample_rollouts(model, positions, categories, streams, **predict_kw):
    """One `predict_batch` call per stream: (K, B, N, T, 2) predictions and
    the K per-sample lists of window graphs."""
    outs, graphs = [], []
    for stream in streams:
        out, g = model.predict_batch(positions, categories, stream, **predict_kw)
        outs.append(out)
        graphs.append(g)
    return np.stack(outs), graphs
