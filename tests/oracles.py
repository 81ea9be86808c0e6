"""Independent oracles shared across the test suite.

These stay deliberately naive: plain loops and central finite differences,
never calling back into the code paths they are meant to check.
"""

import math

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


def composed_gru_step(x, h, g):
    """The GRU gate math op by op on the tape (one node per op), as the
    decoder ran it before the fused gate node; broadcasts like numpy."""
    r = ad.sigmoid(x @ g.w_ir + h @ g.w_hr + g.b_r)
    z = ad.sigmoid(x @ g.w_iz + h @ g.w_hz + g.b_z)
    n = ad.tanh(x @ g.w_in + g.b_in + r * (h @ g.w_hn + g.b_hn))
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

    def _stack_rows(self, x):
        return x.reshape(1, self.batch * self.n_agents, x.shape[-1])

    def _collapse(self, stacked):
        out = (stacked * DArray(self._mask_stack)).sum(axis=0)
        return out.reshape(self.batch, self.n_agents, stacked.shape[-1])

    def _category_maps(self, h):
        if self.decoder.homogeneous:
            return [h, h, h]
        return [self._collapse(ad.tanh(self._stack_rows(h) @ w + b))
                for (w, _), b in zip(self._gmaps, self._stacked_b)]

    def step(self, x, graph, eps, window):
        if graph is None:
            m = DArray(self._zero_m)
        else:
            m = self.attend(self.state[-1], graph, window)
        inp = ad.concat([m, x], axis=-1)
        new_state = []
        for layer, gates in enumerate(self._gru):
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
    """`nn.BatchNorm.__call__` op by op on the tape (one node per op), as
    it ran before the batch-norm node; advances `bn`'s running buffers in
    train mode."""
    if train:
        axes = tuple(range(x.ndim - 1))
        mean = x.mean(axis=axes, keepdims=True)
        var = ((x - mean) ** 2).mean(axis=axes, keepdims=True)
        bn.run_mean.data[...] = 0.9 * bn.run_mean.data + 0.1 * mean.data.reshape(-1)
        bn.run_var.data[...] = 0.9 * bn.run_var.data + 0.1 * var.data.reshape(-1)
        xn = (x - mean) / ((var + bn.eps) ** 0.5)
    else:
        xn = (x - bn.run_mean) / ((bn.run_var + DArray(bn.eps)) ** 0.5)
    return bn.gamma * xn + bn.beta


class ComposedAttentionDecoderRun(DecoderRun):
    """The decoder's attention op by op on the tape, as it ran before the
    fused `tanh_add` and `mul_sum` nodes: every add, tanh and product of
    the pairwise chains is its own node. The GRU and the head are the
    decoder's own."""

    def _category_maps(self, h):
        if self.decoder.homogeneous:
            return [h, h, h]
        return [ad.tanh(ad.pick(h @ w, self.rows) + b) for w, b in self._gmaps]

    def attention(self, h, graph, window):
        dec = self.decoder
        b, n, hd = self.batch, self.n_agents, h.shape[-1]
        cache = self._window_cache(graph, window)
        gq, gk, gv = self._category_maps(h)
        qh = linear(gq, dec.f_q.W[:hd])
        kh = linear(gk, dec.f_k.W[:hd])
        q = ad.tanh(qh.reshape(b, n, 1, dec.attn_dim) + cache["qe"])
        k = ad.tanh(kh.reshape(b, 1, n, dec.attn_dim) + cache["ke"])
        scores = (q * k).sum(axis=-1) / math.sqrt(dec.attn_dim)
        qmask = cache["qualify"]
        masked = np.where(qmask > 0, scores.data, -np.inf)
        shift = masked.max(axis=1, keepdims=True)
        shift = np.where(np.isfinite(shift), shift, 0.0)
        exp_scores = ad.exp((scores - DArray(shift)) * DArray(qmask))
        weight_num = graph.z * exp_scores * DArray(qmask)
        denom = weight_num.sum(axis=1, keepdims=True)
        denom = denom + DArray((~cache["has_in"]).astype(np.float64)[:, None, :])
        return weight_num / denom, gv

    def attend(self, h, graph, window):
        f_v = self.decoder.f_v
        b, n, hd = self.batch, self.n_agents, h.shape[-1]
        alpha, gv = self.attention(h, graph, window)
        gvh = linear(gv, f_v[0].W[:hd])
        v1 = ad.tanh(gvh.reshape(b, n, 1, hd) - gvh.reshape(b, 1, n, hd)
                     + self._window_cache(graph, window)["ve"])
        values = ad.tanh(linear(v1, f_v[1].W, f_v[1].b))
        return (alpha.reshape(b, n, n, 1) * values).sum(axis=1)


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


def per_sample_rollouts(model, positions, categories, streams, **predict_kw):
    """One `predict_batch` call per stream: (K, B, N, T, 2) predictions and
    the K per-sample lists of window graphs."""
    outs, graphs = [], []
    for stream in streams:
        out, g = model.predict_batch(positions, categories, stream, **predict_kw)
        outs.append(out)
        graphs.append(g)
    return np.stack(outs), graphs
