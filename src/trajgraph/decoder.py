"""Recursive trajectory decoder with heterogeneous graph attention.

Per step, each target agent aggregates value vectors from its in-neighbors
on the current window's inferred graph. Queries, keys, and values pass
through per-category single-layer mappings before the shared projections,
so heterogeneity costs only linear space in the number of categories.
Category-aware GRUs (`nn.gru_step` on weights stacked per category) then
update the per-agent hidden state, and a residual head emits the change in
position.

Category dispatch runs every category's module on the whole batch and
combines rows with one-hot masks, which is exactly category indexing at
C-fold compute cost (cheap at desk scale and trivially differentiable).
Edge-feature projections are constant within a window and cached per
window index. When no in-edge qualifies (sampled weight <= 1/2) the
aggregated message falls back to zero: no social influence.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import DArray
from .errors import ConfigError
from .nn import MLP, Affine, GRUStack, ParamStore, gru_gates, gru_step, linear
from .rng import RngStream

from .encoder import InteractionGraphSample


class TrajectoryDecoder:
    def __init__(self, store: ParamStore, n_categories: int, hidden_dim: int,
                 edge_dim: int, attn_dim: int, gru_layers: int,
                 homogeneous: bool, rng: RngStream):
        self.store = store
        self.n_categories = n_categories
        self.hidden = hidden_dim
        self.edge_dim = edge_dim
        self.attn_dim = attn_dim
        self.gru_layers = gru_layers
        self.homogeneous = homogeneous
        h, d = hidden_dim, edge_dim
        self.g_q = [Affine(store, f"dec.gq.{c}", h, h, rng) for c in range(n_categories)]
        self.g_k = [Affine(store, f"dec.gk.{c}", h, h, rng) for c in range(n_categories)]
        self.g_v = [Affine(store, f"dec.gv.{c}", h, h, rng) for c in range(n_categories)]
        self.f_q = Affine(store, "dec.fq", h + d, attn_dim, rng)
        self.f_k = Affine(store, "dec.fk", h + d, attn_dim, rng)
        self.f_v = MLP(store, "dec.fv", h + d,
                       [(h, "tanh", False), (h, "tanh", False)], rng)
        self.f_out = MLP(store, "dec.fout", h,
                         [(h, "relu", False), (h, "relu", False), (2, None, False)], rng)
        self.grus = [GRUStack(store, f"dec.gru.{c}", h + 2, h, gru_layers, rng)
                     for c in range(n_categories)]

    def category_masks(self, categories: np.ndarray) -> list[np.ndarray]:
        """One (B, N, 1) float mask per category; validates the labels."""
        categories = np.asarray(categories)
        if categories.min() < 0 or categories.max() >= self.n_categories:
            raise ConfigError(
                f"category labels must lie in [0, {self.n_categories})")
        return [(categories == c)[..., None].astype(np.float64)
                for c in range(self.n_categories)]


class DecoderRun:
    """Per-rollout decoder state: hidden layers plus per-window caches.

    Per-category weights are stacked along a leading category axis and
    split into GRU gate blocks once per rollout; each step then runs one
    batched GEMM per gate and input, broadcasting the (1, B*N, F) rows
    against the (C, F, H) weights, and collapses the result with one-hot
    masks, which equals per-agent weight indexing exactly.
    """

    def __init__(self, decoder: TrajectoryDecoder, batch: int, n_agents: int,
                 categories: np.ndarray, gru_layers: int):
        self.decoder = decoder
        self.cat_masks = decoder.category_masks(categories)
        self.n_agents = n_agents
        self.batch = batch
        self.state = [DArray(np.zeros((batch, n_agents, decoder.hidden)))
                      for _ in range(gru_layers)]
        self._zero_m = np.zeros((batch, n_agents, decoder.hidden))
        self._window_caches: dict[int, dict] = {}
        store = decoder.store
        n_cat = decoder.n_categories
        h = decoder.hidden
        # (C, B*N, 1) selection masks over flattened agents
        self._mask_stack = np.stack(
            [m.reshape(batch * n_agents, 1) for m in self.cat_masks])

        def stack_params(pattern):
            return ad.stack([store[pattern.format(c=c)] for c in range(n_cat)])

        if not decoder.homogeneous:
            self._gmaps = {}
            for kind in ("gq", "gk", "gv"):
                w = stack_params("dec." + kind + ".{c}.W")
                b = stack_params("dec." + kind + ".{c}.b").reshape(n_cat, 1, h)
                self._gmaps[kind] = (w, b)
        self._gru = [
            gru_gates(stack_params(f"dec.gru.{{c}}.l{layer}.W_ih"),
                      stack_params(f"dec.gru.{{c}}.l{layer}.W_hh"),
                      stack_params(f"dec.gru.{{c}}.l{layer}.b_ih").reshape(n_cat, 1, 3 * h),
                      stack_params(f"dec.gru.{{c}}.l{layer}.b_hh").reshape(n_cat, 1, 3 * h))
            for layer in range(gru_layers)]

    def _stack_rows(self, x: DArray) -> DArray:
        """(B, N, F) -> (1, B*N, F) rows, broadcast against C-stacked weights."""
        return x.reshape(1, self.batch * self.n_agents, x.shape[-1])

    def _collapse(self, stacked: DArray) -> DArray:
        """(C, B*N, F) -> (B, N, F), each agent keeping its own category row."""
        out = (stacked * DArray(self._mask_stack)).sum(axis=0)
        return out.reshape(self.batch, self.n_agents, stacked.shape[-1])

    def _category_map(self, kind: str, h: DArray,
                      h_stacked: DArray | None = None) -> DArray:
        if self.decoder.homogeneous:
            return h
        w, b = self._gmaps[kind]
        hs = self._stack_rows(h) if h_stacked is None else h_stacked
        return self._collapse(ad.tanh(hs @ w + b))

    # -------------------------------------------------------------- attention
    def _window_cache(self, graph: InteractionGraphSample, window: int) -> dict:
        """Edge-feature projections and masks, constant within a window."""
        cached = self._window_caches.get(window)
        if cached is not None:
            return cached
        store = self.decoder.store
        h = self.decoder.hidden
        e = graph.edge_feats
        n = self.n_agents
        qualify = (graph.z.data > 0.5) & ~np.eye(n, dtype=bool)
        cache = {
            "qe": linear(e, store["dec.fq.W"][h:], store["dec.fq.b"]),
            "ke": linear(e, store["dec.fk.W"][h:], store["dec.fk.b"]),
            "ve": linear(e, store["dec.fv.0.W"][h:], store["dec.fv.0.b"]),
            "qualify": qualify.astype(np.float64),
            "has_in": qualify.any(axis=1),
        }
        self._window_caches[window] = cache
        return cache

    def attention(self, h: DArray, graph: InteractionGraphSample,
                  window: int) -> tuple[DArray, DArray]:
        """Weights alpha (B, N, N), source by target, plus the value input.

        Each target's weights over its qualifying in-edges sum to one; a
        target without one gets all-zero weights. The second result is the
        category-mapped hidden state the values are built from.
        """
        dec = self.decoder
        store = dec.store
        b, n, hd = h.shape
        cache = self._window_cache(graph, window)

        if dec.homogeneous:
            gq = gk = gv = h
        else:
            hs = self._stack_rows(h)
            gq = self._category_map("gq", h, hs)
            gk = self._category_map("gk", h, hs)
            gv = self._category_map("gv", h, hs)

        # query/key: node-level projection plus cached edge-feature part
        qh = linear(gq, store["dec.fq.W"][:hd])
        kh = linear(gk, store["dec.fk.W"][:hd])
        q = ad.tanh(qh.reshape(b, n, 1, dec.attn_dim) + cache["qe"])
        k = ad.tanh(kh.reshape(b, 1, n, dec.attn_dim) + cache["ke"])
        scores = (q * k).sum(axis=-1) / math.sqrt(dec.attn_dim)   # (B, N, N)

        qmask = cache["qualify"]
        # stable weights: shift scores by the per-target max over qualifying
        # edges (a constant, so the ratio is unchanged)
        masked = np.where(qmask > 0, scores.data, -np.inf)
        shift = masked.max(axis=1, keepdims=True)
        shift = np.where(np.isfinite(shift), shift, 0.0)
        exp_scores = ad.exp((scores - DArray(shift)) * DArray(qmask))
        weight_num = graph.z * exp_scores * DArray(qmask)
        denom = weight_num.sum(axis=1, keepdims=True)
        denom = denom + DArray((~cache["has_in"]).astype(np.float64)[:, None, :])
        return weight_num / denom, gv

    def attend(self, h: DArray, graph: InteractionGraphSample,
               window: int) -> DArray:
        """Aggregated interacting effects m (B, N, H) for every target."""
        store = self.decoder.store
        b, n, hd = h.shape
        alpha, gv = self.attention(h, graph, window)
        # value: relative latent position concat edge feature, f_v split
        gvh = linear(gv, store["dec.fv.0.W"][:hd])
        v1 = ad.tanh(gvh.reshape(b, n, 1, hd) - gvh.reshape(b, 1, n, hd)
                     + self._window_cache(graph, window)["ve"])
        values = ad.tanh(linear(v1, store["dec.fv.1.W"], store["dec.fv.1.b"]))
        return (alpha.reshape(b, n, n, 1) * values).sum(axis=1)

    # ------------------------------------------------------------------ step
    def step(self, x: DArray, graph: InteractionGraphSample | None,
             eps: np.ndarray | None, window: int) -> DArray:
        """One recursive update on window `window`'s graph (None: no graph
        yet); returns the next-position mean."""
        if graph is None:
            m = DArray(self._zero_m)
        else:
            m = self.attend(self.state[-1], graph, window)
        inp = ad.concat([m, x], axis=-1)
        new_state = []
        for layer, gates in enumerate(self._gru):
            xs = self._stack_rows(inp)
            hs = self._stack_rows(self.state[layer])
            h_new = self._collapse(gru_step(xs, hs, gates))
            new_state.append(h_new)
            inp = h_new
        self.state = new_state
        h_top = new_state[-1]
        pre = h_top + DArray(eps) if eps is not None else h_top
        return x + self.decoder.f_out(pre)   # residual head: position change
