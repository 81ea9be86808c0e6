"""Recursive trajectory decoder with heterogeneous graph attention.

Per step, each target agent aggregates value vectors from its in-neighbors
on the current window's inferred graph. Queries, keys, and values pass
through per-category single-layer mappings before the shared projections,
so heterogeneity costs only linear space in the number of categories.
Category-aware GRUs (`nn.gru_step` on weights stacked per category) then
update the per-agent hidden state, and a residual head emits the change in
position.

Category dispatch: each category GEMM multiplies every agent's row by all
C categories' weights (C-stacked until benchmark v2, see ROADMAP), and an
`autodiff.pick` or the fused GRU gate node right after it keeps each
agent's own category row. Everything after the GEMMs runs on one row per
agent. Edge-feature projections are constant within a
window and cached per window index. When no in-edge qualifies (sampled
weight <= 1/2) the aggregated message falls back to zero: no social
influence.
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

    def category_rows(self, categories: np.ndarray) -> np.ndarray:
        """Flattened (B*N,) category index of a (B, N) label array;
        validates the labels."""
        categories = np.asarray(categories)
        if categories.min() < 0 or categories.max() >= self.n_categories:
            raise ConfigError(
                f"category labels must lie in [0, {self.n_categories})")
        return categories.reshape(-1)


class DecoderRun:
    """Per-rollout decoder state: hidden layers plus per-window caches.

    The hidden state holds one (B*N, H) row per agent. Per-category weights
    are stacked along a leading category axis and split into GRU gate
    blocks once per rollout. Each step runs one batched GEMM per gate and
    input, broadcasting the (B*N, F) rows against the (C, F, H) weights
    (C-stacked until benchmark v2, see ROADMAP); the pick right after keeps
    each row's own category, so every later op runs on (B*N, H).
    """

    def __init__(self, decoder: TrajectoryDecoder, batch: int, n_agents: int,
                 categories: np.ndarray, gru_layers: int):
        self.decoder = decoder
        self.rows = decoder.category_rows(categories)
        self.n_agents = n_agents
        self.batch = batch
        self.state = [DArray(np.zeros((batch * n_agents, decoder.hidden)))
                      for _ in range(gru_layers)]
        self._zero_m = np.zeros((batch, n_agents, decoder.hidden))
        self._window_caches: dict[int, dict] = {}
        store = decoder.store
        n_cat = decoder.n_categories
        h = decoder.hidden

        def stack_params(pattern):
            return ad.stack([store[pattern.format(c=c)] for c in range(n_cat)])

        if not decoder.homogeneous:
            self._gmaps = {}
            for kind in ("gq", "gk", "gv"):
                w = stack_params("dec." + kind + ".{c}.W")
                b = stack_params("dec." + kind + ".{c}.b").reshape(n_cat, 1, h)
                self._gmaps[kind] = (w, ad.pick(b, self.rows))
        self._gru = [
            gru_gates(stack_params(f"dec.gru.{{c}}.l{layer}.W_ih"),
                      stack_params(f"dec.gru.{{c}}.l{layer}.W_hh"),
                      stack_params(f"dec.gru.{{c}}.l{layer}.b_ih").reshape(n_cat, 1, 3 * h),
                      stack_params(f"dec.gru.{{c}}.l{layer}.b_hh").reshape(n_cat, 1, 3 * h))
            for layer in range(gru_layers)]

    def _category_map(self, kind: str, h: DArray) -> DArray:
        """tanh(h W_c + b_c) with each row's own category c: (B*N, H)."""
        if self.decoder.homogeneous:
            return h
        w, b = self._gmaps[kind]
        return ad.tanh_add(ad.pick(h @ w, self.rows), b)

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
        category-mapped (B*N, H) hidden state the values are built from.
        """
        dec = self.decoder
        store = dec.store
        b, n, hd = self.batch, self.n_agents, h.shape[-1]
        cache = self._window_cache(graph, window)
        gq, gk, gv = (self._category_map(kind, h) for kind in ("gq", "gk", "gv"))

        # query/key: node-level projection plus cached edge-feature part
        qh = linear(gq, store["dec.fq.W"][:hd])
        kh = linear(gk, store["dec.fk.W"][:hd])
        q = ad.tanh_add(qh.reshape(b, n, 1, dec.attn_dim), cache["qe"])
        k = ad.tanh_add(kh.reshape(b, 1, n, dec.attn_dim), cache["ke"])
        scores = ad.mul_sum(q, k, -1) / math.sqrt(dec.attn_dim)   # (B, N, N)

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
        """Aggregated interacting effects m (B, N, H) for every target,
        given the (B*N, H) hidden rows."""
        store = self.decoder.store
        b, n, hd = self.batch, self.n_agents, h.shape[-1]
        alpha, gv = self.attention(h, graph, window)
        # value: relative latent position concat edge feature, f_v split
        gvh = linear(gv, store["dec.fv.0.W"][:hd])
        v1 = ad.tanh_add(gvh.reshape(b, n, 1, hd), -gvh.reshape(b, 1, n, hd),
                         self._window_cache(graph, window)["ve"])
        values = ad.tanh_add(linear(v1, store["dec.fv.1.W"]), store["dec.fv.1.b"])
        return ad.mul_sum(alpha.reshape(b, n, n, 1), values, 1)

    # ------------------------------------------------------------------ step
    def step(self, x: DArray, graph: InteractionGraphSample | None,
             eps: np.ndarray | None, window: int) -> DArray:
        """One recursive update on window `window`'s graph (None: no graph
        yet); returns the next-position mean."""
        if graph is None:
            m = DArray(self._zero_m)
        else:
            m = self.attend(self.state[-1], graph, window)
        inp = ad.concat([m, x], axis=-1).reshape(self.batch * self.n_agents, -1)
        new_state = []
        for layer, gates in enumerate(self._gru):
            inp = gru_step(inp, self.state[layer], gates, self.rows)
            new_state.append(inp)
        self.state = new_state
        pre = inp + DArray(eps.reshape(inp.shape)) if eps is not None else inp
        # residual head: position change
        return x + self.decoder.f_out(pre).reshape(x.shape)
