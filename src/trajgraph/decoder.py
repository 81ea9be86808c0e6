"""Recursive trajectory decoder with heterogeneous graph attention.

Per step, each target agent aggregates value vectors from its in-neighbors
on the current window's inferred graph. Queries, keys, and values pass
through per-category single-layer mappings before the shared projections,
so heterogeneity costs only linear space in the number of categories.
Category-aware GRUs (`autodiff.gru_cell` on weights stacked per category)
then update the per-agent hidden state, and a residual head emits the
change in position.

`TrajectoryDecoder`'s layers hold every decoder parameter; the names and
order they register are the checkpoint format.

Category dispatch: the GRU layers and the g_q/g_k/g_v maps are the
`autodiff.gru_cell` and `autodiff.category_map` nodes, given the
C-stacked parameters and each agent's category. Their forward multiplies
every agent's row by all C categories' weights (C-stacked until benchmark
v2, see ROADMAP) and keeps each agent's own category row and biases;
their backward multiplies each category's weights by its own agents' rows
only and sums its biases' gradient over them. No C-stacked product stays
on the tape, and everything after these nodes runs on one row per agent.

Attention runs on the window's qualifying edges only: the off-diagonal
pairs whose sampled weight exceeds 1/2, listed once per window and sorted
by target. Queries, keys and values are computed per edge, softmaxed per
target and added into their targets with `autodiff.segment_sum`, so no
array spans all B*N*N pairs. A target without a qualifying in-edge gets a
zero message: no social influence.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import DArray
from .errors import ConfigError
from .nn import MLP, Affine, GRUStack, ParamStore, linear
from .rng import RngStream

from .encoder import InteractionGraphSample, fan_out


class WindowEdges(NamedTuple):
    """One window's E qualifying edges, sorted by target, and what the
    attention reads of them at every step of the window."""

    src: object          # (B*N, E) incidence matrices (`autodiff.segments`)
    tgt: object          #   of each edge's source and target row
    starts: np.ndarray   # first edge of each target that has one
    counts: np.ndarray   # that target's edge count
    z: DArray            # (E,) sampled edge weights
    qe: DArray           # (E, A) edge-feature parts of the query,
    ke: DArray           # (E, A) the key
    ve: DArray           # (E, H) and the value


class TrajectoryDecoder:
    def __init__(self, store: ParamStore, n_categories: int, hidden_dim: int,
                 edge_dim: int, attn_dim: int, gru_layers: int,
                 homogeneous: bool, rng: RngStream):
        self.n_categories = n_categories
        self.hidden = hidden_dim
        self.attn_dim = attn_dim
        self.homogeneous = homogeneous
        h, d = hidden_dim, edge_dim
        self.g_q = [Affine(store, f"dec.gq.{c}", h, h, rng) for c in range(n_categories)]
        self.g_k = [Affine(store, f"dec.gk.{c}", h, h, rng) for c in range(n_categories)]
        self.g_v = [Affine(store, f"dec.gv.{c}", h, h, rng) for c in range(n_categories)]
        self.f_q = Affine(store, "dec.fq", h + d, attn_dim, rng)
        self.f_k = Affine(store, "dec.fk", h + d, attn_dim, rng)
        self.f_v = (Affine(store, "dec.fv.0", h + d, h, rng),
                    Affine(store, "dec.fv.1", h, h, rng))
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

    Every weight, and the layer count, comes from the decoder's layers.
    Once per rollout, per-category weights and biases are stacked along a
    leading category axis, and the [h, e] weights of `f_q`, `f_k` and
    `f_v[0]` are split into node and edge rows. No bias is picked per
    agent: the `autodiff.gru_cell` and `autodiff.category_map` nodes pick
    each row's own from the stacks by the category rows. The hidden state
    holds one (B*N, H) row per agent; each step runs one `gru_cell` node
    per GRU layer on it.
    """

    def __init__(self, decoder: TrajectoryDecoder, batch: int, n_agents: int,
                 categories: np.ndarray):
        self.decoder = decoder
        self.rows = decoder.category_rows(categories)
        self.n_agents = n_agents
        self.batch = batch
        self._zero_m = np.zeros((batch, n_agents, decoder.hidden))
        self._window_caches: dict[int, WindowEdges] = {}
        h = decoder.hidden

        if not decoder.homogeneous:
            self._gmaps = [(ad.stack([a.W for a in maps]), ad.stack([a.b for a in maps]))
                           for maps in (decoder.g_q, decoder.g_k, decoder.g_v)]
        self._gru = [[ad.stack(list(p)) for p in zip(*layer)]
                     for layer in zip(*(gru.params for gru in decoder.grus))]
        self.state = [DArray(np.zeros((batch * n_agents, h))) for _ in self._gru]
        self._wq, self._wq_e = decoder.f_q.W[:h], decoder.f_q.W[h:]
        self._wk, self._wk_e = decoder.f_k.W[:h], decoder.f_k.W[h:]
        self._wv, self._wv_e = decoder.f_v[0].W[:h], decoder.f_v[0].W[h:]

    def fan_out(self, k: int):
        """Continue as k copies of every scene, in k-major rows (row k*B + b
        copies scene b): the hidden state and the category rows repeat k
        times, and the stacked parameters are shared. Call it before the
        first graph is attended."""
        self.batch *= k
        self.rows = np.tile(self.rows, k)
        self._zero_m = np.zeros((self.batch, self.n_agents, self.decoder.hidden))
        self.state = [fan_out(s, k) for s in self.state]

    def _category_maps(self, h: DArray) -> list[DArray]:
        """tanh(h W_c + b_c) of the query, key and value maps, with each
        row's own category c: three (B*N, H)."""
        if self.decoder.homogeneous:
            return [h, h, h]
        return [ad.category_map(h, w, b, self.rows) for w, b in self._gmaps]

    # -------------------------------------------------------------- attention
    def _window_cache(self, graph: InteractionGraphSample, window: int) -> WindowEdges:
        """The window's qualifying edges with their edge-feature
        projections, constant within a window."""
        cached = self._window_caches.get(window)
        if cached is not None:
            return cached
        dec = self.decoder
        n, n_rows = self.n_agents, self.batch * self.n_agents
        qualify = (graph.z.data > 0.5) & ~np.eye(n, dtype=bool)
        b, j, i = np.nonzero(qualify.transpose(0, 2, 1))   # by target, then source
        tgt = b * n + j
        starts = np.flatnonzero(np.diff(tgt, prepend=-1))
        e = graph.edge_feats[b, i, j]
        edges = WindowEdges(
            src=ad.segments(b * n + i, n_rows), tgt=ad.segments(tgt, n_rows),
            starts=starts, counts=np.diff(np.append(starts, len(tgt))),
            z=graph.z[b, i, j],
            qe=linear(e, self._wq_e, dec.f_q.b),
            ke=linear(e, self._wk_e, dec.f_k.b),
            ve=linear(e, self._wv_e, dec.f_v[0].b))
        self._window_caches[window] = edges
        return edges

    def attention(self, h: DArray, graph: InteractionGraphSample,
                  window: int) -> tuple[DArray, DArray]:
        """Weights alpha (E,) over the window's qualifying edges, in the
        order of `_window_cache`, plus the value input.

        Each target's weights over its qualifying in-edges sum to one. The
        second result is the category-mapped (B*N, H) hidden state the
        values are built from.
        """
        dec = self.decoder
        edges = self._window_cache(graph, window)
        gq, gk, gv = self._category_maps(h)

        # query from the source, key from the target: node-level projection
        # plus cached edge-feature part
        q = ad.tanh_add((linear(gq, self._wq), edges.src), edges.qe)
        k = ad.tanh_add((linear(gk, self._wk), edges.tgt), edges.ke)
        scores = ad.mul_sum(q, k, -1) / math.sqrt(dec.attn_dim)   # (E,)

        # stable weights: shift scores by the per-target max (a constant,
        # so the ratio is unchanged)
        shift = np.repeat(np.maximum.reduceat(scores.data, edges.starts), edges.counts)
        weight_num = edges.z * ad.exp(scores - DArray(shift))
        denom = ad.segment_sum(weight_num, edges.tgt)
        return weight_num / denom[edges.tgt.indices], gv

    def attend(self, h: DArray, graph: InteractionGraphSample,
               window: int) -> DArray:
        """Aggregated interacting effects m (B, N, H) for every target,
        given the (B*N, H) hidden rows."""
        edges = self._window_cache(graph, window)
        if edges.z.shape[0] == 0:
            return DArray(self._zero_m)
        f_v1 = self.decoder.f_v[1]
        alpha, gv = self.attention(h, graph, window)
        # value: relative latent position concat edge feature, f_v split
        gvh = linear(gv, self._wv)
        v1 = ad.tanh_add((gvh, edges.src), (-gvh, edges.tgt), edges.ve)
        values = ad.tanh_add(linear(v1, f_v1.W), f_v1.b)
        m = ad.segment_sum(values, edges.tgt, weights=alpha)
        return m.reshape(self.batch, self.n_agents, -1)

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
        for h, params in zip(self.state, self._gru):
            inp = ad.gru_cell(inp, h, *params, self.rows)
            new_state.append(inp)
        self.state = new_state
        pre = inp + DArray(eps.reshape(inp.shape)) if eps is not None else inp
        # residual head: position change
        return x + self.decoder.f_out(pre).reshape(x.shape)
