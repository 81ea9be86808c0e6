"""Latent interaction-graph encoder.

Per time window the encoder embeds each agent's trajectory fragment, runs
a two-pass GNN over the complete directed graph to produce edge
representations, evolves a per-edge GRU across windows, and emits both
relation probabilities and sampled adjacencies, drawn in one of the three
modes that `EncoderRun.step` defines.

Array convention: batches of same-size scenes, so node tensors are
(B, N, H) and edge tensors (B, N, N, ...) with index [b, i, j] meaning the
directed pair i -> j. The edge MLPs, the edge GRU and the relation
projection run only on the N(N-1) off-diagonal pairs, gathered once per
use by `offdiag_pairs`; batch-norm statistics therefore cover exactly
those pairs. Each agent's incoming messages are added up straight from
those pairs by one `segment_sum`. Dense edge tensors, built by
`dense_pairs` with one scatter, carry a zero diagonal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DArray
from .errors import ConfigError, ContractError
from .nn import MLP, GRUStack, ParamStore
from .rng import RngStream

# rng child tags so draw order never depends on call interleaving
RK_EDGE_NOISE = 0
RK_RELATION = 1
RK_STEP_NOISE = 2


@dataclass
class InteractionGraphSample:
    """One window's inferred graph: sampled adjacency and edge features."""

    z: DArray            # (B, N, N); relaxed in train mode, {0,1} otherwise
    edge_feats: DArray   # (B, N, N, D), zero diagonal


def offdiag_pairs(x):
    """(B, N, N, F) -> (B, N-1, N, F): the pairs i != j in row-major order,
    of a DArray or, as a view, of an ndarray.

    Dropping the first flat entry leaves the diagonal as the last column
    of an (N-1, N+1) grid, so basic slices and reshapes suffice.
    """
    b, n, _, f = x.shape
    return x.reshape(b, n * n, f)[:, 1:].reshape(b, n - 1, n + 1, f)[:, :, :n]


def dense_pairs(x: DArray) -> DArray:
    """Inverse of `offdiag_pairs`: (B, N-1, N, F) -> (B, N, N, F), zero diagonal."""
    b, m, n, f = x.shape
    return ad.scatter(x, (b, n, n, f), offdiag_pairs)


def fan_out(x: DArray, k: int) -> DArray:
    """k copies of x stacked along its leading axis, k-major."""
    return x if k == 1 else ad.concat([x] * k, axis=0)


@functools.lru_cache(maxsize=64)
def _pair_targets(b: int, n: int):
    """The (B*N, B*(N-1)*N) incidence matrix (`autodiff.segments`) of each
    off-diagonal pair's target row b*N + j, in `offdiag_pairs` order."""
    rows = np.arange(b * n).reshape(b, 1, n, 1)
    return ad.segments(offdiag_pairs(np.broadcast_to(rows, (b, n, n, 1))).reshape(-1), b * n)


class GraphEncoder:
    def __init__(self, store: ParamStore, tau: int, hidden_dim: int, edge_dim: int,
                 gru_layers: int, temperature: float, rng: RngStream):
        if not temperature > 0:
            raise ConfigError(
                f"relation sampling temperature must be positive, got {temperature}")
        self.tau = tau
        self.hidden = hidden_dim
        self.edge_dim = edge_dim
        self.temperature = temperature
        two_blocks = lambda w: [(w, "elu", True), (w, "elu", True)]  # noqa: E731
        self.f_emb = MLP(store, "enc.emb", 2 * tau, two_blocks(hidden_dim), rng)
        self.f_e = MLP(store, "enc.edge1", hidden_dim, two_blocks(hidden_dim), rng)
        self.f_v = MLP(store, "enc.node", hidden_dim, two_blocks(hidden_dim), rng)
        self.f_e2 = MLP(store, "enc.edge2", hidden_dim, two_blocks(edge_dim), rng)
        self.edge_gru = GRUStack(store, "enc.edgegru", edge_dim, hidden_dim,
                                 gru_layers, rng)
        self.f_proj = MLP(store, "enc.proj", hidden_dim,
                          [(hidden_dim, "elu", True), (hidden_dim, "elu", True),
                           (1, None, False)], rng)

    # ----------------------------------------------------------- operations
    def embed_window(self, window, train: bool) -> DArray:
        """(B, N, tau, 2) trajectory fragment -> (B, N, H) node embeddings."""
        if not isinstance(window, DArray):
            window = DArray(window)
        b, n, t, _ = window.shape
        if t != self.tau:
            raise ContractError(f"window has {t} steps, expected tau={self.tau}")
        flat = window.reshape(b, n, 2 * self.tau)
        return self.f_emb(flat, train=train)

    def gnn_pass(self, v: DArray, train: bool) -> tuple[DArray, DArray]:
        """Node update and edge embeddings from pairwise latent differences."""
        b, n, h = v.shape
        if n < 2:
            raise ContractError("gnn pass needs at least 2 agents")
        diffs = v.reshape(b, n, 1, h) - v.reshape(b, 1, n, h)   # v_i - v_j
        msg = self.f_e(offdiag_pairs(diffs), train=train)
        agg = ad.segment_sum(msg.reshape(-1, h), _pair_targets(b, n))   # over sources i
        v_t = self.f_v(agg.reshape(b, n, h), train=train)
        tdiffs = v_t.reshape(b, n, 1, h) - v_t.reshape(b, 1, n, h)
        e_t = dense_pairs(self.f_e2(offdiag_pairs(tdiffs), train=train))
        return v_t, e_t

    def sample_edge_features(self, e_tilde: DArray, rng: RngStream,
                             noise_scale: float) -> DArray:
        """Reparameterized Gaussian around the edge embeddings."""
        if noise_scale == 0.0:
            return e_tilde
        noise = rng.normal(scale=noise_scale, size=e_tilde.shape)
        noise *= (1.0 - np.eye(e_tilde.shape[1]))[..., None]
        return e_tilde + DArray(noise)

    def update_relations(self, e_tilde: DArray, state: list[DArray] | None,
                         train: bool = True) -> tuple[DArray, list[DArray]]:
        """Advance the per-edge GRU and project to relation logits.

        The GRU state holds one row per off-diagonal pair; the returned
        (B, N, N) logits have a zero diagonal.
        """
        b, n, _, d = e_tilde.shape
        rows = offdiag_pairs(e_tilde).reshape(b * (n - 1) * n, d)
        if state is None:
            state = self.edge_gru.init_state((rows.shape[0],))
        out, new_state = self.edge_gru(rows, state)
        logits = self.f_proj(out, train=train).reshape(b, n - 1, n, 1)
        return dense_pairs(logits).reshape(b, n, n), new_state

    def sample_relations(self, logits: DArray, mode: str, rng: RngStream) -> DArray:
        """A sampled adjacency from relation logits in `mode` (see
        `EncoderRun.step`), zero on the diagonal. The hard modes draw from
        the relation probabilities as a plain array: no gradient flows
        through a hard draw.
        """
        mask = 1.0 - np.eye(logits.shape[-1])
        if mode == "train":
            noise = rng.logistic(size=logits.shape)
            return ad.sigmoid((logits + DArray(noise)) / self.temperature) * DArray(mask)
        if mode not in ("sample", "map"):
            raise ConfigError(f"unknown relation sampling mode: {mode}")
        probs = ad.sigmoid(logits.detach()).data * mask
        # probs is zero on the diagonal, so neither test draws a self-edge
        edges = rng.uniform(size=logits.shape) < probs if mode == "sample" else probs > 0.5
        return DArray(edges.astype(np.float64))


class EncoderRun:
    """Stateful window-by-window pass; edge GRU state persists per scene.

    Graphs are drawn for `rng.copies` copies of the B scenes of the first
    window, in k-major rows (row k*B + b). A window given on the B scene
    rows is embedded and its relations advanced once for every copy; only
    its edge-feature noise and relation draws run per copy. The first
    window given on the K*B copy rows fans the edge-GRU state out to them.
    """

    def __init__(self, encoder: GraphEncoder, edge_noise_scale: float):
        self.encoder = encoder
        self.edge_noise_scale = edge_noise_scale
        self.state: list[DArray] | None = None
        self.window_index = 0
        self.scenes = self.rows = 0

    def step(self, window, rng: RngStream, mode: str) -> InteractionGraphSample:
        """The next window's graph, drawn in one of three modes:

        train:  batch statistics, relaxed binary-concrete relations
                (differentiable) and edge noise at `edge_noise_scale`;
        sample: running statistics, hard Bernoulli edges and edge noise
                at `edge_noise_scale`;
        map:    running statistics, relations thresholded at probability
                1/2 and noise-free edge features: the mode of both
                distributions, the most likely graph.
        """
        enc = self.encoder
        train = mode == "train"
        w = self.window_index
        rows = window.shape[0]
        if w == 0:
            self.scenes = rows
        elif rows > self.rows:
            self.state = [fan_out(s, rows // self.rows) for s in self.state]
        self.rows = rows
        v = enc.embed_window(window, train=train)
        _, e_tilde = enc.gnn_pass(v, train=train)
        logits, self.state = enc.update_relations(e_tilde, self.state, train=train)
        copies = rng.copies * self.scenes // rows
        edge_feats = enc.sample_edge_features(
            fan_out(e_tilde, copies), rng.child(RK_EDGE_NOISE, w),
            0.0 if mode == "map" else self.edge_noise_scale)
        z = enc.sample_relations(fan_out(logits, copies), mode, rng.child(RK_RELATION, w))
        self.window_index += 1
        return InteractionGraphSample(z, edge_feats)
