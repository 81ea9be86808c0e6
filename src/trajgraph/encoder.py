"""Latent interaction-graph encoder.

Per time window the encoder embeds each agent's trajectory fragment, runs
a two-pass GNN over the complete directed graph to produce edge
representations, evolves a per-edge GRU across windows, and emits both
relation probabilities and sampled adjacencies. Training uses the relaxed
binary-concrete sample so gradients reach the encoder; testing draws hard
Bernoulli edges (or thresholds them in the deterministic "map" mode).

Array convention: batches of same-size scenes, so node tensors are
(B, N, H) and edge tensors (B, N, N, ...) with index [b, i, j] meaning the
directed pair i -> j. The edge MLPs, the edge GRU and the relation
projection run only on the N(N-1) off-diagonal pairs, gathered once per
use by `offdiag_pairs`; batch-norm statistics therefore cover exactly
those pairs. Dense edge tensors carry a zero diagonal.
"""

from __future__ import annotations

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

    @property
    def n_agents(self) -> int:
        return self.z.shape[-1]


def offdiag_pairs(x: DArray) -> DArray:
    """(B, N, N, F) -> (B, N-1, N, F): the pairs i != j in row-major order.

    Dropping the first flat entry leaves the diagonal as the last column
    of an (N-1, N+1) grid, so basic slices and reshapes suffice.
    """
    b, n, _, f = x.shape
    return x.reshape(b, n * n, f)[:, 1:].reshape(b, n - 1, n + 1, f)[:, :, :n]


def dense_pairs(x: DArray) -> DArray:
    """Inverse of `offdiag_pairs`: (B, N-1, N, F) -> (B, N, N, F), zero diagonal."""
    b, m, n, f = x.shape
    padded = ad.concat([x, DArray(np.zeros((b, m, 1, f)))], axis=2)
    flat = ad.concat([DArray(np.zeros((b, 1, f))),
                      padded.reshape(b, m * (n + 1), f)], axis=1)
    return flat.reshape(b, n, n, f)


class GraphEncoder:
    def __init__(self, store: ParamStore, n_categories: int, tau: int,
                 hidden_dim: int, edge_dim: int, gru_layers: int,
                 temperature: float, rng: RngStream):
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
        msg = dense_pairs(self.f_e(offdiag_pairs(diffs), train=train))
        agg = msg.sum(axis=1)                          # sum over sources i
        v_t = self.f_v(agg, train=train)
        tdiffs = v_t.reshape(b, n, 1, h) - v_t.reshape(b, 1, n, h)
        e_t = dense_pairs(self.f_e2(offdiag_pairs(tdiffs), train=train))
        return v_t, e_t

    def sample_edge_features(self, e_tilde: DArray, rng: RngStream,
                             noise_scale: float = 1.0) -> DArray:
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
        """A sampled adjacency from relation logits, zero on the diagonal.

        train: relaxed binary-concrete sample (differentiable);
        sample: hard Bernoulli draw per ordered pair;
        map:    deterministic threshold at probability 1/2.
        The hard modes draw from the relation probabilities as a plain
        array: no gradient flows through a hard draw.
        """
        mask = 1.0 - np.eye(logits.shape[-1])
        if mode == "train":
            noise = rng.logistic(size=logits.shape) * mask
            return ad.sigmoid((logits + DArray(noise)) / self.temperature) * DArray(mask)
        if mode not in ("sample", "map"):
            raise ConfigError(f"unknown relation sampling mode: {mode}")
        probs = ad.sigmoid(logits.detach()).data * mask
        edges = rng.uniform(size=logits.shape) < probs if mode == "sample" else probs > 0.5
        return DArray((edges * mask).astype(np.float64))


class EncoderRun:
    """Stateful window-by-window pass; edge GRU state persists per scene."""

    def __init__(self, encoder: GraphEncoder, edge_noise_scale: float = 1.0):
        self.encoder = encoder
        self.edge_noise_scale = edge_noise_scale
        self.state: list[DArray] | None = None
        self.window_index = 0

    def step(self, window, rng: RngStream, mode: str, train: bool) -> InteractionGraphSample:
        enc = self.encoder
        w = self.window_index
        v = enc.embed_window(window, train=train)
        _, e_tilde = enc.gnn_pass(v, train=train)
        edge_feats = enc.sample_edge_features(
            e_tilde, rng.child(RK_EDGE_NOISE, w), self.edge_noise_scale)
        logits, self.state = enc.update_relations(e_tilde, self.state, train=train)
        z = enc.sample_relations(logits, mode, rng.child(RK_RELATION, w))
        self.window_index += 1
        return InteractionGraphSample(z, edge_feats)
