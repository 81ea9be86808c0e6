"""Full forecasting model: latent-graph encoder plus recursive decoder.

One loop decodes the horizon step by step. Training (`rollout`) runs it on
graphs inferred from ground-truth windows for the whole trajectory;
evaluation (`predict_batch`) free-runs it and interleaves the encoder, so
future windows are embedded from the model's own predictions (history
steps stay ground truth). Scenes of equal agent count are batched densely
as (B, N, ...) tensors; scenes never exchange information, so this is
equivalent to batching them as disconnected components of one large graph.
`sample_scenes` draws K stochastic rollouts of every scene of a list: one
batched `sample_rollouts` call per same-size group, results in input order.

Rollout input modes:
  teacher    ground truth at every step (the TF baseline);
  free_run   ground truth during history, own predictions afterwards;
  boundary   free_run, but at each window boundary the next window is
             seeded with lam * stop_grad(prediction) + (1 - lam) * truth
             (lam = 0 recovers the TF+ baseline).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DArray
from .data import Scene, WindowPlan, plan_windows
from .decoder import DecoderRun, TrajectoryDecoder
from .encoder import (RK_STEP_NOISE, EncoderRun, GraphEncoder,
                      InteractionGraphSample)
from .errors import ConfigError, ContractError
from .nn import ParamStore
from .rng import STREAM_INIT, RngStream, StackedStream


@dataclass
class ModelConfig:
    n_categories: int = 3
    t_history: int = 5
    t_future: int = 10
    tau: int = 5
    hidden_dim: int = 128
    edge_dim: int = 128
    attn_dim: int = 128
    gru_layers: int = 2
    temperature: float = 0.5
    homogeneous: bool = False
    edge_noise_scale: float = 1.0   # gaussian scale on edge features
    step_noise: bool = True         # epsilon inside the residual head

    def __post_init__(self):
        if self.n_categories < 1:
            raise ConfigError("need at least one category")
        if min(self.hidden_dim, self.edge_dim, self.attn_dim, self.gru_layers) < 1:
            raise ConfigError("model dimensions must be positive")
        if not self.temperature > 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if not 0.0 <= self.edge_noise_scale < np.inf:
            raise ConfigError("edge_noise_scale must be nonnegative and finite, "
                              f"got {self.edge_noise_scale}")


class TrajectoryModel:
    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        self.seed = seed
        self.plan: WindowPlan = plan_windows(cfg.t_history, cfg.t_future, cfg.tau)
        self.store = ParamStore()
        rng = RngStream(seed).child(STREAM_INIT)
        self.encoder = GraphEncoder(self.store, cfg.n_categories, cfg.tau,
                                    cfg.hidden_dim, cfg.edge_dim, cfg.gru_layers,
                                    cfg.temperature, rng.child(0))
        self.decoder = TrajectoryDecoder(self.store, cfg.n_categories,
                                         cfg.hidden_dim, cfg.edge_dim,
                                         cfg.attn_dim, cfg.gru_layers,
                                         cfg.homogeneous, rng.child(1))

    # ------------------------------------------------------------- batching
    @staticmethod
    def batch_scenes(scenes: list[Scene], order=None, batch_size: int | None = None):
        """Yield dense (positions, categories, indices) batches of same-size
        scenes: sizes ascending, scenes in `order` (default: input order)
        within a size, at most `batch_size` (default: all) per batch."""
        by_n: dict[int, list[int]] = {}
        for i in range(len(scenes)) if order is None else order:
            by_n.setdefault(scenes[i].n_agents, []).append(int(i))
        for n in sorted(by_n):
            idx = by_n[n]
            step = batch_size or len(idx)
            for lo in range(0, len(idx), step):
                chunk = idx[lo:lo + step]
                yield (np.stack([scenes[i].positions for i in chunk]),
                       np.stack([scenes[i].categories for i in chunk]), chunk)

    @property
    def decoded_windows(self) -> int:
        """How many window graphs a rollout reads: those up to the one that
        drives the last step."""
        return self.plan.graph_index_for_target(self.plan.t_total - 1) + 1

    def _check_steps(self, positions: np.ndarray):
        if positions.shape[2] != self.plan.t_total:
            raise ContractError(
                f"scenes have {positions.shape[2]} steps, model expects "
                f"{self.plan.t_total}")

    # ------------------------------------------------------ graph inference
    def infer_graphs_from_truth(self, positions: np.ndarray, rng: RngStream,
                                mode: str = "train", train: bool = True,
                                edge_noise_scale: float | None = None,
                                ) -> list[InteractionGraphSample]:
        """One graph per window, embedded from the given full trajectory."""
        self._check_steps(positions)
        scale = self.cfg.edge_noise_scale if edge_noise_scale is None else edge_noise_scale
        run = EncoderRun(self.encoder, scale)
        graphs = []
        for w in range(self.plan.n_windows):
            lo, hi = self.plan.window_steps(w)
            graphs.append(run.step(positions[:, :, lo:hi], rng, mode, train))
        return graphs

    # ---------------------------------------------------------------- decode
    def rollout(self, positions: np.ndarray, categories: np.ndarray,
                graphs: list[InteractionGraphSample], rng: RngStream, *,
                input_mode: str = "free_run", lam: float | None = None,
                noise: bool | None = None,
                boundary_probe: DArray | None = None) -> DArray:
        """Recursive decode over the full horizon with fixed graphs.

        Returns (B, N, T, 2) predictions; index 0 carries the observed
        first step. Rollouts on one stream draw identical head noise;
        `boundary_probe` multiplies the pre-mix boundary prediction (a test
        hook for the stop-gradient isolation check).
        """
        self._check_steps(positions)
        if input_mode not in ("teacher", "free_run", "boundary"):
            raise ConfigError(f"unknown rollout input mode: {input_mode}")
        if input_mode == "boundary" and lam is None:
            raise ContractError("boundary mode needs a mixing coefficient")
        needed = self.decoded_windows
        if len(graphs) < needed:
            raise ContractError(
                f"rollout needs {needed} window graphs, got {len(graphs)}")
        return self._decode(positions, categories, lambda w, inputs: graphs[w],
                            rng, input_mode, lam, noise, boundary_probe)

    def predict_batch(self, positions: np.ndarray, categories: np.ndarray,
                      rng: RngStream, sample_mode: str = "sample",
                      noise: bool | None = None,
                      edge_noise_scale: float | None = None,
                      ) -> tuple[np.ndarray, list[InteractionGraphSample]]:
        """Free-run decode on graphs re-inferred from its own predictions.

        Window w is embedded once the decoder has consumed its steps, from
        those step inputs: ground truth in history, predictions after. The
        returned array carries ground truth history and predicted future.
        """
        self._check_steps(positions)
        scale = self.cfg.edge_noise_scale if edge_noise_scale is None else edge_noise_scale
        enc = EncoderRun(self.encoder, scale)
        graphs: list[InteractionGraphSample] = []

        def window_graph(w: int, inputs: list[DArray]) -> InteractionGraphSample:
            if w == len(graphs):
                lo, hi = self.plan.window_steps(w)
                window = np.stack([x.data for x in inputs[lo:hi]], axis=2)
                graphs.append(enc.step(window, rng, sample_mode, train=False))
            return graphs[w]

        with ad.no_grad():
            preds = self._decode(positions, categories, window_graph, rng,
                                 "free_run", None, noise, None)
        out = positions.copy()
        t_hist = self.cfg.t_history
        out[:, :, t_hist:] = preds.data[:, :, t_hist:]
        return out, graphs

    def _decode(self, positions: np.ndarray, categories: np.ndarray,
                window_graph, rng: RngStream, input_mode: str,
                lam: float | None, noise: bool | None,
                boundary_probe: DArray | None) -> DArray:
        """The one recursive loop behind `rollout` and `predict_batch`.

        `window_graph(w, inputs)` returns window w's graph, given the
        decoder inputs of the steps so far.
        """
        plan = self.plan
        t_hist = self.cfg.t_history
        use_noise = self.cfg.step_noise if noise is None else noise
        b, n = positions.shape[0], positions.shape[1]
        dec = DecoderRun(self.decoder, b, n, categories)

        preds: list[DArray] = [DArray(positions[:, :, 0])]
        inputs: list[DArray] = []
        for t in range(plan.t_total - 1):
            truth_t = DArray(positions[:, :, t])
            if input_mode == "teacher" or t < t_hist:
                x_in = truth_t
            elif input_mode == "boundary" and (t + 1) % plan.tau == 0:
                # mixing corrects each future window's final prediction; the
                # historical steps stay pure burn-in so that lam = 1 recovers
                # the free-run rollout exactly
                pred_b = preds[t]
                if boundary_probe is not None:
                    pred_b = pred_b * boundary_probe
                x_in = lam * pred_b.detach() + (1.0 - lam) * truth_t
            else:
                x_in = preds[t]
            inputs.append(x_in)
            gi = plan.graph_index_for_target(t + 1)
            graph = window_graph(gi, inputs) if gi >= 0 else None
            if use_noise:
                eps = rng.child(RK_STEP_NOISE, t).normal(
                    size=(b, n, self.cfg.hidden_dim))
            else:
                eps = None
            preds.append(dec.step(x_in, graph, eps, gi))
        return ad.stack(preds, axis=2)

    def sample_rollouts(self, positions: np.ndarray, categories: np.ndarray,
                        streams: list[RngStream], **predict_kw,
                        ) -> tuple[np.ndarray, list[InteractionGraphSample]]:
        """K = len(streams) `predict_batch` rollouts as one k-major batch.

        Row k*B + b draws from streams[k] what sample k of scene b would draw
        alone, and eval batch norm (running statistics) keeps rows apart.
        Returns (K, B, N, T, 2) predictions and graphs with K*B rows.
        """
        k = len(streams)
        out, graphs = self.predict_batch(
            np.tile(positions, (k, 1, 1, 1)), np.tile(categories, (k, 1)),
            StackedStream(streams), **predict_kw)
        return out.reshape((k,) + positions.shape), graphs

    def sample_scenes(self, scenes: list[Scene], streams, **predict_kw,
                      ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """K stochastic rollouts of every scene, one `sample_rollouts` call
        per same-size group.

        `streams(n_agents, indices)` gives the K streams of the group of
        those scenes. Returns, in input order, each scene's (K, N, T, 2)
        rollouts and (K, W, N, N) sampled window adjacencies.
        """
        rollouts: list = [None] * len(scenes)
        graphs: list = [None] * len(scenes)
        for pos, cats, idx in self.batch_scenes(scenes):
            out, sampled = self.sample_rollouts(pos, cats, streams(pos.shape[1], idx),
                                                **predict_kw)
            z = np.stack([g.z.data.reshape(out.shape[:2] + g.z.shape[1:])
                          for g in sampled], axis=2)       # (K, B, W, N, N)
            for row, i in enumerate(idx):
                rollouts[i], graphs[i] = out[:, row], z[:, row]
        return rollouts, graphs

    # ---------------------------------------------------------- persistence
    def state_dict(self) -> dict[str, np.ndarray]:
        return self.store.state_dict()

    def load_state_dict(self, state: dict[str, np.ndarray]):
        self.store.load_state_dict(state)
