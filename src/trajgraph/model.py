"""Full forecasting model: latent-graph encoder plus recursive decoder.

Training-time graph inference consumes ground-truth windows for the whole
trajectory; evaluation interleaves encoder and decoder so future windows
are embedded from the model's own predictions (history steps stay ground
truth). Scenes of equal agent count are batched densely as (B, N, ...)
tensors; scenes never exchange information, so this is equivalent to
batching them as disconnected components of one large graph.

Rollout input modes:
  teacher    ground truth at every step (the TF baseline);
  free_run   ground truth during history, own predictions afterwards;
  boundary   free_run, but at each window boundary the next window is
             seeded with lam * stop_grad(prediction) + (1 - lam) * truth
             (lam = 0 recovers the TF+ baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")


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
    def batch_scenes(scenes: list[Scene]) -> list[tuple[np.ndarray, np.ndarray, list[int]]]:
        """Group same-size scenes into dense (positions, categories, indices)."""
        by_n: dict[int, list[int]] = {}
        for i, s in enumerate(scenes):
            by_n.setdefault(s.n_agents, []).append(i)
        out = []
        for n in sorted(by_n):
            idx = by_n[n]
            pos = np.stack([scenes[i].positions for i in idx])
            cats = np.stack([scenes[i].categories for i in idx])
            out.append((pos, cats, idx))
        return out

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

    # --------------------------------------------------------------- rollout
    def rollout(self, positions: np.ndarray, categories: np.ndarray,
                graphs: list[InteractionGraphSample], rng: RngStream, *,
                input_mode: str = "free_run", lam: float | None = None,
                noise: bool | None = None, train: bool = True,
                eps_schedule: list | None = None,
                boundary_probe: DArray | None = None) -> DArray:
        """Recursive decode over the full horizon with fixed graphs.

        Returns (B, N, T, 2) predictions; index 0 carries the observed
        first step. `eps_schedule` lets two rollouts share identical head
        noise; `boundary_probe` multiplies the pre-mix boundary prediction
        (a test hook for the stop-gradient isolation check).
        """
        self._check_steps(positions)
        if input_mode not in ("teacher", "free_run", "boundary"):
            raise ConfigError(f"unknown rollout input mode: {input_mode}")
        if input_mode == "boundary" and lam is None:
            raise ContractError("boundary mode needs a mixing coefficient")
        plan = self.plan
        t_total, t_hist = plan.t_total, self.cfg.t_history
        needed = plan.graph_index_for_target(t_total - 1) + 1
        if len(graphs) < needed:
            raise ContractError(
                f"rollout needs {needed} window graphs, got {len(graphs)}")
        use_noise = self.cfg.step_noise if noise is None else noise
        b, n = positions.shape[0], positions.shape[1]
        dec = DecoderRun(self.decoder, b, n, categories, self.cfg.gru_layers)

        preds: list[DArray] = [DArray(positions[:, :, 0])]
        for t in range(t_total - 1):
            truth_t = DArray(positions[:, :, t])
            if input_mode == "teacher":
                x_in = truth_t
            elif input_mode == "free_run":
                x_in = truth_t if t < t_hist else preds[t]
            else:  # boundary
                # mixing corrects each future window's final prediction; the
                # historical steps stay pure burn-in so that lam = 1 recovers
                # the free-run rollout exactly
                at_boundary = (t + 1) % plan.tau == 0 and t >= t_hist
                if t < t_hist:
                    x_in = truth_t
                elif at_boundary:
                    pred_b = preds[t]
                    if boundary_probe is not None:
                        pred_b = pred_b * boundary_probe
                    x_in = lam * pred_b.detach() + (1.0 - lam) * truth_t
                else:
                    x_in = preds[t]
            gi = plan.graph_index_for_target(t + 1)
            graph = graphs[gi] if gi >= 0 else None
            if eps_schedule is not None:
                eps = eps_schedule[t]
            elif use_noise:
                eps = rng.child(RK_STEP_NOISE, t).normal(
                    size=(b, n, self.cfg.hidden_dim))
            else:
                eps = None
            preds.append(dec.step(x_in, graph, eps, train))
        return ad.stack(preds, axis=2)

    def draw_eps_schedule(self, rng: RngStream, b: int, n: int) -> list[np.ndarray]:
        """Pre-draw the residual-head noise so twin rollouts can share it."""
        return [rng.child(RK_STEP_NOISE, t).normal(size=(b, n, self.cfg.hidden_dim))
                for t in range(self.plan.t_total - 1)]

    # ------------------------------------------------------------ prediction
    def predict_batch(self, positions: np.ndarray, categories: np.ndarray,
                      rng: RngStream, sample_mode: str = "sample",
                      noise: bool | None = None,
                      edge_noise_scale: float | None = None,
                      ) -> tuple[np.ndarray, list[InteractionGraphSample]]:
        """Evaluation rollout with on-the-fly graph inference.

        Future windows are embedded from the model's own predictions; the
        returned array carries ground truth history and predicted future.
        """
        self._check_steps(positions)
        plan = self.plan
        t_total, t_hist = plan.t_total, self.cfg.t_history
        use_noise = self.cfg.step_noise if noise is None else noise
        scale = self.cfg.edge_noise_scale if edge_noise_scale is None else edge_noise_scale
        b, n = positions.shape[0], positions.shape[1]
        with ad.no_grad():
            buffer = positions.copy()
            enc = EncoderRun(self.encoder, scale)
            dec = DecoderRun(self.decoder, b, n, categories, self.cfg.gru_layers)
            graphs: list[InteractionGraphSample] = []
            for t in range(t_total - 1):
                gi = plan.graph_index_for_target(t + 1)
                while gi >= 0 and len(graphs) <= gi:
                    w = len(graphs)
                    lo, hi = plan.window_steps(w)
                    graphs.append(enc.step(buffer[:, :, lo:hi], rng,
                                           sample_mode, train=False))
                graph = graphs[gi] if gi >= 0 else None
                if use_noise:
                    eps = rng.child(RK_STEP_NOISE, t).normal(
                        size=(b, n, self.cfg.hidden_dim))
                else:
                    eps = None
                mu = dec.step(DArray(buffer[:, :, t]), graph, eps, train=False)
                if t + 1 >= t_hist:
                    buffer[:, :, t + 1] = mu.data
        return buffer, graphs

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

    # ---------------------------------------------------------- persistence
    def state_dict(self) -> dict[str, np.ndarray]:
        return self.store.state_dict()

    def load_state_dict(self, state: dict[str, np.ndarray]):
        self.store.load_state_dict(state)
