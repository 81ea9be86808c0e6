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

A sample's randomness enters at its first graph: the edge-feature noise
and relation draws of window 0, and later the head noise, which only the
steps whose prediction is read (step t_history on) draw. Before that,
every sample computes the same thing, so the K samples share it: the
windows inside the observed history are embedded and their edge-GRU
state advanced once per scene, and the decoder's graph-free burn-in
steps run once on the B scene rows before the state fans out to the K*B
sample rows.

Rollout input modes:
  teacher    ground truth at every step (the TF baseline);
  free_run   ground truth during history, own predictions afterwards;
  boundary   free_run, but at each window boundary the next window is
             seeded with mix(stop_grad(prediction), truth, lam)
             (lam = 0 recovers the TF+ baseline).

`ModelConfig.step_noise` is the one head-noise switch; only `predict_batch`
overrides `edge_noise_scale` (the edge-quality audit sets it to 0).
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
from .errors import ConfigError, ContractError, DataError
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
            raise ConfigError(f"n_categories must be at least 1, got {self.n_categories}")
        plan_windows(self.t_history, self.t_future, self.tau)   # the horizon and tau
        for name in ("hidden_dim", "edge_dim", "attn_dim", "gru_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.temperature > 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if not 0.0 <= self.edge_noise_scale < np.inf:
            raise ConfigError("edge_noise_scale must be nonnegative and finite, "
                              f"got {self.edge_noise_scale}")


def mix(pred, truth, lam: float):
    """Convex combination lam * pred + (1 - lam) * truth."""
    if not 0.0 <= lam <= 1.0:
        raise ContractError("mixing coefficient must lie in [0, 1]")
    return lam * pred + (1.0 - lam) * truth


class TrajectoryModel:
    def __init__(self, cfg: ModelConfig, seed: int):
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
        within a size, at most `batch_size` (default: all) per batch. The
        scenes share one step count (`data.check_scenes`), else DataError
        names the first scene whose count differs from the first's."""
        order = range(len(scenes)) if order is None else order
        by_n: dict[int, list[int]] = {}
        for i in order:
            by_n.setdefault(scenes[i].n_agents, []).append(int(i))
            s, first = scenes[i], scenes[order[0]]
            if s.n_steps != first.n_steps:
                raise DataError(f"scene {s.scene_id} has {s.n_steps} steps, "
                                f"scene {first.scene_id} has {first.n_steps}")
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
                                ) -> list[InteractionGraphSample]:
        """One graph per window, embedded from the given full trajectory."""
        self._check_steps(positions)
        run = EncoderRun(self.encoder, self.cfg.edge_noise_scale)
        graphs = []
        for w in range(self.plan.n_windows):
            lo, hi = self.plan.window_steps(w)
            graphs.append(run.step(positions[:, :, lo:hi], rng, mode, train))
        return graphs

    # ---------------------------------------------------------------- decode
    def rollout(self, positions: np.ndarray, categories: np.ndarray,
                graphs: list[InteractionGraphSample], rng: RngStream, *,
                input_mode: str = "free_run", lam: float | None = None,
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
        return ad.stack(self._decode(positions, categories, lambda w, inputs: graphs[w],
                                     rng, input_mode, lam, boundary_probe), axis=2)

    def predict_batch(self, positions: np.ndarray, categories: np.ndarray,
                      rng: RngStream, sample_mode: str = "sample",
                      edge_noise_scale: float | None = None,
                      ) -> tuple[np.ndarray, list[InteractionGraphSample]]:
        """Free-run decode on graphs re-inferred from its own predictions.

        Window w is embedded once the decoder has consumed its steps, from
        those step inputs: ground truth in history, predictions after. The
        returned array carries ground truth history and predicted future.

        `rng` decodes `rng.copies` copies of the B scenes: one for an
        `RngStream`, K for a `StackedStream` of K members, in k-major rows
        (row k*B + b draws from member k). The result has K*B rows, and so
        do the graphs. The copies share the work before their first graph
        draw: history windows are embedded from `positions` once, and the
        decoder's burn-in runs once (`_decode`).
        """
        self._check_steps(positions)
        scale = self.cfg.edge_noise_scale if edge_noise_scale is None else edge_noise_scale
        enc = EncoderRun(self.encoder, scale)
        t_hist = self.cfg.t_history
        graphs: list[InteractionGraphSample] = []

        def window_graph(w: int, inputs: list[DArray]) -> InteractionGraphSample:
            if w == len(graphs):
                lo, hi = self.plan.window_steps(w)
                if hi <= t_hist:     # observed: on the scene rows
                    window = positions[:, :, lo:hi]
                else:
                    window = np.stack([x.data for x in inputs[lo:hi]], axis=2)
                graphs.append(enc.step(window, rng, sample_mode, train=False))
            return graphs[w]

        with ad.no_grad():
            preds = self._decode(positions, categories, window_graph, rng,
                                 "free_run", None, None)
        out = np.tile(positions, (rng.copies, 1, 1, 1))
        out[:, :, t_hist:] = np.stack([p.data for p in preds[t_hist:]], axis=2)
        return out, graphs

    def _decode(self, positions: np.ndarray, categories: np.ndarray,
                window_graph, rng: RngStream, input_mode: str,
                lam: float | None, boundary_probe: DArray | None) -> list[DArray]:
        """The one recursive loop behind `rollout` and `predict_batch`.

        `window_graph(w, inputs)` returns window w's graph, given the
        decoder inputs of the steps so far. Returns the T per-step
        predictions; index 0 carries the observed first step.

        Only steps whose prediction is read draw head noise: those
        predicting step t_history or later. An earlier prediction feeds no
        later step, as the next input is the observed position, and each
        step draws from its own child stream, so skipping the others
        changes no prediction that is read. With K = `rng.copies`
        > 1, the steps before the first graph run once on the B scene rows;
        the first step that reads a graph fans the state out to the K*B
        copy rows.
        """
        plan = self.plan
        t_hist = self.cfg.t_history
        copies = rng.copies
        n = positions.shape[1]
        dec = DecoderRun(self.decoder, positions.shape[0], n, categories)

        preds: list[DArray] = [DArray(positions[:, :, 0])]
        inputs: list[DArray] = []
        shared = copies > 1    # the copies still share the scene rows
        for t in range(plan.t_total - 1):
            gi = plan.graph_index_for_target(t + 1)
            if shared and gi >= 0:
                positions = np.tile(positions, (copies, 1, 1, 1))
                dec.fan_out(copies)
                shared = False
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
                x_in = mix(pred_b.detach(), truth_t, lam)
            else:
                x_in = preds[t]
            inputs.append(x_in)
            graph = window_graph(gi, inputs) if gi >= 0 else None
            if self.cfg.step_noise and t + 1 >= t_hist:
                eps = rng.child(RK_STEP_NOISE, t).normal(
                    size=(dec.batch, n, self.cfg.hidden_dim))
            else:
                eps = None
            preds.append(dec.step(x_in, graph, eps, gi))
        return preds

    def sample_rollouts(self, positions: np.ndarray, categories: np.ndarray,
                        streams: list[RngStream], **predict_kw,
                        ) -> tuple[np.ndarray, list[InteractionGraphSample]]:
        """K = len(streams) `predict_batch` rollouts as one k-major batch.

        Row k*B + b draws from streams[k] what sample k of scene b would draw
        alone, and eval batch norm (running statistics) keeps rows apart.
        The samples share each scene's observed burn-in and history windows,
        which run once (`predict_batch`). Returns (K, B, N, T, 2) predictions
        and graphs with K*B rows.
        """
        k = len(streams)
        out, graphs = self.predict_batch(positions, categories, StackedStream(streams),
                                         **predict_kw)
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
