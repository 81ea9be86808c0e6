"""Loss assembly, the two-update mixup strategy, teacher-forcing baselines,
and the outer training loop with best-checkpoint retention.

Strategies, as the (rollout input mode, lam) of the update every batch gets:
  plain     (free_run, -);
  GE        (free_run, -) plus the graph-complexity penalty;
  TF        (teacher, -): ground truth fed at every step;
  TF_plus   (boundary, 0): ground truth fed only at window boundaries;
  mixup     (boundary, lam ~ Beta(alpha, alpha)), then a second update: the
            free-run rollout imitates a stop-gradient copy of the mixed one;
  GE_mixup  mixup plus the penalty in the first update.

Mixup's alpha starts at `alpha_init` and, after every
`alpha_decay_interval`-th epoch of the loop's numbering (continued across
a resume), decays by `alpha_decay_factor` down to `alpha_floor`;
`MixState` carries only the current alpha between run segments.

All losses are normalized like the reconstruction loss (per agent, per
future step) so the logged columns are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DArray
from .data import Scene
from .errors import ConfigError, ContractError, DataError, NumericalError, ShapeError
from .graph_complexity import PENALTIES, graph_entropy, r_density, regularized_loss
from .model import TrajectoryModel
from .nn import gradients
from .optim import Adam
from .rng import STREAM_EVAL, STREAM_TRAIN, RngStream

# strategy -> (rollout input mode, lam) of the first update; None for
# mixup: lam is drawn per batch
STRATEGY_INPUTS = {"plain": ("free_run", None), "mixup": ("boundary", None),
                   "TF": ("teacher", None), "TF_plus": ("boundary", 0.0),
                   "GE": ("free_run", None), "GE_mixup": ("boundary", None)}
STRATEGIES = tuple(STRATEGY_INPUTS)


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 128
    learning_rate: float = 1e-3
    gamma: float = 0.0
    penalty: str = "entropy"
    strategy: str = "plain"
    alpha_init: float = 10.0
    alpha_decay_interval: int = 10
    alpha_decay_factor: float = 0.5
    alpha_floor: float = 0.1
    seed: int = 0
    val_samples: int = 3

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; "
                              f"expected one of {STRATEGIES}")
        if self.penalty not in PENALTIES:
            raise ConfigError(f"unknown penalty {self.penalty!r}; "
                              f"expected one of {tuple(PENALTIES)}")
        for name in ("alpha_init", "alpha_floor"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if not 0.0 <= self.alpha_decay_factor < math.inf:
            raise ConfigError("alpha_decay_factor must be nonnegative and finite, "
                              f"got {self.alpha_decay_factor}")
        if not self.alpha_decay_interval >= 1:
            raise ConfigError("alpha_decay_interval must be at least 1, "
                              f"got {self.alpha_decay_interval}")
        if not 0.0 <= self.gamma < math.inf:
            raise ConfigError(f"gamma must be nonnegative and finite, got {self.gamma}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 1 or self.batch_size < 1 or self.val_samples < 1:
            raise ConfigError("epochs, batch_size and val_samples must be positive")

    @property
    def uses_mixup(self) -> bool:
        return self.strategy in ("mixup", "GE_mixup")

    @property
    def effective_gamma(self) -> float:
        return self.gamma if self.strategy in ("GE", "GE_mixup") else 0.0


@dataclass
class MixState:
    """Current Beta(alpha, alpha) concentration, carried between runs."""

    alpha: float


def decay_alpha(alpha: float, epoch: int, cfg: TrainConfig) -> float:
    """Alpha after epoch `epoch`: `alpha_decay_factor` times it, no lower
    than `alpha_floor`, after every `alpha_decay_interval`-th epoch."""
    if (epoch + 1) % cfg.alpha_decay_interval == 0:
        return max(alpha * cfg.alpha_decay_factor, cfg.alpha_floor)
    return alpha


def reconstruction_loss(truth: np.ndarray, preds: DArray, t_history: int) -> DArray:
    """Mean squared future error per agent per step, averaged over scenes."""
    if tuple(truth.shape) != tuple(preds.shape):
        raise ShapeError(f"truth {truth.shape} vs predictions {preds.shape}")
    t_future = truth.shape[2] - t_history
    n = truth.shape[1]
    sl = (slice(None), slice(None), slice(t_history, None))
    diff = preds[sl] - DArray(truth[:, :, t_history:])
    per_scene = (diff * diff).sum(axis=(1, 2, 3)) / float(n * t_future)
    return per_scene.mean()


def sample_beta(alpha: float, rng: RngStream) -> float:
    """One draw of the symmetric Beta(alpha, alpha) mixing coefficient."""
    if alpha <= 0:
        raise ContractError("beta concentration must be positive")
    return rng.beta(alpha, alpha)


def _strategy_losses(model: TrajectoryModel, pos: np.ndarray, cats: np.ndarray,
                     rng: RngStream, cfg: TrainConfig, alpha: float,
                     optimizer: Adam) -> dict:
    """Run one batch under the configured strategy; returns logged scalars."""
    t_hist = model.cfg.t_history
    input_mode, lam = STRATEGY_INPUTS[cfg.strategy]
    if cfg.uses_mixup:
        lam = sample_beta(alpha, rng.child(0))
    # first update: reconstruct the rollout under the strategy's inputs
    graphs = model.infer_graphs_from_truth(pos, rng.child(1))
    preds = model.rollout(pos, cats, graphs, rng.child(2),
                          input_mode=input_mode, lam=lam)
    recon = reconstruction_loss(pos, preds, t_hist)
    loss = regularized_loss(recon, [g.z for g in graphs], cfg.effective_gamma,
                            cfg.penalty)
    _finite_or_raise(loss)
    optimizer.step(gradients(loss, model.store))
    l2 = 0.0
    if cfg.uses_mixup:
        # second update: free-run imitates the corrected rollout (frozen);
        # one stream gives both rollouts the same head noise. Every window
        # is encoded, so batch norm advances as in the first update, but
        # the tape of a window no rollout reads is dropped at once.
        graphs2 = model.infer_graphs_from_truth(pos, rng.child(3))[:model.decoded_windows]
        free = model.rollout(pos, cats, graphs2, rng.child(4),
                             input_mode="free_run")
        with ad.no_grad():
            target = model.rollout(pos, cats, graphs2, rng.child(4),
                                   input_mode="boundary", lam=lam)
        imitation = reconstruction_loss(target.data, free, t_hist)
        _finite_or_raise(imitation)
        optimizer.step(gradients(imitation, model.store))
        l2 = imitation.item()
    z = np.stack([g.z.data for g in graphs])          # (W, B, N, N)
    return {"loss": recon.item(), "l1": recon.item(), "l2": l2,
            "entropy": float(graph_entropy(z).mean(axis=-1).mean()),
            "density": float(r_density(z).mean(axis=-1).mean())}


def _finite_or_raise(loss: DArray):
    if not np.isfinite(loss.data).all():
        raise NumericalError(
            "loss became non-finite; try a lower learning rate or weaker coupling")


def validation_scores(model: TrajectoryModel, scenes: list[Scene],
                      n_samples: int, rng: RngStream) -> tuple[float, float]:
    """(free-run loss, mean ADE over samples) on normalized coordinates;
    the loss is sample 0's."""
    if not scenes:
        return math.nan, math.nan
    t_hist = model.cfg.t_history
    rollouts, _ = model.sample_scenes(
        scenes, lambda n, idx: [rng.child(k, idx[0]) for k in range(n_samples)])
    losses, ades = [], []
    for scene, out in zip(scenes, rollouts):
        diff = out[:, :, t_hist:] - scene.positions[:, t_hist:]   # (K, N, T_f, 2)
        ades.append(np.linalg.norm(diff, axis=-1).mean(axis=(1, 2)).mean())
        losses.append((diff[0] ** 2).sum() / (diff.shape[1] * diff.shape[2]))
    return float(np.mean(losses)), float(np.mean(ades))


@dataclass
class TrainResult:
    """What `train` returns besides the trained model, which holds the
    final parameters. `best_state` is a copy taken when validation last
    improved (the final parameters without validation scenes), and
    `optimizer_state` a copy of the finished optimizer's records."""

    history: list[dict]
    best_state: dict[str, np.ndarray]
    best_val_ade: float
    optimizer_state: dict[str, np.ndarray]
    mix_state: MixState
    epochs_done: int


def train(model: TrajectoryModel, cfg: TrainConfig, train_scenes: list[Scene],
          val_scenes: list[Scene], start_epoch: int = 0,
          optimizer_state: dict | None = None,
          mix_state: MixState | None = None,
          log_fn=None) -> TrainResult:
    """Run the selected strategy; keeps the best-validation parameters.

    `start_epoch`, `optimizer_state`, and `mix_state` allow resuming a run
    with continued epoch numbering and identical downstream behavior; alpha
    decays on the epoch numbers the log shows, so a resume without
    `mix_state` starts from `alpha_init` at epoch `start_epoch`.
    """
    if not train_scenes:
        raise DataError("training needs at least one scene")
    optimizer = Adam(model.store, lr=cfg.learning_rate)
    if optimizer_state is not None:
        optimizer.load_state_dict(optimizer_state)
    alpha = mix_state.alpha if mix_state is not None else cfg.alpha_init
    root = RngStream(cfg.seed)
    history: list[dict] = []
    best_val = math.inf
    # without validation scenes the final parameters are the best ones
    best_state = model.state_dict() if val_scenes else None

    for epoch in range(start_epoch, start_epoch + cfg.epochs):
        batch_rng = root.child(STREAM_TRAIN, epoch)
        batches = TrajectoryModel.batch_scenes(
            train_scenes, batch_rng.child(0).permutation(len(train_scenes)),
            cfg.batch_size)
        sums = {"loss": 0.0, "l1": 0.0, "l2": 0.0, "entropy": 0.0, "density": 0.0}
        n_scenes = 0
        for bi, (pos, cats, _) in enumerate(batches):
            metrics = _strategy_losses(model, pos, cats, batch_rng.child(1 + bi),
                                       cfg, alpha, optimizer)
            w = pos.shape[0]
            n_scenes += w
            for k in sums:
                sums[k] += metrics[k] * w
        means = {k: v / n_scenes for k, v in sums.items()}

        val_loss, val_ade = validation_scores(
            model, val_scenes, cfg.val_samples, root.child(STREAM_EVAL, epoch))
        row = {"epoch": epoch, "strategy": cfg.strategy,
               "train_loss": means["loss"], "val_loss": val_loss,
               "L1": means["l1"], "L2": means["l2"],
               "entropy": means["entropy"], "density": means["density"],
               "alpha": alpha, "gamma": cfg.effective_gamma}
        history.append(row)
        if log_fn is not None:
            log_fn(row)
        if val_scenes and val_ade < best_val:
            best_val = val_ade
            best_state = model.state_dict()
        alpha = decay_alpha(alpha, epoch, cfg)

    if not val_scenes:
        best_state = model.state_dict()
    return TrainResult(history=history, best_state=best_state, best_val_ade=best_val,
                       optimizer_state=optimizer.state_dict(),
                       mix_state=MixState(alpha),
                       epochs_done=start_epoch + cfg.epochs)
