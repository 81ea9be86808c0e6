"""Scikit-learn style estimator facade.

`TrajectoryForecaster` exposes the whole system through the familiar
get_params / set_params / fit / predict / score surface so it composes
with ecosystem tooling (grid search, cloning, pipelines). Constructor
arguments are stored verbatim; everything learned lives in trailing-
underscore attributes set by fit().

Scenes are expected in normalized coordinates (the dataset format); use a
Normalizer to go back to source units.
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np

from .config import check_seed
from .data import Scene, split_scenes
from .errors import ConfigError, ContractError, DataError
from .evaluation import ade_fde, eval_rollouts
from .model import ModelConfig, TrajectoryModel
from .training import TrainConfig, train

# dataclass defaults, read by the explicit signature get_params inspects
_M = {f.name: f.default for f in dataclasses.fields(ModelConfig)}
_T = {f.name: f.default for f in dataclasses.fields(TrainConfig)}


def check_scenes(scenes: list[Scene], n_categories: int,
                 t_total: int | None = None) -> list[Scene]:
    """Validate a scene list against the model's expectations."""
    if not scenes:
        raise DataError("empty scene list")
    for s in scenes:
        if not isinstance(s, Scene):
            raise DataError(f"expected Scene, got {type(s).__name__}")
        if t_total is not None and s.n_steps != t_total:
            raise DataError(f"scene {s.scene_id}: {s.n_steps} steps, "
                            f"expected {t_total}")
        if s.categories.min() < 0 or s.categories.max() >= n_categories:
            raise ConfigError(f"scene {s.scene_id}: category out of range "
                              f"[0, {n_categories})")
        if np.abs(s.positions).max() > 1.0 + 1e-9:
            raise DataError(f"scene {s.scene_id}: coordinates outside [-1, 1]; "
                            "normalize before fitting")
    return scenes


class TrajectoryForecaster:
    """Heterogeneous multi-agent trajectory forecaster.

    fit() trains on normalized scenes with the configured strategy and
    keeps the best-validation parameters; predict() draws stochastic
    future rollouts per scene; score() returns the negative mean ADE so
    that larger is better.
    """

    def __init__(self, n_categories=_M["n_categories"], t_history=_M["t_history"],
                 t_future=_M["t_future"], tau=_M["tau"], hidden_dim=_M["hidden_dim"],
                 edge_dim=_M["edge_dim"], attn_dim=_M["attn_dim"],
                 gru_layers=_M["gru_layers"], temperature=_M["temperature"],
                 homogeneous=_M["homogeneous"], edge_noise_scale=_M["edge_noise_scale"],
                 step_noise=_M["step_noise"], strategy=_T["strategy"], gamma=_T["gamma"],
                 penalty=_T["penalty"], epochs=_T["epochs"], batch_size=_T["batch_size"],
                 learning_rate=_T["learning_rate"], alpha_init=_T["alpha_init"],
                 alpha_decay_interval=_T["alpha_decay_interval"],
                 alpha_decay_factor=_T["alpha_decay_factor"],
                 alpha_floor=_T["alpha_floor"], n_samples=20, val_fraction=0.1,
                 seed=_T["seed"]):
        self.n_categories = n_categories
        self.t_history = t_history
        self.t_future = t_future
        self.tau = tau
        self.hidden_dim = hidden_dim
        self.edge_dim = edge_dim
        self.attn_dim = attn_dim
        self.gru_layers = gru_layers
        self.temperature = temperature
        self.homogeneous = homogeneous
        self.edge_noise_scale = edge_noise_scale
        self.step_noise = step_noise
        self.strategy = strategy
        self.gamma = gamma
        self.penalty = penalty
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.alpha_init = alpha_init
        self.alpha_decay_interval = alpha_decay_interval
        self.alpha_decay_factor = alpha_decay_factor
        self.alpha_floor = alpha_floor
        self.n_samples = n_samples
        self.val_fraction = val_fraction
        self.seed = seed

    # ------------------------------------------------- sklearn param surface
    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [p for p in sig.parameters if p != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "TrajectoryForecaster":
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ConfigError(f"invalid parameter {key!r} for "
                                  f"{type(self).__name__}")
            setattr(self, key, value)
        return self

    # ------------------------------------------------------------- lifecycle
    def _model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name)
                              for f in dataclasses.fields(ModelConfig)})

    def _train_config(self) -> TrainConfig:
        # val_samples is not an estimator parameter and keeps its default
        names = set(self._param_names())
        return TrainConfig(**{f.name: getattr(self, f.name)
                              for f in dataclasses.fields(TrainConfig) if f.name in names})

    def fit(self, scenes: list[Scene], val_scenes: list[Scene] | None = None
            ) -> "TrajectoryForecaster":
        check_seed(self.seed, "seed")
        t_total = self.t_history + self.t_future
        check_scenes(scenes, self.n_categories, t_total)
        if val_scenes is None:
            frac = self.val_fraction
            if not 0.0 <= frac < 1.0:
                raise ConfigError("val_fraction must lie in [0, 1)")
            if frac > 0 and len(scenes) >= 2:
                train_part, val_scenes, _ = split_scenes(
                    scenes, (1.0 - frac, frac, 0.0), seed=self.seed)
            else:
                train_part, val_scenes = scenes, []
        else:
            check_scenes(val_scenes, self.n_categories, t_total)
            train_part = scenes
        model = TrajectoryModel(self._model_config(), seed=self.seed)
        result = train(model, self._train_config(), train_part, val_scenes)
        model.load_state_dict(result.best_state)
        self.model_ = model
        self.history_ = result.history
        self.best_val_ade_ = result.best_val_ade
        return self

    def _require_fitted(self):
        if not hasattr(self, "model_"):
            raise ContractError("estimator is not fitted; call fit() first")

    def predict(self, scenes: list[Scene], n_samples: int | None = None,
                seed: int | None = None) -> list[np.ndarray]:
        """Stochastic future rollouts per scene.

        Returns one (n_samples, N, t_future, 2) array per input scene, in
        normalized coordinates.
        """
        self._require_fitted()
        t_total = self.t_history + self.t_future
        check_scenes(scenes, self.n_categories, t_total)
        seed = self.seed if seed is None else seed
        check_seed(seed, "seed")
        k = self.n_samples if n_samples is None else n_samples
        rollouts, _ = eval_rollouts(self.model_, scenes, k, seed)
        return [out[:, :, self.t_history:] for out in rollouts]

    def score(self, scenes: list[Scene], n_samples: int | None = None) -> float:
        """Negative mean ADE (normalized units) over stochastic samples."""
        self._require_fitted()
        preds = self.predict(scenes, n_samples=n_samples)
        return -float(np.mean([ade_fde(scene.positions[:, self.t_history:], draws)[0].mean()
                               for scene, draws in zip(scenes, preds)]))
