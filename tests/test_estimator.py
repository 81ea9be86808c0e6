import dataclasses

import numpy as np
import pytest

from trajgraph.data import Scene, SyntheticConfig, check_scenes, generate_synthetic
from trajgraph.errors import ConfigError, ContractError, DataError
from trajgraph import cli
from trajgraph.config import load_config
from trajgraph.estimator import TrajectoryForecaster
from trajgraph.model import ModelConfig
from trajgraph.training import TrainConfig


def small_forecaster(**kw):
    base = dict(hidden_dim=10, edge_dim=10, attn_dim=10, epochs=3,
                batch_size=8, seed=1, n_samples=2, learning_rate=3e-3)
    base.update(kw)
    return TrajectoryForecaster(**base)


def test_defaults_equal_the_dataclass_defaults(tmp_path):
    empty = tmp_path / "empty.ini"
    empty.write_text("")
    cfg = load_config(empty)
    assert cli._model_config(cfg) == ModelConfig()
    assert cli._train_config(cfg) == TrainConfig()
    est = TrajectoryForecaster()
    assert est._model_config() == ModelConfig()
    assert est._train_config() == TrainConfig()
    synthetic, reference = cli._synthetic_config(cfg), SyntheticConfig()
    for f in dataclasses.fields(SyntheticConfig):
        np.testing.assert_array_equal(getattr(synthetic, f.name),
                                      getattr(reference, f.name))
        assert type(getattr(synthetic, f.name)) is type(getattr(reference, f.name))


def test_get_params_round_trip():
    est = small_forecaster(gamma=0.3, strategy="GE")
    params = est.get_params()
    clone = TrajectoryForecaster(**params)
    assert clone.get_params() == params


def test_set_params_returns_self_and_rejects_unknown():
    est = small_forecaster()
    assert est.set_params(gamma=2.0) is est
    assert est.gamma == 2.0
    with pytest.raises(ConfigError):
        est.set_params(bogus=1)


def test_fit_predict_score(tiny_scenes):
    scenes, _ = tiny_scenes
    est = small_forecaster()
    assert est.fit(scenes) is est
    assert hasattr(est, "model_") and hasattr(est, "history_")
    preds = est.predict(scenes[:3], n_samples=2)
    assert len(preds) == 3
    for scene, draw in zip(scenes[:3], preds):
        assert draw.shape == (2, scene.n_agents, 10, 2)
    score = est.score(scenes[:3])
    assert np.isfinite(score) and score <= 0


def test_predict_before_fit_raises(tiny_scenes):
    scenes, _ = tiny_scenes
    with pytest.raises(ContractError):
        small_forecaster().predict(scenes[:1])


def test_fit_rejects_wrong_step_count(tiny_scenes):
    scenes, _ = tiny_scenes
    est = small_forecaster(t_history=8)   # expects 18 steps, scenes have 15
    with pytest.raises(DataError):
        est.fit(scenes)


def test_fit_rejects_out_of_range_categories(tiny_scenes):
    scenes, _ = tiny_scenes
    bad = [Scene(s.scene_id, np.full(s.n_agents, 7), s.positions)
           for s in scenes]
    with pytest.raises(ConfigError):
        small_forecaster().fit(bad)


def test_check_scenes_rejects_unnormalized():
    scene = Scene("s", np.zeros(3, dtype=int),
                  np.random.default_rng(0).uniform(5, 10, size=(3, 15, 2)))
    with pytest.raises(DataError):
        check_scenes([scene], 3, 15)


def test_fit_rejects_a_non_finite_coordinate():
    """A NaN fails every comparison, so the [-1, 1] range check alone let it
    through: fit trained on it and kept the untrained weights."""
    scenes, _ = generate_synthetic(SyntheticConfig(n_scenes=12, seed=0))
    scenes[0].positions[1, 4, 0] = np.nan
    with pytest.raises(DataError, match=f"scene {scenes[0].scene_id}: non-finite"):
        small_forecaster(epochs=2).fit(scenes)


def test_fit_and_predict_reject_an_empty_scene_list(tiny_scenes):
    with pytest.raises(DataError):
        small_forecaster().fit([])
    est = small_forecaster(epochs=1).fit(tiny_scenes[0])
    with pytest.raises(DataError):
        est.predict([])


def test_fit_with_explicit_validation_set(tiny_scenes):
    scenes, _ = tiny_scenes
    est = small_forecaster(epochs=2)
    est.fit(scenes[:8], val_scenes=scenes[8:10])
    assert len(est.history_) == 2
    assert np.isfinite(est.best_val_ade_)


def test_negative_seed_is_a_config_error_at_fit(tiny_scenes):
    scenes, _ = tiny_scenes
    est = small_forecaster(seed=-1, epochs=1)   # stored verbatim, as sklearn does
    assert est.get_params()["seed"] == -1
    with pytest.raises(ConfigError, match="seed.*-1"):
        est.fit(scenes[:4])


def test_negative_seed_is_a_config_error_at_predict(tiny_scenes):
    scenes, _ = tiny_scenes
    est = small_forecaster(epochs=1).fit(scenes[:4])
    with pytest.raises(ConfigError, match="seed.*-3"):
        est.predict(scenes[:4], seed=-3)
