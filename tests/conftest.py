import dataclasses

import pytest

from trajgraph.data import SyntheticConfig, generate_synthetic
from trajgraph.model import ModelConfig, TrajectoryModel


def small_model_config(**kw):
    base = dict(n_categories=3, t_history=5, t_future=10, tau=5,
                hidden_dim=12, edge_dim=12, attn_dim=12, gru_layers=2)
    base.update(kw)
    return ModelConfig(**base)


def reconfigured(model, **changes):
    """A model holding `model`'s weights and buffers under a config with
    `changes`; the shared fixtures' configs stay as they are."""
    other = TrajectoryModel(dataclasses.replace(model.cfg, **changes), seed=model.seed)
    other.load_state_dict(model.state_dict())
    return other


@pytest.fixture(scope="session")
def tiny_scenes():
    cfg = SyntheticConfig(n_scenes=12, n_agents_min=3, n_agents_max=4, seed=11)
    scenes, norm = generate_synthetic(cfg)
    return scenes, norm


@pytest.fixture(scope="session")
def small_model():
    return TrajectoryModel(small_model_config(), seed=2)


@pytest.fixture(scope="session")
def trained_small(tiny_scenes):
    """A briefly-trained model shared by the behavioral tests."""
    from trajgraph.training import TrainConfig, train
    scenes, norm = tiny_scenes
    model = TrajectoryModel(small_model_config(hidden_dim=16, edge_dim=16,
                                               attn_dim=16), seed=4)
    cfg = TrainConfig(epochs=15, batch_size=8, seed=4, strategy="plain",
                      learning_rate=3e-3)
    result = train(model, cfg, scenes[:10], scenes[10:])
    model.load_state_dict(result.best_state)
    return model, scenes, norm, result
