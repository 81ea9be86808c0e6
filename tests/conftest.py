import contextlib
import dataclasses

import numpy as np
import pytest

from trajgraph import autodiff as ad
from trajgraph import model as model_module
from trajgraph.autodiff import DArray
from trajgraph.data import SyntheticConfig, generate_synthetic
from trajgraph.encoder import EncoderRun
from trajgraph.model import ModelConfig, TrajectoryModel
from trajgraph.nn import gradients
from trajgraph.training import reconstruction_loss


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


def graphs_from_truth(model, positions, rng, mode):
    """One graph per window of the full trajectory `positions`, drawn in
    `mode` by one `EncoderRun` of `model`'s encoder."""
    run = EncoderRun(model.encoder, model.cfg.edge_noise_scale)
    return [run.step(positions[:, :, slice(*model.plan.window_steps(w))], rng, mode)
            for w in range(model.plan.n_windows)]


@contextlib.contextmanager
def boundary_prediction(transform):
    """Within the block, `trajgraph.model.mix` mixes `transform(pred)` in
    place of each window-boundary prediction `pred` that it receives."""
    mix = model_module.mix
    model_module.mix = lambda pred, truth, lam: mix(transform(pred), truth, lam)
    try:
        yield
    finally:
        model_module.mix = mix


def stop_gradient_check(model, positions, categories, rng, lam):
    """Whether the mixed boundary input holds its stop gradient, as
    (gradients equal, derivative) for the reconstruction loss of a boundary
    rollout (graphs from `rng.child(1)`, head noise from `rng.child(2)`).

    Gradients equal: every parameter gradient is `np.array_equal` to that
    of a rerun whose mixes see a fresh untracked `DArray` of each boundary
    prediction. Derivative: the central difference of the loss in a scale
    of every boundary prediction; nonzero when that value path is live.
    """
    def loss():
        graphs = model.infer_graphs_from_truth(positions, rng.child(1))
        preds = model.rollout(positions, categories, graphs, rng.child(2),
                              input_mode="boundary", lam=lam)
        return reconstruction_loss(positions, preds, model.cfg.t_history)

    grads = gradients(loss(), model.store)
    with boundary_prediction(lambda pred: DArray(pred.data)):
        cut = gradients(loss(), model.store)
    equal = grads.keys() == cut.keys() and all(np.array_equal(grads[k], cut[k])
                                               for k in grads)
    values = []
    for scale in (1.0 + 1e-6, 1.0 - 1e-6):
        with boundary_prediction(lambda pred: DArray(pred.data * scale)), ad.no_grad():
            values.append(loss().item())
    return equal, (values[0] - values[1]) / 2e-6


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
