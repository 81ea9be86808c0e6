import dataclasses
import tracemalloc

import numpy as np
import pytest

from trajgraph import autodiff as ad
from trajgraph import training
from trajgraph.autodiff import DArray
from trajgraph.checkpoint import load_checkpoint, save_checkpoint
from trajgraph.cli import _model_state_with_config
from trajgraph.data import Scene, SyntheticConfig, generate_synthetic
from trajgraph.errors import (ConfigError, ContractError, DataError, NumericalError,
                              ShapeError)
from trajgraph.model import TrajectoryModel, mix
from trajgraph.nn import gradients
from trajgraph.optim import Adam
from trajgraph.rng import RngStream
from trajgraph.training import (MixState, TrainConfig, TrainResult, _strategy_losses,
                                decay_alpha, reconstruction_loss, sample_beta,
                                train)

from conftest import (graphs_from_truth, reconfigured, small_model_config,
                      stop_gradient_check)
from oracles import naive_reconstruction_loss

rng_np = np.random.default_rng(71)


# ------------------------------------------------------------------- losses

def test_reconstruction_loss_zero_for_exact_prediction():
    x = rng_np.normal(size=(2, 3, 15, 2))
    assert reconstruction_loss(x, DArray(x), 5).item() == 0.0


def test_reconstruction_loss_constant_offset_is_one():
    x = rng_np.normal(size=(2, 4, 15, 2))
    shifted = x.copy()
    shifted[:, :, 5:, 0] += 1.0
    assert reconstruction_loss(x, DArray(shifted), 5).item() == pytest.approx(1.0)


def test_reconstruction_loss_matches_naive_oracle():
    x = rng_np.normal(size=(3, 4, 15, 2))
    p = rng_np.normal(size=(3, 4, 15, 2))
    ours = reconstruction_loss(x, DArray(p), 5).item()
    naive = np.mean([naive_reconstruction_loss(x[b], p[b], 5) for b in range(3)])
    assert abs(ours - naive) < 1e-12


def test_reconstruction_loss_shape_check():
    with pytest.raises(ShapeError):
        reconstruction_loss(np.zeros((1, 2, 15, 2)),
                            DArray(np.zeros((1, 3, 15, 2))), 5)


# --------------------------------------------------------------------- beta

def test_sample_beta_uniform_mean():
    rng = RngStream(5).child(0)
    draws = np.array([sample_beta(1.0, rng) for _ in range(100000)])
    assert abs(draws.mean() - 0.5) < 0.005
    assert draws.min() >= 0.0 and draws.max() <= 1.0


def test_sample_beta_symmetric_mean_any_alpha():
    for alpha in (0.3, 2.0, 10.0):
        rng = RngStream(6).child(int(alpha * 10))
        draws = np.array([sample_beta(alpha, rng) for _ in range(20000)])
        sigma = np.sqrt(1.0 / (4 * (2 * alpha + 1)) / len(draws))
        assert abs(draws.mean() - 0.5) < 3 * sigma + 1e-3


def test_sample_beta_concentrates_for_large_alpha():
    rng = RngStream(7).child(0)
    draws = np.array([sample_beta(100.0, rng) for _ in range(20000)])
    assert draws.std() < 0.06
    # analytic variance 1/(4(2a+1))
    assert abs(draws.var() - 1.0 / (4 * 201)) < 3e-4


def test_sample_beta_requires_positive_alpha():
    with pytest.raises(ContractError):
        sample_beta(0.0, RngStream(0))


# ---------------------------------------------------------------------- mix

def test_mix_degenerate_cases():
    pred = np.array([2.0, 2.0])
    truth = np.array([0.0, 0.0])
    np.testing.assert_array_equal(mix(pred, truth, 0.0), truth)
    np.testing.assert_array_equal(mix(pred, truth, 1.0), pred)
    np.testing.assert_array_equal(mix(pred, truth, 0.25), [0.5, 0.5])
    with pytest.raises(ContractError):
        mix(pred, truth, 1.5)


# -------------------------------------------------------------- alpha decay

def test_alpha_decay_schedule():
    cfg = TrainConfig(alpha_init=10.0, alpha_decay_interval=10,
                      alpha_decay_factor=0.5, alpha_floor=0.1)
    alpha, values = cfg.alpha_init, []
    for epoch in range(200):
        values.append(alpha)
        alpha = decay_alpha(alpha, epoch, cfg)
    assert values[:10] == [10.0] * 10
    assert values[10] == 5.0
    assert values[19] == 5.0
    assert values[20] == 2.5
    assert values[-1] == pytest.approx(0.1)   # clamped at the floor


def test_alpha_decays_on_the_logged_epoch_numbers(tiny_scenes):
    """A run split in two carries alpha in `MixState` and logs the alphas of
    the unsplit run; without it, the schedule starts at `alpha_init` on the
    epoch numbers of the log."""
    scenes, _ = tiny_scenes

    def alphas(epochs, **kw):
        model = TrajectoryModel(small_model_config(), seed=1)
        cfg = TrainConfig(epochs=epochs, batch_size=8, seed=1, alpha_decay_interval=2)
        result = train(model, cfg, scenes[:6], [], **kw)
        return [row["alpha"] for row in result.history], result.mix_state

    straight, _ = alphas(3)
    head, state = alphas(1)
    tail, _ = alphas(2, start_epoch=1, mix_state=state)
    assert straight == head + tail == [10.0, 10.0, 5.0]
    assert state == MixState(10.0)
    assert alphas(2, start_epoch=1)[0] == [10.0, 5.0]


# ------------------------------------------------------------ mixup updates

def _mixup_fixture(seed=3):
    model = TrajectoryModel(small_model_config(), seed=seed)
    scenes, _ = __import__("trajgraph.data", fromlist=["generate_synthetic"]) \
        .generate_synthetic(
            __import__("trajgraph.data", fromlist=["SyntheticConfig"])
            .SyntheticConfig(n_scenes=4, n_agents_min=3, n_agents_max=3, seed=9))
    pos = np.stack([s.positions for s in scenes])
    cats = np.stack([s.categories for s in scenes])
    return model, pos, cats


def test_lambda_one_makes_imitation_loss_exactly_zero():
    model, pos, cats = _mixup_fixture()
    rng = RngStream(11).child(0)
    graphs = model.infer_graphs_from_truth(pos, rng.child(1))
    # one stream: both rollouts draw the same head noise
    free = model.rollout(pos, cats, graphs, rng.child(3), input_mode="free_run")
    with ad.no_grad():
        target = model.rollout(pos, cats, graphs, rng.child(3),
                               input_mode="boundary", lam=1.0)
    l2 = reconstruction_loss(target.data, free, model.cfg.t_history)
    assert l2.item() == 0.0


def test_lambda_one_imitation_gradients_exactly_zero():
    model, pos, cats = _mixup_fixture()
    rng = RngStream(12).child(0)
    graphs = model.infer_graphs_from_truth(pos, rng.child(1))
    # one stream: both rollouts draw the same head noise
    free = model.rollout(pos, cats, graphs, rng.child(3), input_mode="free_run")
    with ad.no_grad():
        target = model.rollout(pos, cats, graphs, rng.child(3),
                               input_mode="boundary", lam=1.0)
    grads = gradients(reconstruction_loss(target.data, free,
                                          model.cfg.t_history), model.store)
    assert all(np.abs(g).max() == 0.0 for g in grads.values())


def test_stop_gradient_isolation_through_mixed_input():
    # the boundary prediction is a live value path into the loss (its
    # finite-difference derivative is nonzero), yet backprop through the
    # mixed input must add nothing to any parameter gradient
    model, pos, cats = _mixup_fixture()
    equal, fd_derivative = stop_gradient_check(model, pos, cats, RngStream(13).child(0),
                                               lam=0.6)
    assert equal
    assert abs(fd_derivative) > 1e-6


def test_teacher_forcing_zero_head_loss_equals_displacement_stats():
    model, pos, cats = _mixup_fixture()
    model.store["dec.fout.2.W"].data[...] = 0.0
    model.store["dec.fout.2.b"].data[...] = 0.0
    graphs = model.infer_graphs_from_truth(pos, RngStream(1).child(0))
    preds = model.rollout(pos, cats, graphs, RngStream(2),
                          input_mode="teacher")
    loss = reconstruction_loss(pos, preds, model.cfg.t_history).item()
    # oracle: squared single-step displacement over the future steps
    t_hist = model.cfg.t_history
    steps = pos[:, :, t_hist:] - pos[:, :, t_hist - 1:-1]
    n, t_future = pos.shape[1], pos.shape[2] - t_hist
    expected = (steps ** 2).sum(axis=(1, 2, 3)) / (n * t_future)
    assert loss == pytest.approx(expected.mean(), abs=1e-12)


def test_tf_plus_single_window_equals_free_run():
    cfg = small_model_config(t_history=10, t_future=10, tau=10)
    model = TrajectoryModel(cfg, seed=5)
    scenes, _ = __import__("trajgraph.data", fromlist=["generate_synthetic"]) \
        .generate_synthetic(
            __import__("trajgraph.data", fromlist=["SyntheticConfig"])
            .SyntheticConfig(n_scenes=2, n_agents_min=3, n_agents_max=3,
                             t_history=10, t_future=10, seed=8))
    pos = np.stack([s.positions for s in scenes])
    cats = np.stack([s.categories for s in scenes])
    graphs = model.infer_graphs_from_truth(pos, RngStream(3).child(0))
    free = model.rollout(pos, cats, graphs, RngStream(5), input_mode="free_run")
    tf_plus = model.rollout(pos, cats, graphs, RngStream(5),
                            input_mode="boundary", lam=0.0)
    np.testing.assert_array_equal(free.data, tf_plus.data)


def test_tf_loss_not_above_free_run_loss_untrained():
    losses = {"teacher": [], "free_run": []}
    for seed in range(6):
        model = TrajectoryModel(small_model_config(step_noise=False), seed=seed)
        scenes, _ = __import__("trajgraph.data", fromlist=["generate_synthetic"]) \
            .generate_synthetic(
                __import__("trajgraph.data", fromlist=["SyntheticConfig"])
                .SyntheticConfig(n_scenes=6, n_agents_min=4, n_agents_max=4,
                                 seed=seed + 20))
        pos = np.stack([s.positions for s in scenes])
        cats = np.stack([s.categories for s in scenes])
        graphs = model.infer_graphs_from_truth(pos, RngStream(seed).child(0))
        for mode in losses:
            preds = model.rollout(pos, cats, graphs, RngStream(seed).child(1),
                                  input_mode=mode)
            losses[mode].append(
                reconstruction_loss(pos, preds, model.cfg.t_history).item())
    assert np.mean(losses["teacher"]) <= np.mean(losses["free_run"])


# ------------------------------------------------------------- training loop

def test_train_smoke_writes_loadable_state(tmp_path, tiny_scenes):
    scenes, _ = tiny_scenes
    model = TrajectoryModel(small_model_config(), seed=1)
    cfg = TrainConfig(epochs=2, batch_size=8, seed=1, strategy="GE_mixup",
                      gamma=0.1)
    result = train(model, cfg, scenes[:8], scenes[8:10])
    assert len(result.history) == 2
    save_checkpoint(tmp_path / "c.ckpt", result.best_state)
    restored = load_checkpoint(tmp_path / "c.ckpt")
    other = TrajectoryModel(small_model_config(), seed=3)
    other.load_state_dict(restored)


def test_train_with_explicit_validation_set(tiny_scenes):
    scenes, _ = tiny_scenes
    model = TrajectoryModel(small_model_config(), seed=1)
    result = train(model, TrainConfig(epochs=2, batch_size=8, seed=1),
                   scenes[:8], val_scenes=scenes[8:10])
    assert len(result.history) == 2
    assert np.isfinite(result.best_val_ade)


def test_train_without_validation_returns_the_final_state(tiny_scenes):
    scenes, _ = tiny_scenes
    model = TrajectoryModel(small_model_config(), seed=1)
    result = train(model, TrainConfig(epochs=1, batch_size=8, seed=1), scenes[:8], [])
    assert result.best_val_ade == np.inf
    final = model.state_dict()
    assert result.best_state.keys() == final.keys()
    for k, v in final.items():
        assert result.best_state[k].tobytes() == v.tobytes()


@pytest.mark.parametrize("ades, best_epoch, best_ade", [
    ([np.nan, 1.0, 2.0], 1, 1.0),
    ([np.nan, np.nan], 0, np.inf),
], ids=["finite_after_nan", "all_nan"])
def test_best_state_starts_at_the_first_epoch(tiny_scenes, monkeypatch,
                                              ades, best_epoch, best_ade):
    """`best_state` is taken after the first epoch, whatever its validation
    ADE, and again after each epoch with a lower one; a NaN ADE never
    becomes `best_val_ade`, so a later finite one replaces it."""
    scenes, _ = tiny_scenes
    scores = iter(ades)
    monkeypatch.setattr(training, "validation_scores", lambda *a: (0.0, next(scores)))
    model = TrajectoryModel(small_model_config(), seed=1)
    states = []   # the parameters after each epoch
    result = train(model, TrainConfig(epochs=len(ades), batch_size=8, seed=1),
                   scenes[:8], scenes[8:10],
                   log_fn=lambda row: states.append(model.state_dict()))
    assert result.best_val_ade == best_ade
    assert result.best_state.keys() == states[best_epoch].keys()
    for k, v in states[best_epoch].items():
        assert result.best_state[k].tobytes() == v.tobytes()


def test_train_needs_a_training_scene():
    model = TrajectoryModel(small_model_config(), seed=1)
    with pytest.raises(DataError, match="training needs at least one scene"):
        train(model, TrainConfig(epochs=1, seed=1), [], [])


def test_train_deterministic_given_seed(tiny_scenes):
    scenes, _ = tiny_scenes

    def run():
        model = TrajectoryModel(small_model_config(), seed=1)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=5, strategy="mixup")
        train(model, cfg, scenes[:8], scenes[8:10])
        return model.state_dict()

    a, b = run(), run()
    assert all(a[k].tobytes() == b[k].tobytes() for k in a)


def test_train_and_checkpoint_hold_each_state_copy_once(tiny_scenes):
    """The trained model is the only holder of the final parameters, and
    the checkpoint mapping reads them in place."""
    scenes, _ = tiny_scenes
    model = TrajectoryModel(small_model_config(), seed=1)
    train(model, TrainConfig(epochs=1, batch_size=8, seed=1), scenes[:8], [])
    assert "final_state" not in {f.name for f in dataclasses.fields(TrainResult)}
    state = _model_state_with_config(model, "plain", 0.0)
    for k, p in model.store.items():
        assert np.shares_memory(state[k], p.data)


def test_training_reduces_loss(trained_small):
    _, _, _, result = trained_small
    assert result.history[-1]["train_loss"] < result.history[0]["train_loss"]


def test_free_run_error_at_least_single_step_error(trained_small):
    # accumulated multi-step error dominates the teacher-forced error
    model, scenes, _, _ = trained_small
    model = reconfigured(model, step_noise=False)
    ratios = []
    for pos, cats, _ in TrajectoryModel.batch_scenes(scenes):
        graphs = graphs_from_truth(model, pos, RngStream(2).child(0), "sample")
        free = model.rollout(pos, cats, graphs, RngStream(3), input_mode="free_run")
        teach = model.rollout(pos, cats, graphs, RngStream(3), input_mode="teacher")
        ratios.append(
            reconstruction_loss(pos, free, model.cfg.t_history).item()
            - reconstruction_loss(pos, teach, model.cfg.t_history).item())
    assert np.mean(ratios) >= 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_loss_aborts_with_advice(tiny_scenes):
    scenes, _ = tiny_scenes
    bad = [Scene("bad", s.categories, np.where(np.isfinite(s.positions),
                                               s.positions, 0.0))
           for s in scenes[:4]]
    bad[0].positions[0, 0, 0] = np.inf
    model = TrajectoryModel(small_model_config(), seed=1)
    with pytest.raises(NumericalError):
        train(model, TrainConfig(epochs=1, batch_size=4, seed=1), bad, [])


def test_mixup_batch_holds_one_tape_at_a_time():
    """The second mixup update starts after the first one's tape is freed,
    so a GE_mixup batch peaks about where a single-update GE batch does."""
    scenes, _ = generate_synthetic(SyntheticConfig(
        n_scenes=8, n_agents_min=4, n_agents_max=4, seed=3))
    pos = np.stack([s.positions for s in scenes])
    cats = np.stack([s.categories for s in scenes])

    def peak_bytes(strategy):
        model = TrajectoryModel(small_model_config(
            hidden_dim=16, edge_dim=16, attn_dim=16), seed=0)
        cfg = TrainConfig(strategy=strategy, gamma=0.1)
        optimizer = Adam(model.store, lr=1e-3)

        def batch():
            _strategy_losses(model, pos, cats, RngStream(1), cfg, 1.0, optimizer)

        batch()   # warm: Adam moments exist before measuring
        tracemalloc.start()
        try:
            batch()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes("GE_mixup") < 1.5 * peak_bytes("GE")


def test_batch_scenes_groups_by_size_in_order():
    scenes = [Scene(f"s{i}", np.zeros(n, dtype=int), np.full((n, 3, 2), float(i)))
              for i, n in enumerate([3, 4, 3, 3, 4])]

    def batches(*args):
        out = list(TrajectoryModel.batch_scenes(scenes, *args))
        for pos, cats, idx in out:
            np.testing.assert_array_equal(pos, [scenes[i].positions for i in idx])
            assert cats.shape == pos.shape[:2]
        return [idx for _, _, idx in out]

    assert batches() == [[0, 2, 3], [1, 4]]
    # sizes ascending; the given order within a size, cut into batch_size chunks
    assert batches(np.array([4, 2, 0, 3, 1]), 2) == [[2, 0], [3], [4, 1]]


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(strategy="nope")
    with pytest.raises(ConfigError):
        TrainConfig(alpha_init=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(gamma=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(val_samples=0)
    with pytest.raises(ConfigError):
        TrainConfig(penalty="entropyy")


def test_negative_seed_is_a_config_error():
    """Caught when the config is built, before `train` draws any stream."""
    with pytest.raises(ConfigError, match="seed.*-1"):
        TrainConfig(seed=-1)
