import numpy as np
import pytest

from trajgraph import model as model_mod
from trajgraph.autodiff import DArray
from trajgraph.checkpoint import load_checkpoint, save_checkpoint
from trajgraph.encoder import InteractionGraphSample
from trajgraph.errors import ConfigError, ContractError
from trajgraph.graph_complexity import regularized_loss
from trajgraph.model import ModelConfig, TrajectoryModel
from trajgraph.nn import MLP, gradients
from trajgraph.rng import RngStream
from trajgraph.training import reconstruction_loss

from conftest import reconfigured, small_model_config
from oracles import DenseAttentionDecoderRun, composed_mlp

rng_np = np.random.default_rng(61)


def batch_from(scenes, n_agents):
    chosen = [s for s in scenes if s.n_agents == n_agents]
    pos = np.stack([s.positions for s in chosen])
    cats = np.stack([s.categories for s in chosen])
    return pos, cats


def test_infer_graphs_one_per_window(small_model, tiny_scenes):
    scenes, _ = tiny_scenes
    pos, cats = batch_from(scenes, scenes[0].n_agents)
    graphs = small_model.infer_graphs_from_truth(pos, RngStream(1).child(0))
    assert len(graphs) == small_model.plan.n_windows == 3
    for g in graphs:
        assert g.z.shape == (pos.shape[0], pos.shape[1], pos.shape[1])
        assert np.abs(np.diagonal(g.z.data, axis1=1, axis2=2)).max() == 0


def test_rollout_requires_enough_graphs(small_model, tiny_scenes):
    scenes, _ = tiny_scenes
    pos, cats = batch_from(scenes, scenes[0].n_agents)
    graphs = small_model.infer_graphs_from_truth(pos, RngStream(1).child(0))
    with pytest.raises(ContractError):
        small_model.rollout(pos, cats, graphs[:1], RngStream(2))


def test_rollout_rejects_unknown_mode(small_model, tiny_scenes):
    scenes, _ = tiny_scenes
    pos, cats = batch_from(scenes, scenes[0].n_agents)
    graphs = small_model.infer_graphs_from_truth(pos, RngStream(1).child(0))
    with pytest.raises(ConfigError):
        small_model.rollout(pos, cats, graphs, RngStream(2), input_mode="x")
    with pytest.raises(ContractError):
        small_model.rollout(pos, cats, graphs, RngStream(2),
                            input_mode="boundary")  # lam missing


@pytest.mark.parametrize("field", ["hidden_dim", "edge_dim", "attn_dim", "gru_layers"])
def test_zero_model_dimension_names_the_field(field):
    with pytest.raises(ConfigError, match=f"^{field} must be positive, got 0$"):
        small_model_config(**{field: 0})


def test_zero_head_free_run_is_stationary(tiny_scenes):
    scenes, _ = tiny_scenes
    model = TrajectoryModel(small_model_config(), seed=7)
    model.store["dec.fout.2.W"].data[...] = 0.0
    model.store["dec.fout.2.b"].data[...] = 0.0
    pos, cats = batch_from(scenes, scenes[0].n_agents)
    graphs = model.infer_graphs_from_truth(pos, RngStream(1).child(0))
    preds = model.rollout(pos, cats, graphs, RngStream(2), input_mode="free_run")
    t_hist = model.cfg.t_history
    last_obs = pos[:, :, t_hist - 1:t_hist]
    np.testing.assert_array_equal(preds.data[:, :, t_hist:],
                                  np.repeat(last_obs, 10, axis=2))


def test_boundary_lam_zero_reseeds_from_truth(tiny_scenes):
    # zero-increment decoder: every window's predictions equal the ground
    # truth position at the window's seed step
    scenes, _ = tiny_scenes
    model = TrajectoryModel(small_model_config(), seed=7)
    model.store["dec.fout.2.W"].data[...] = 0.0
    model.store["dec.fout.2.b"].data[...] = 0.0
    pos, cats = batch_from(scenes, scenes[0].n_agents)
    graphs = model.infer_graphs_from_truth(pos, RngStream(1).child(0))
    preds = model.rollout(pos, cats, graphs, RngStream(2),
                          input_mode="boundary", lam=0.0).data
    tau, t_hist = 5, 5
    np.testing.assert_array_equal(
        preds[:, :, 5:10], np.repeat(pos[:, :, 4:5], 5, axis=2))
    np.testing.assert_array_equal(
        preds[:, :, 10:15], np.repeat(pos[:, :, 9:10], 5, axis=2))


def test_teacher_mode_feeds_truth_everywhere(tiny_scenes):
    scenes, _ = tiny_scenes
    model = TrajectoryModel(small_model_config(), seed=7)
    model.store["dec.fout.2.W"].data[...] = 0.0
    model.store["dec.fout.2.b"].data[...] = 0.0
    pos, cats = batch_from(scenes, scenes[0].n_agents)
    graphs = model.infer_graphs_from_truth(pos, RngStream(1).child(0))
    preds = model.rollout(pos, cats, graphs, RngStream(2),
                          input_mode="teacher").data
    # zero increment: prediction at t+1 equals truth at t
    np.testing.assert_array_equal(preds[:, :, 1:], pos[:, :, :-1])


def test_one_stream_makes_rollouts_identical(small_model, tiny_scenes):
    scenes, _ = tiny_scenes
    pos, cats = batch_from(scenes, scenes[0].n_agents)
    graphs = small_model.infer_graphs_from_truth(pos, RngStream(1).child(0))
    a = small_model.rollout(pos, cats, graphs, RngStream(4))
    b = small_model.rollout(pos, cats, graphs, RngStream(4))
    c = small_model.rollout(pos, cats, graphs, RngStream(5))
    np.testing.assert_array_equal(a.data, b.data)
    assert np.abs(a.data - c.data).max() > 0


def test_window_graph_ablation_changes_predictions(trained_small):
    model, scenes, _, _ = trained_small
    pos, cats = batch_from(scenes, scenes[0].n_agents)
    graphs = model.infer_graphs_from_truth(pos, RngStream(1).child(0),
                                           mode="sample", train=False)
    # ensure the second window has at least one edge to ablate
    if graphs[1].z.data.sum() == 0:
        z = graphs[1].z.data.copy()
        z[:, 0, 1] = 1.0
        graphs[1] = InteractionGraphSample(DArray(z), graphs[1].edge_feats)
    zeroed = [g for g in graphs]
    zeroed[1] = InteractionGraphSample(DArray(np.zeros_like(graphs[1].z.data)),
                                       graphs[1].edge_feats)
    quiet = reconfigured(model, step_noise=False)
    kept = quiet.rollout(pos, cats, graphs, RngStream(6)).data
    cut = quiet.rollout(pos, cats, zeroed, RngStream(6)).data
    assert np.abs(kept - cut).max() > 1e-9


@pytest.mark.parametrize("lam", [-0.25, 1.5])
def test_boundary_rollout_rejects_lam_outside_unit_interval(tiny_scenes, lam):
    scenes, _ = tiny_scenes
    pos, cats = batch_from(scenes, scenes[0].n_agents)
    model = TrajectoryModel(small_model_config(), seed=7)
    graphs = model.infer_graphs_from_truth(pos, RngStream(1).child(0))
    with pytest.raises(ContractError, match="mixing coefficient"):
        model.rollout(pos, cats, graphs, RngStream(4), input_mode="boundary", lam=lam)


def test_predict_batch_keeps_history_and_shapes(small_model, tiny_scenes):
    scenes, _ = tiny_scenes
    pos, cats = batch_from(scenes, scenes[0].n_agents)
    out, graphs = small_model.predict_batch(pos, cats, RngStream(9).child(1))
    assert out.shape == pos.shape
    np.testing.assert_array_equal(out[:, :, :5], pos[:, :, :5])
    assert len(graphs) == 2   # windows consumed for prediction only
    assert all(set(np.unique(g.z.data)) <= {0.0, 1.0} for g in graphs)


def test_predict_batch_deterministic_given_stream(small_model, tiny_scenes):
    scenes, _ = tiny_scenes
    pos, cats = batch_from(scenes, scenes[0].n_agents)
    a, _ = small_model.predict_batch(pos, cats, RngStream(9).child(1))
    b, _ = small_model.predict_batch(pos, cats, RngStream(9).child(1))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("mode", ["sample", "map"])
def test_predict_batch_is_free_run_rollout_on_its_graphs(small_model,
                                                         tiny_scenes, mode):
    # one loop: evaluation is the free-run rollout on graphs inferred from
    # its own output (ground truth history, predicted future)
    scenes, _ = tiny_scenes
    pos, cats = batch_from(scenes, scenes[0].n_agents)
    rng = RngStream(9).child(2)
    assert small_model.cfg.step_noise
    out, graphs = small_model.predict_batch(pos, cats, rng, sample_mode=mode)
    preds = small_model.rollout(pos, cats, graphs, rng, input_mode="free_run").data
    t_hist = small_model.cfg.t_history
    assert np.abs(out[:, :, t_hist:] - pos[:, :, t_hist:]).max() > 0
    np.testing.assert_array_equal(out[:, :, t_hist:], preds[:, :, t_hist:])
    again = small_model.infer_graphs_from_truth(out, rng, mode=mode, train=False)
    for g, h in zip(graphs, again):
        np.testing.assert_array_equal(g.z.data, h.z.data)
        np.testing.assert_array_equal(g.edge_feats.data, h.edge_feats.data)


def test_full_rollout_permutation_equivariance(tiny_scenes):
    scenes, _ = tiny_scenes
    model = TrajectoryModel(small_model_config(step_noise=False), seed=13)
    worst = 0.0
    for case in range(10):
        scene = scenes[case % len(scenes)]
        perm = np.random.default_rng(case).permutation(scene.n_agents)
        base, _ = model.predict_batch(scene.positions[None],
                                      scene.categories[None],
                                      RngStream(0), sample_mode="map",
                                      edge_noise_scale=0.0)
        permuted, _ = model.predict_batch(scene.positions[perm][None],
                                          scene.categories[perm][None],
                                          RngStream(0), sample_mode="map",
                                          edge_noise_scale=0.0)
        worst = max(worst, np.abs(permuted[0] - base[0][perm]).max())
    assert worst < 1e-9


def test_model_state_checkpoint_round_trip(tmp_path, small_model):
    state = small_model.state_dict()
    save_checkpoint(tmp_path / "m.ckpt", state)
    loaded = load_checkpoint(tmp_path / "m.ckpt")
    other = TrajectoryModel(small_model.cfg, seed=99)
    other.load_state_dict(loaded)
    for k, v in other.store.items():
        assert v.data.tobytes() == small_model.store[k].data.tobytes()


def test_parameter_layout_is_the_checkpoint_format():
    """Every parameter's name, position and shape, derived by hand for
    C = 2, two GRU layers, H = 4, D = 3, attention width 5 and tau = 3.
    Checkpoints are keyed by these names, so a change here breaks them."""
    H, D, A, G = 4, 3, 5, 12   # G = 3H, the fused GRU gate width

    def affine(name, n_in, n_out):
        return [(f"{name}.W", (n_in, n_out)), (f"{name}.b", (n_out,))]

    def norm(name, n):
        return [(f"{name}.bn.{k}", (n,)) for k in ("gamma", "beta", "run_mean", "run_var")]

    def bn_block(name, n_in, n):
        return affine(name, n_in, n) + norm(name, n)

    def gru(name, n_in):
        return [(f"{name}.l0.W_ih", (n_in, G)), (f"{name}.l0.W_hh", (H, G)),
                (f"{name}.l0.b_ih", (G,)), (f"{name}.l0.b_hh", (G,)),
                (f"{name}.l1.W_ih", (H, G)), (f"{name}.l1.W_hh", (H, G)),
                (f"{name}.l1.b_ih", (G,)), (f"{name}.l1.b_hh", (G,))]

    expected = (
        bn_block("enc.emb.0", 6, H) + bn_block("enc.emb.1", H, H)
        + bn_block("enc.edge1.0", H, H) + bn_block("enc.edge1.1", H, H)
        + bn_block("enc.node.0", H, H) + bn_block("enc.node.1", H, H)
        + bn_block("enc.edge2.0", H, D) + bn_block("enc.edge2.1", D, D)
        + gru("enc.edgegru", D)
        + bn_block("enc.proj.0", H, H) + bn_block("enc.proj.1", H, H)
        + affine("enc.proj.2", H, 1)
        + affine("dec.gq.0", H, H) + affine("dec.gq.1", H, H)
        + affine("dec.gk.0", H, H) + affine("dec.gk.1", H, H)
        + affine("dec.gv.0", H, H) + affine("dec.gv.1", H, H)
        + affine("dec.fq", H + D, A) + affine("dec.fk", H + D, A)
        + affine("dec.fv.0", H + D, H) + affine("dec.fv.1", H, H)
        + affine("dec.fout.0", H, H) + affine("dec.fout.1", H, H)
        + affine("dec.fout.2", H, 2)
        + gru("dec.gru.0", H + 2) + gru("dec.gru.1", H + 2))
    model = TrajectoryModel(ModelConfig(n_categories=2, t_history=3, t_future=3,
                                        tau=3, hidden_dim=H, edge_dim=D,
                                        attn_dim=A, gru_layers=2), seed=0)
    assert [(k, v.shape) for k, v in model.store.items()] == expected


def test_scene_step_mismatch_rejected(small_model):
    with pytest.raises(ContractError):
        small_model.infer_graphs_from_truth(np.zeros((1, 3, 12, 2)),
                                            RngStream(0))


def test_fused_nodes_match_composed_ops_end_to_end(tiny_scenes, monkeypatch):
    """A GE_mixup boundary update and a sampled prediction with the MLP
    node and the fused attention nodes equal the op-by-op model: outputs
    and running buffers bit for bit, gradients within 1e-12."""
    pos, cats = batch_from(tiny_scenes[0], 4)

    def run():
        model = TrajectoryModel(small_model_config(), seed=7)
        graphs = model.infer_graphs_from_truth(pos, RngStream(5).child(1))
        preds = model.rollout(pos, cats, graphs, RngStream(5).child(2),
                              input_mode="boundary", lam=0.4)
        loss = regularized_loss(reconstruction_loss(pos, preds, model.cfg.t_history),
                                [g.z for g in graphs], 0.1, "entropy")
        grads = gradients(loss, model.store)
        sampled, _ = model.predict_batch(pos, cats, RngStream(9))
        return preds.data, grads, sampled, model.state_dict()

    preds, grads, sampled, state = run()
    with monkeypatch.context() as m:
        m.setattr(MLP, "__call__", composed_mlp)
        m.setattr(model_mod, "DecoderRun", DenseAttentionDecoderRun)
        preds_ref, grads_ref, sampled_ref, state_ref = run()
    np.testing.assert_array_equal(preds, preds_ref)
    np.testing.assert_array_equal(sampled, sampled_ref)
    for name, value in state.items():
        np.testing.assert_array_equal(value, state_ref[name], err_msg=name)
    for name, g in grads.items():
        np.testing.assert_allclose(g, grads_ref[name], rtol=0, atol=1e-12, err_msg=name)
