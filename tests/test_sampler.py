"""The batched K-sample sampler against a loop of one `predict_batch` per sample.

`predict_batch` on a `StackedStream` of K streams folds the K samples
into the batch axis; batching only changes the GEMM shapes, so predictions
agree within 1e-12 and the sampled graphs exactly. The samples of a scene
share the work before their first graph draw, which runs once on the scene
rows. Each caller of `TrajectoryModel.sample_scenes` is also run with the
stacked call replaced by the per-sample loop, which checks its stream
addresses.
"""

import numpy as np
import pytest

from trajgraph import autodiff as ad
from trajgraph import cli
from trajgraph.autodiff import DArray
from trajgraph.data import SyntheticConfig, generate_synthetic
from trajgraph.decoder import DecoderRun
from trajgraph.encoder import GraphEncoder, InteractionGraphSample
from trajgraph.errors import ContractError
from trajgraph.evaluation import eval_rollouts, sampled_metrics
from trajgraph.model import TrajectoryModel
from trajgraph.rng import STREAM_EVAL, RngStream, StackedStream
from trajgraph.training import validation_scores

from conftest import small_model_config
from oracles import per_sample_rollouts

TOL = 1e-12


def _members(k=3):
    return [RngStream(7, (k_, 1)) for k_ in range(k)]


@pytest.mark.parametrize("key", [(0,), (3, 2, 31, 5, 7), tuple(range(40)),
                                 (2 ** 32 - 1, 1), (2 ** 32, 5), (7, 2 ** 40, 1)],
                         ids=["seed_0", "short", "long", "top_word", "seed_2_32",
                              "index_2_40"])
def test_stream_draws_are_default_rng_draws(key):
    stream = RngStream(key[0]).child(*key[1:])
    ref = np.random.default_rng(key)
    np.testing.assert_array_equal(stream.normal(size=7), ref.normal(size=7))
    np.testing.assert_array_equal(stream.permutation(9), ref.permutation(9))


def test_stacked_stream_draws_are_member_draws_concatenated():
    stacked, members = StackedStream(_members()), _members()
    np.testing.assert_array_equal(
        stacked.uniform(size=(6, 2, 2)),
        np.concatenate([m.uniform(size=(2, 2, 2)) for m in members]))
    np.testing.assert_array_equal(
        stacked.normal(0.5, 2.0, size=(3, 4)),
        np.concatenate([m.normal(0.5, 2.0, size=(1, 4)) for m in members]))
    np.testing.assert_array_equal(
        stacked.logistic(size=(9, 2)),
        np.concatenate([m.logistic(size=(3, 2)) for m in members]))


def test_stacked_stream_child_is_the_members_children():
    child, members = StackedStream(_members()).child(2, 5), _members()
    assert [s.stream for s in child.streams] == [m.child(2, 5).stream for m in members]
    np.testing.assert_array_equal(
        child.normal(size=(3, 2)),
        np.concatenate([m.child(2, 5).normal(size=(1, 2)) for m in members]))


def test_stacked_stream_rejects_sizes_it_cannot_split():
    with pytest.raises(ContractError):
        StackedStream([])
    with pytest.raises(ContractError):
        StackedStream(_members()).uniform(size=(4, 2))
    with pytest.raises(ContractError):
        StackedStream(_members()).normal()


def _plan_batch(tiny_scenes, t_history, t_future, tau, **model_kw):
    """An untrained model on plan (t_history, t_future, tau) and the
    largest same-size group of scenes of that length."""
    scenes = tiny_scenes[0] if (t_history, t_future) == (5, 10) else generate_synthetic(
        SyntheticConfig(n_scenes=8, n_agents_min=3, n_agents_max=4,
                        t_history=t_history, t_future=t_future, seed=11))[0]
    model = TrajectoryModel(small_model_config(t_history=t_history, t_future=t_future,
                                               tau=tau, **model_kw), seed=5)
    pos, cats, _ = max(TrajectoryModel.batch_scenes(scenes), key=lambda g: len(g[2]))
    return model, pos, cats


def _stacked(model, pos, cats, streams, mode="sample"):
    """K = len(streams) samples as one `predict_batch` call: (K, B, N, T, 2)
    predictions and graphs with K*B rows, row k*B + b from streams[k]."""
    out, graphs = model.predict_batch(pos, cats, StackedStream(streams), sample_mode=mode)
    return out.reshape((len(streams),) + pos.shape), graphs


# (mode, plan, model overrides); the default plan keeps the bare mode as id
SAMPLER_CASES = [
    (mode, plan, kw, mode if name == "default" else f"{mode}-{name}")
    for name, plan, kw in [
        ("default", (5, 10, 5), {}),
        ("tau_1", (5, 10, 1), {}),            # no decoder burn-in; 5 shared windows
        ("history_6_tau_2", (6, 10, 2), {}),  # the fan-out falls inside the history
        ("noiseless", (5, 10, 5), {"step_noise": False, "edge_noise_scale": 0.0}),
    ]
    for mode in ("sample", "map")]


@pytest.mark.parametrize("mode, plan, model_kw", [c[:3] for c in SAMPLER_CASES],
                         ids=[c[3] for c in SAMPLER_CASES])
def test_sample_rollouts_matches_per_sample_loop(tiny_scenes, mode, plan, model_kw):
    model, pos, cats = _plan_batch(tiny_scenes, *plan, **model_kw)
    b = pos.shape[0]
    assert b > 1
    streams = [RngStream(3).child(k) for k in range(4)]
    out, graphs = _stacked(model, pos, cats, streams, mode)
    ref, ref_graphs = per_sample_rollouts(model, pos, cats, streams, mode)
    assert out.shape == ref.shape == (4,) + pos.shape
    assert np.abs(out - ref).max() <= TOL
    for k, sample_graphs in enumerate(ref_graphs):
        for g, r in zip(graphs, sample_graphs):
            np.testing.assert_array_equal(g.z.data[k * b:(k + 1) * b], r.z.data)


@pytest.mark.parametrize("mode", ["sample", "map"])
def test_one_sample_is_predict_batch_on_its_stream(tiny_scenes, mode):
    """K = 1 shares nothing: byte for byte the bare stream's free run."""
    model, pos, cats = _plan_batch(tiny_scenes, 5, 10, 5)
    stream = RngStream(3).child(0)
    out, graphs = _stacked(model, pos, cats, [stream], mode)
    ref, ref_graphs = model.predict_batch(pos, cats, stream, sample_mode=mode)
    assert out.shape == (1,) + ref.shape and out[0].tobytes() == ref.tobytes()
    assert len(graphs) == len(ref_graphs)
    for g, r in zip(graphs, ref_graphs):
        assert g.z.data.tobytes() == r.z.data.tobytes()
        assert g.edge_feats.data.tobytes() == r.edge_feats.data.tobytes()


def test_samples_share_the_burn_in_once(tiny_scenes, monkeypatch):
    """Exact work of one K = 4 call on B = 2 scenes of N = 3 (default plan:
    14 decoder steps, 2 GRU layers, 2 decoded windows of 5 steps)."""
    b, n, k = 2, 3, 4
    model = TrajectoryModel(small_model_config(), seed=5)
    pos, cats, _ = next(g for g in TrajectoryModel.batch_scenes(tiny_scenes[0])
                        if g[0].shape[1] == n)
    pos, cats = pos[:b], cats[:b]
    assert pos.shape[0] == b
    gru_rows, gnn_rows, runs, in_step = [], [], [], []
    step, init = DecoderRun.step, DecoderRun.__init__
    gnn_pass, gru_cell = GraphEncoder.gnn_pass, ad.gru_cell

    def counted_step(run, *args):
        in_step.append(run)
        try:
            return step(run, *args)
        finally:
            in_step.pop()

    def counted_gru_cell(x, *args):
        if in_step:   # a decoder GRU layer, not the encoder's edge GRU
            gru_rows.append(x.shape[0])
        return gru_cell(x, *args)

    def counted_init(run, *args):
        runs.append(run)
        init(run, *args)

    def counted_gnn_pass(enc, v, **kwargs):
        gnn_rows.append(v.shape[0])
        return gnn_pass(enc, v, **kwargs)

    for owner, name, fn in [(DecoderRun, "step", counted_step),
                            (DecoderRun, "__init__", counted_init),
                            (GraphEncoder, "gnn_pass", counted_gnn_pass),
                            (ad, "gru_cell", counted_gru_cell)]:
        monkeypatch.setattr(owner, name, fn)
    _stacked(model, pos, cats, [RngStream(3).child(i) for i in range(k)])
    # steps 0-3 read no graph and run once; step 4 reads window 0's graph
    assert gru_rows == [b * n] * (4 * 2) + [k * b * n] * (10 * 2)
    # window 0 lies in the history; window 1 holds predicted steps
    assert gnn_rows == [b, k * b]
    assert len(runs) == 1


@pytest.fixture
def looped(monkeypatch):
    """Swap each stacked `predict_batch` call for the per-sample loop;
    records each call's stream addresses."""
    calls = []
    predict_batch = TrajectoryModel.predict_batch

    def looped_predict_batch(self, positions, categories, rng, sample_mode="sample"):
        calls.append([s.stream for s in rng.streams])
        outs, graphs = zip(*(predict_batch(self, positions, categories, s, sample_mode)
                             for s in rng.streams))
        stacked = [InteractionGraphSample(
            *(DArray(np.concatenate([getattr(g[w], f).data for g in graphs]))
              for f in ("z", "edge_feats")))
            for w in range(len(graphs[0]))]
        return np.concatenate(outs), stacked

    def run(fn):
        with monkeypatch.context() as m:
            m.setattr(TrajectoryModel, "predict_batch", looped_predict_batch)
            return fn()
    run.calls = calls
    return run


def _group_sizes(scenes):
    return [(g[0].shape[1], g[2]) for g in TrajectoryModel.batch_scenes(scenes)]


def test_sampled_metrics_matches_per_sample_loop(trained_small, looped):
    model, scenes, norm, _ = trained_small
    run = lambda: sampled_metrics(model, scenes[:8], norm, n_samples=4, seed=6)  # noqa: E731
    a, b = run(), looped(run)
    for key in ("min_ade", "min_fde", "mean_ade", "mean_fde", "avg_entropy", "avg_density"):
        assert getattr(a, key) == pytest.approx(getattr(b, key), abs=TOL, rel=0)
    assert a.per_category.keys() == b.per_category.keys()
    for c in a.per_category:
        for key, value in a.per_category[c].items():
            assert value == pytest.approx(b.per_category[c][key], abs=TOL, rel=0)
    assert looped.calls == [[(STREAM_EVAL, n, k) for k in range(4)]
                            for n, _ in _group_sizes(scenes[:8])]


def test_validation_scores_match_per_sample_loop(trained_small, looped):
    model, scenes, _, _ = trained_small
    rng = RngStream(1).child(STREAM_EVAL, 5)
    run = lambda: validation_scores(model, scenes, 3, rng)  # noqa: E731
    np.testing.assert_allclose(run(), looped(run), rtol=0, atol=TOL)
    # the loss is sample 0's alone
    assert validation_scores(model, scenes, 1, rng)[0] == pytest.approx(run()[0], abs=TOL)
    assert looped.calls == [[(STREAM_EVAL, 5, k, idx[0]) for k in range(3)]
                            for _, idx in _group_sizes(scenes)]


def test_eval_rollouts_future_matches_per_sample_loop(trained_small, looped):
    model, scenes, _, _ = trained_small
    t_hist = model.cfg.t_history

    def run():
        rollouts, _ = eval_rollouts(model, scenes[:6], 3, 3)
        return [out[:, :, t_hist:] for out in rollouts]

    a, b = run(), looped(run)
    assert len(a) == len(b) == 6
    for scene, x, y in zip(scenes[:6], a, b):
        assert x.shape == y.shape == (3, scene.n_agents, model.cfg.t_future, 2)
        assert np.abs(x - y).max() <= TOL
    assert looped.calls == [[(STREAM_EVAL, n, k) for k in range(3)]
                            for n, _ in _group_sizes(scenes[:6])]


def test_exported_trajectories_match_per_sample_loop(trained_small, looped, tmp_path):
    model, scenes, norm, _ = trained_small

    def run():
        path = tmp_path / "trajectories.csv"
        rollouts, _ = eval_rollouts(model, scenes[:6], 3, 2)
        cli._export_trajectories(scenes[:6], rollouts, norm, model.cfg.t_history, path)
        lines = path.read_text().splitlines()
        return lines[0], [line.split(",")[:4] for line in lines[1:]], \
            np.array([[float(v) for v in line.split(",")[4:]] for line in lines[1:]])

    (head_a, keys_a, xy_a), (head_b, keys_b, xy_b) = run(), looped(run)
    assert head_a == head_b and keys_a == keys_b
    scale = max(1.0, np.abs(xy_b).max())
    assert np.abs(xy_a - xy_b).max() <= TOL * scale
    assert looped.calls == [[(STREAM_EVAL, n, k) for k in range(3)]
                            for n, _ in _group_sizes(scenes[:6])]
