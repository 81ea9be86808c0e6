"""The batched K-sample sampler against a loop of one `predict_batch` per sample.

`TrajectoryModel.sample_rollouts` folds the K samples into the batch axis;
batching only changes the GEMM shapes, so predictions agree within 1e-12
and the sampled graphs exactly. Each caller is also run with the sampler
replaced by the per-sample loop, which checks its stream addresses.
"""

import numpy as np
import pytest

from trajgraph import cli
from trajgraph.autodiff import DArray
from trajgraph.encoder import InteractionGraphSample
from trajgraph.errors import ContractError
from trajgraph.estimator import TrajectoryForecaster
from trajgraph.evaluation import eval_rollouts, sampled_metrics
from trajgraph.model import TrajectoryModel
from trajgraph.rng import STREAM_EVAL, RngStream, StackedStream
from trajgraph.training import validation_scores

from conftest import small_model_config
from oracles import per_sample_rollouts

TOL = 1e-12


def _members(k=3):
    return [RngStream(7, (k_, 1)) for k_ in range(k)]


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


@pytest.mark.parametrize("mode", ["sample", "map"])
def test_sample_rollouts_matches_per_sample_loop(tiny_scenes, mode):
    scenes, _ = tiny_scenes
    model = TrajectoryModel(small_model_config(), seed=5)
    pos, cats, _ = max(TrajectoryModel.batch_scenes(scenes), key=lambda g: len(g[2]))
    b = pos.shape[0]
    assert b > 1
    streams = [RngStream(3).child(k) for k in range(4)]
    out, graphs = model.sample_rollouts(pos, cats, streams, sample_mode=mode)
    ref, ref_graphs = per_sample_rollouts(model, pos, cats, streams, sample_mode=mode)
    assert out.shape == ref.shape == (4,) + pos.shape
    assert np.abs(out - ref).max() <= TOL
    for k, sample_graphs in enumerate(ref_graphs):
        for g, r in zip(graphs, sample_graphs):
            np.testing.assert_array_equal(g.z.data[k * b:(k + 1) * b], r.z.data)


@pytest.fixture
def looped(monkeypatch):
    """Swap the sampler for the per-sample loop; records each call's stream addresses."""
    calls = []

    def sample_rollouts(self, positions, categories, streams, **predict_kw):
        calls.append([s.stream for s in streams])
        out, graphs = per_sample_rollouts(self, positions, categories, streams,
                                          **predict_kw)
        stacked = [InteractionGraphSample(
            *(DArray(np.concatenate([getattr(g[w], f).data for g in graphs]))
              for f in ("probs", "z", "edge_feats")), hard=graphs[0][w].hard)
            for w in range(len(graphs[0]))]
        return out, stacked

    def run(fn):
        with monkeypatch.context() as m:
            m.setattr(TrajectoryModel, "sample_rollouts", sample_rollouts)
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


def test_estimator_predict_matches_per_sample_loop(trained_small, looped):
    model, scenes, _, _ = trained_small
    est = TrajectoryForecaster(hidden_dim=16, edge_dim=16, attn_dim=16, seed=3)
    est.model_ = model
    run = lambda: est.predict(scenes[:6], n_samples=3)  # noqa: E731
    a, b = run(), looped(run)
    for x, y in zip(a, b):
        assert x.shape == y.shape == (3, x.shape[1], est.t_future, 2)
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
