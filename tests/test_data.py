import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajgraph import checkpoint
from trajgraph.data import (Normalizer, Scene, SyntheticConfig, check_scenes,
                            generate_synthetic, load_csv, plan_windows,
                            save_csv, simulate_scene, split_scenes)
from trajgraph.errors import (ConfigError, ContractError, DataError,
                              GenerationError)
from trajgraph.rng import RngStream

rng_np = np.random.default_rng(23)


def _random_scenes(n=3, n_agents=4, t=8):
    scenes = []
    for s in range(n):
        scenes.append(Scene(
            f"s{s}", rng_np.integers(0, 3, size=n_agents),
            rng_np.uniform(-1, 1, size=(n_agents, t, 2))))
    return scenes


# ---------------------------------------------------------------- normalizer

def test_normalize_midpoint_maps_to_zero():
    norm = Normalizer(0.0, 10.0, -2.0, 2.0)
    out = norm.normalize(np.array([[5.0, 0.0]]))
    np.testing.assert_array_equal(out, [[0.0, 0.0]])


def test_normalize_endpoints_map_to_plus_minus_one():
    norm = Normalizer(0.0, 10.0, -2.0, 2.0)
    np.testing.assert_array_equal(norm.normalize(np.array([[0.0, -2.0]])), [[-1.0, -1.0]])
    np.testing.assert_array_equal(norm.normalize(np.array([[10.0, 2.0]])), [[1.0, 1.0]])


def test_normalize_round_trip_within_1e12():
    norm = Normalizer(3.0, 28.65, -40.0, 41.5)
    pts = np.stack([rng_np.uniform(3.0, 28.65, 1000),
                    rng_np.uniform(-40.0, 41.5, 1000)], axis=-1)
    back = norm.denormalize(norm.normalize(pts))
    assert np.abs(back - pts).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.floats(-1e3, 1e3),
       st.floats(1e-3, 1e3))
def test_normalize_round_trip_property(x0, dx, y0, dy):
    norm = Normalizer(x0, x0 + dx, y0, y0 + dy)
    pts = np.array([[x0 + 0.25 * dx, y0 + 0.75 * dy]])
    back = norm.denormalize(norm.normalize(pts))
    assert np.abs(back - pts).max() < 1e-9 * max(1.0, dx, dy)


def test_degenerate_range_rejected():
    with pytest.raises(ConfigError):
        Normalizer(1.0, 1.0, 0.0, 2.0)


def test_out_of_bounds_points_rejected():
    norm = Normalizer(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(DataError):
        norm.normalize(np.array([[2.0, 0.5]]))


def test_sidecar_round_trip(tmp_path):
    norm = Normalizer(0.125, 28.65, -40.0, 41.5)
    path = tmp_path / "bounds.txt"
    norm.to_file(path)
    loaded = Normalizer.from_file(path)
    assert (loaded.min_x, loaded.max_x, loaded.min_y, loaded.max_y) == \
        (norm.min_x, norm.max_x, norm.min_y, norm.max_y)


# ------------------------------------------------------------------- windows

def test_plan_windows_nba_case():
    plan = plan_windows(5, 10, 5)
    assert (plan.n_windows, plan.residual) == (3, 0)


def test_plan_windows_sdd_case():
    plan = plan_windows(8, 12, 4)
    assert (plan.n_windows, plan.residual) == (5, 0)


def test_plan_windows_residual_case():
    plan = plan_windows(5, 12, 5)  # T = 17
    assert (plan.n_windows, plan.residual) == (3, 2)


def test_plan_windows_tau_validation():
    with pytest.raises(ConfigError):
        plan_windows(5, 10, 0)
    with pytest.raises(ConfigError):
        plan_windows(5, 10, 6)


def test_window_steps_partition_exactly():
    plan = plan_windows(5, 12, 5)
    covered = []
    for w in range(plan.n_windows):
        lo, hi = plan.window_steps(w)
        covered.extend(range(lo, hi))
    assert covered == list(range(plan.n_windows * plan.tau))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.integers(1, 20), st.integers(1, 10))
def test_windows_partition_property(t_h, t_f, tau):
    if tau > t_h:
        return
    plan = plan_windows(t_h, t_f, tau)
    assert plan.n_windows * plan.tau + plan.residual == t_h + t_f
    seen = set()
    for w in range(plan.n_windows):
        lo, hi = plan.window_steps(w)
        steps = set(range(lo, hi))
        assert not (steps & seen)
        seen |= steps


def test_graph_index_for_targets():
    plan = plan_windows(5, 12, 5)  # windows 0..2, residual 2, T=17
    assert plan.graph_index_for_target(1) == -1   # first window: no graph yet
    assert plan.graph_index_for_target(4) == -1
    assert plan.graph_index_for_target(5) == 0
    assert plan.graph_index_for_target(10) == 1
    assert plan.graph_index_for_target(14) == 1   # still inside window 2
    assert plan.graph_index_for_target(15) == 2   # residual reuses last graph
    assert plan.graph_index_for_target(16) == 2
    with pytest.raises(ContractError):
        plan.graph_index_for_target(17)


# ----------------------------------------------------------------------- csv

def test_empty_csv_gives_empty_list(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("scene_id,agent_id,category,t,x,y\n")
    assert load_csv(path) == []


def test_csv_round_trip(tmp_path):
    scenes = _random_scenes(10)
    path = tmp_path / "d.csv"
    save_csv(scenes, path)
    loaded = load_csv(path)
    assert len(loaded) == len(scenes)
    for a, b in zip(scenes, loaded):
        assert a.scene_id == b.scene_id
        np.testing.assert_array_equal(a.categories, b.categories)
        np.testing.assert_array_equal(a.positions, b.positions)


def test_failed_dataset_writes_leave_previous_files_and_no_temp_file(
        tmp_path, monkeypatch):
    path = tmp_path / "train.csv"
    save_csv(_random_scenes(2), path)
    before = path.read_bytes()

    class Unreadable:
        @property
        def n_agents(self):
            raise RuntimeError("disk full")

    # the first scene's rows are written before the second one fails
    with pytest.raises(RuntimeError, match="disk full"):
        save_csv([_random_scenes(1)[0], Unreadable()], path)
    assert path.read_bytes() == before

    sidecar = tmp_path / "normalization.txt"
    Normalizer(0.0, 1.0, 0.0, 1.0).to_file(sidecar)
    before_sidecar = sidecar.read_bytes()

    def failing_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint.os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk full"):
        Normalizer(-5.0, 5.0, -5.0, 5.0).to_file(sidecar)
    assert sidecar.read_bytes() == before_sidecar
    assert sorted(p.name for p in tmp_path.iterdir()) == ["normalization.txt",
                                                           "train.csv"]


def test_csv_missing_timestep_rejected(tmp_path):
    path = tmp_path / "d.csv"
    lines = ["scene_id,agent_id,category,t,x,y"]
    for a in range(2):
        for t in range(4):
            if a == 1 and t == 3:
                continue
            lines.append(f"s0,{a},0,{t},0.0,0.0")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError):
        load_csv(path)


def test_csv_unknown_category_rejected(tmp_path):
    scenes = _random_scenes(1)
    scenes[0].categories[:] = 7
    path = tmp_path / "d.csv"
    save_csv(scenes, path)
    with pytest.raises(ConfigError):
        check_scenes(load_csv(path), 3, 8)


# ------------------------------------------------------------------ generator

def test_edge_prob_zero_gives_empty_graphs_and_smooth_lines():
    cfg = SyntheticConfig(n_scenes=4, edge_prob=0.0, seed=1)
    scenes, norm = generate_synthetic(cfg)
    for scene in scenes:
        assert scene.truth_graph.sum() == 0
        raw = norm.denormalize(scene.positions)
        # undriven damped motion: velocity never changes sign or grows
        v = np.diff(raw, axis=1)
        for i in range(scene.n_agents):
            for d in range(2):
                vi = v[i, :, d]
                assert (np.abs(vi[1:]) <= np.abs(vi[:-1]) + 1e-12).all()
                assert (np.sign(vi[1:]) == np.sign(vi[0])).all() or np.abs(vi[0]) < 1e-12


def test_two_agent_symmetric_coupling_conserves_momentum():
    rng = RngStream(9).child(0)
    cats = np.array([0, 0])
    graph = np.array([[0, 1], [1, 0]])
    coupling = np.array([[1.3]])
    damping = np.array([0.0])
    pos = simulate_scene(rng, 2, cats, graph, coupling, damping,
                         n_steps=40, dt=0.05, init_box=1.0, init_vel=0.6)
    v = np.diff(pos, axis=1) / 0.05
    momentum = v.sum(axis=0)  # (T-1, 2)
    drift = np.abs(momentum - momentum[0]).max()
    assert drift < 1e-9


def test_generator_deterministic():
    cfg = SyntheticConfig(n_scenes=5, seed=42)
    a, _ = generate_synthetic(cfg)
    b, _ = generate_synthetic(cfg)
    for sa, sb in zip(a, b):
        assert sa.positions.tobytes() == sb.positions.tobytes()
        assert sa.truth_graph.tobytes() == sb.truth_graph.tobytes()


def test_generator_positions_normalized_and_bounds_attained():
    scenes, _ = generate_synthetic(SyntheticConfig(n_scenes=6, seed=3))
    allpos = np.concatenate([s.positions.reshape(-1, 2) for s in scenes])
    assert allpos.min() >= -1.0 - 1e-12 and allpos.max() <= 1.0 + 1e-12
    assert allpos[:, 0].max() == pytest.approx(1.0)
    assert allpos[:, 0].min() == pytest.approx(-1.0)


def test_generator_truth_graph_zero_diagonal():
    scenes, _ = generate_synthetic(SyntheticConfig(n_scenes=5, seed=8))
    for s in scenes:
        assert np.diag(s.truth_graph).sum() == 0


def test_generator_covers_all_categories():
    cfg = SyntheticConfig(n_scenes=30, n_categories=3, seed=2)
    scenes, _ = generate_synthetic(cfg)
    seen = set()
    for s in scenes:
        seen |= set(s.categories.tolist())
    assert seen == {0, 1, 2}


def test_generator_divergence_guard():
    cfg = SyntheticConfig(n_scenes=1, seed=0, dt=50.0,
                          coupling=np.full((3, 3), 50.0),
                          damping=np.zeros(3), edge_prob=1.0,
                          t_future=200)
    with pytest.raises(GenerationError):
        generate_synthetic(cfg)


def test_split_scenes_ratios_and_validation():
    scenes = _random_scenes(20)
    train, val, test = split_scenes(scenes, (0.65, 0.10, 0.25), seed=0)
    assert len(train) == 13 and len(val) == 2 and len(test) == 5
    ids = {s.scene_id for s in train} | {s.scene_id for s in val} | {s.scene_id for s in test}
    assert len(ids) == 20
    with pytest.raises(ConfigError):
        split_scenes(scenes, (0.5, 0.2, 0.2), seed=0)
