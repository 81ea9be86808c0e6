import math
import time

import numpy as np
import pytest

from trajgraph.autodiff import DArray
from trajgraph.data import Scene, simulate_scene
from trajgraph.encoder import InteractionGraphSample
from trajgraph.errors import ConfigError, ContractError, DataError
from trajgraph.evaluation import (BoundScenario, GraphQualityReport, ade_fde,
                                  eval_rollouts, graph_quality, metrics_csv_rows,
                                  sampled_metrics, select_graph, theorem_bounds,
                                  verify_bounds)
from trajgraph.graph_complexity import graph_entropy
from trajgraph.rng import RngStream

from conftest import reconfigured
from oracles import (brute_force_selection_entropy, degree_box_min_entropy,
                     entropy_of_degrees, hard_entropy, naive_ade_fde)

rng_np = np.random.default_rng(83)


# ------------------------------------------------------------------- ade/fde

def test_ade_fde_exact_prediction_is_zero():
    x = rng_np.normal(size=(3, 10, 2))
    a, f = ade_fde(x, x)
    np.testing.assert_array_equal(a, np.zeros(3))
    np.testing.assert_array_equal(f, np.zeros(3))


def test_ade_fde_constant_offset():
    x = rng_np.normal(size=(3, 10, 2))
    shifted = x.copy()
    shifted[..., 0] += 1.0
    a, f = ade_fde(x, shifted)
    np.testing.assert_allclose(a, np.ones(3))
    np.testing.assert_allclose(f, np.ones(3))


def test_ade_fde_matches_naive_loop_oracle():
    x = rng_np.normal(size=(5, 12, 2))
    p = rng_np.normal(size=(5, 12, 2))
    a, f = ade_fde(x, p)
    na, nf = naive_ade_fde(x, p)
    assert np.abs(a - na).max() < 1e-12
    assert np.abs(f - nf).max() < 1e-12


# ------------------------------------------------------------ sampled metrics

def test_single_sample_min_equals_mean(trained_small):
    model, scenes, norm, _ = trained_small
    rec = sampled_metrics(model, scenes[:4], norm, n_samples=1, seed=3)
    assert rec.min_ade == rec.mean_ade
    assert rec.min_fde == rec.mean_fde


def test_mixed_step_counts_name_the_first_differing_scene(small_model, tiny_scenes):
    """A library caller that skips `data.check_scenes` gets a DataError
    naming the scene, not numpy's stacking error."""
    scenes = list(tiny_scenes[0][:6])
    cut = scenes[3]
    scenes[3] = Scene(cut.scene_id, cut.categories, cut.positions[:, :14])
    with pytest.raises(DataError, match=f"scene {cut.scene_id} has 14 steps, "
                                        f"scene {scenes[0].scene_id} has 15"):
        eval_rollouts(small_model, scenes, n_samples=2, seed=0)


def test_eval_rollouts_rejects_no_scenes_and_a_negative_seed(small_model, tiny_scenes):
    with pytest.raises(DataError, match="no scenes to evaluate"):
        eval_rollouts(small_model, [], n_samples=2, seed=0)
    with pytest.raises(ConfigError, match="seed.*-3"):
        eval_rollouts(small_model, tiny_scenes[0][:4], n_samples=2, seed=-3)


def test_deterministic_model_min_equals_mean(trained_small):
    model, scenes, norm, _ = trained_small
    # all stochasticity off: map graphs (no edge noise), no head noise
    model = reconfigured(model, step_noise=False)
    rec = sampled_metrics(model, scenes[:4], norm, n_samples=4, seed=3,
                          sample_mode="map")
    assert rec.min_ade == pytest.approx(rec.mean_ade, abs=1e-12)


def test_min_ade_nonincreasing_in_sample_count(trained_small):
    model, scenes, norm, _ = trained_small
    values = [sampled_metrics(model, scenes[:4], norm, n_samples=k,
                              seed=5).min_ade
              for k in range(1, 8)]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_min_not_above_mean_and_reproducible(trained_small):
    model, scenes, norm, _ = trained_small
    a = sampled_metrics(model, scenes[:6], norm, n_samples=5, seed=9)
    b = sampled_metrics(model, scenes[:6], norm, n_samples=5, seed=9)
    assert a.min_ade <= a.mean_ade and a.min_fde <= a.mean_fde
    assert (a.min_ade, a.mean_ade, a.min_fde, a.mean_fde) == \
        (b.min_ade, b.mean_ade, b.min_fde, b.mean_fde)
    assert a.per_category == b.per_category


def test_threaded_metrics_match_serial(trained_small):
    model, scenes, norm, _ = trained_small
    a = sampled_metrics(model, scenes[:6], norm, n_samples=3, seed=4, threads=1)
    b = sampled_metrics(model, scenes[:6], norm, n_samples=3, seed=4, threads=4)
    assert (a.min_ade, a.mean_ade, a.avg_entropy, a.avg_density) == \
        (b.min_ade, b.mean_ade, b.avg_entropy, b.avg_density)


def test_metrics_csv_rows_format(trained_small):
    model, scenes, norm, _ = trained_small
    rec = sampled_metrics(model, scenes[:3], norm, n_samples=2, seed=1)
    main, cats = metrics_csv_rows(rec, "ds", "plain", 0.5)
    assert main.startswith("ds,plain,0.5,")
    assert len(main.split(",")) == 9
    for row in cats:
        assert len(row.split(",")) == 8


# -------------------------------------------------------------- graph quality

class GraphBlindProbe:
    """Rollout error is pure noise: no edge can matter."""

    def __init__(self, n_agents=4, n_rollouts=16):
        self.n = n_agents
        self.k = n_rollouts

    def infer_graphs(self, scene, rng):
        z = np.ones((1, self.n, self.n))
        np.fill_diagonal(z[0], 0.0)
        return [InteractionGraphSample(DArray(z), DArray(np.zeros((1, self.n, self.n, 4))))]

    def rollout_ades(self, scene, graphs, rng):
        return rng.normal(loc=1.0, scale=0.01, size=self.k) ** 2


class TruthDynamicsProbe:
    """Rollouts follow the spring dynamics of whatever graph they are given,
    so edited graphs that deviate from the ground truth raise the error."""

    def __init__(self, scene: Scene, coupling, damping, dt, n_rollouts=16):
        self.scene = scene
        self.coupling = coupling
        self.damping = damping
        self.dt = dt
        self.k = n_rollouts

    def infer_graphs(self, scene, rng):
        z = scene.truth_graph.astype(float)[None]
        return [InteractionGraphSample(
            DArray(z), DArray(np.zeros((1, scene.n_agents, scene.n_agents, 4))))]

    def rollout_ades(self, scene, graphs, rng):
        graph = graphs[0].z.data[0].astype(np.int64)
        out = []
        for k in range(self.k):
            sim = simulate_scene(rng.child(k), scene.n_agents, scene.categories,
                                 graph, self.coupling, self.damping,
                                 scene.n_steps, self.dt, init_box=1.0,
                                 init_vel=0.6)
            sim += rng.child(1000 + k).normal(scale=1e-4, size=sim.shape)
            err = np.linalg.norm(sim[:, 5:] - self.scene.positions[:, 5:],
                                 axis=-1)
            out.append(err.mean())
        return np.array(out)


def test_graph_blind_model_marks_every_edge_redundant():
    probe = GraphBlindProbe()
    scene = Scene("s", np.zeros(4, dtype=int), rng_np.normal(size=(4, 15, 2)) * 0.1)
    report = graph_quality(probe, [scene], seed=3)
    assert report.n_redundant == report.n_edges == 12
    assert report.n_missing == 0
    assert report.denominator == 0
    assert math.isinf(report.redundant_rate)   # degenerate: all edges inert


def test_truth_dynamics_probe_keeps_true_edges():
    rng = RngStream(17).child(0)
    n = 4
    cats = np.zeros(n, dtype=int)
    coupling = np.array([[1.6]])
    damping = np.array([0.1])
    truth = np.zeros((n, n), dtype=np.int64)
    truth[0, 1] = truth[1, 2] = truth[2, 3] = truth[3, 0] = 1
    positions = simulate_scene(rng, n, cats, truth, coupling, damping, 15, 0.2,
                               init_box=1.0, init_vel=0.6)
    scene = Scene("s", cats, positions, truth)
    probe = TruthDynamicsProbe(scene, coupling, damping, 0.2)
    report = graph_quality(probe, [scene], seed=5)
    assert report.n_edges == 4
    # dynamics depend on every true edge: low redundancy (directional)
    assert report.n_redundant <= 1
    assert 0.0 <= report.missing_rate <= 1.0
    assert report.redundant_rate <= 0.5


def test_quality_rates_within_unit_interval_when_denominator_positive():
    report = GraphQualityReport(n_edges=10, n_redundant=2, n_missing=1,
                                n_scenes=3, n_skipped=0)
    assert 0.0 <= report.redundant_rate <= 1.0
    assert 0.0 <= report.missing_rate <= 1.0
    assert report.denominator == 9


# ------------------------------------------------------------ graph selection

def test_select_all_confident_edges():
    n = 4
    probs = np.full((n, n), 0.9)
    np.fill_diagonal(probs, 0.0)
    for heuristic in ("entropy", "similarity"):
        z = select_graph(probs, previous=np.zeros((n, n)), heuristic=heuristic)
        assert z.sum() == n * (n - 1)


def test_select_no_uncertain_edges_below_low_threshold():
    n = 4
    probs = np.full((n, n), 0.1)
    np.fill_diagonal(probs, 0.0)
    probs[0, 1] = 0.95
    z = select_graph(probs)
    assert z.sum() == 1 and z[0, 1] == 1


def test_entropy_heuristic_concentrates_edges():
    # node 0 already has the highest in-degree; uncertain edges point at it,
    # so including them lowers the entropy and the heuristic takes them
    n = 4
    probs = np.zeros((n, n))
    probs[1, 0] = probs[2, 0] = 0.9     # certain, into node 0
    probs[1, 2] = 0.85                  # certain, elsewhere
    probs[3, 0] = 0.5                   # uncertain, into node 0
    z = select_graph(probs, heuristic="entropy")
    assert z[3, 0] == 1.0
    # exhaustive oracle: no alternative completion beats the returned graph
    h_best = graph_entropy(z)
    for bit in (0.0, 1.0):
        alt = z.copy()
        alt[3, 0] = bit
        assert graph_entropy(alt) >= h_best - 1e-15


def test_entropy_heuristic_optimal_vs_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(25):
        probs = rng.uniform(size=(4, 4))
        np.fill_diagonal(probs, 0.0)
        z = select_graph(probs, theta_low=0.2, theta_high=0.8)
        uncertain = list(zip(*np.nonzero((probs >= 0.2) & (probs <= 0.8)
                                         & ~np.eye(4, dtype=bool))))
        h_best = graph_entropy(z)
        for mask in range(1 << len(uncertain)):
            alt = ((probs > 0.8) & ~np.eye(4, dtype=bool)).astype(float)
            for b, (i, j) in enumerate(uncertain):
                if mask >> b & 1:
                    alt[i, j] = 1.0
            assert graph_entropy(alt) >= h_best - 1e-12


def test_similarity_heuristic_copies_previous_decisions():
    n = 4
    probs = np.full((n, n), 0.5)
    np.fill_diagonal(probs, 0.0)
    prev = (rng_np.uniform(size=(n, n)) < 0.5).astype(float)
    np.fill_diagonal(prev, 0.0)
    z = select_graph(probs, previous=prev, heuristic="similarity")
    np.testing.assert_array_equal(z, prev)


def test_similarity_requires_previous():
    probs = np.full((3, 3), 0.5)
    np.fill_diagonal(probs, 0.0)
    with pytest.raises(ContractError):
        select_graph(probs, heuristic="similarity")


def _edge_classes(probs, theta_low=0.2, theta_high=0.8):
    offdiag = ~np.eye(len(probs), dtype=bool)
    certain = (probs > theta_high) & offdiag
    return certain, (probs >= theta_low) & (probs <= theta_high) & offdiag


def _assert_corner_completion(probs, z):
    """Certain edges kept, excluded ones left out, and each column takes
    none or all of its uncertain edges."""
    certain, uncertain = _edge_classes(probs)
    assert (z[certain] == 1).all() and (z[~certain & ~uncertain] == 0).all()
    for j in range(len(probs)):
        assert len(set(z[uncertain[:, j], j])) <= 1, j


def test_entropy_selection_matches_edge_subset_brute_force():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 300:
        n = int(rng.integers(3, 6))
        probs = rng.uniform(size=(n, n))
        np.fill_diagonal(probs, 0.0)
        if _edge_classes(probs)[1].sum() > 16:    # beyond the oracle's reach
            continue
        z = select_graph(probs, theta_low=0.2, theta_high=0.8)
        assert abs(hard_entropy(z) - brute_force_selection_entropy(probs, 0.2, 0.8)) <= 1e-12
        _assert_corner_completion(probs, z)
        checked += 1


def test_entropy_selection_matches_degree_box_brute_force():
    """8-node cases with at least 30 uncertain edges, where the search must
    reach the minimum over every integer in-degree vector it could realize."""
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 10:
        probs = rng.uniform(size=(8, 8))
        np.fill_diagonal(probs, 0.0)
        certain, uncertain = _edge_classes(probs)
        if uncertain.sum() < 30:
            continue
        z = select_graph(probs, theta_low=0.2, theta_high=0.8)
        low = certain.sum(axis=0)
        best = degree_box_min_entropy(low, low + uncertain.sum(axis=0))
        assert abs(hard_entropy(z) - best) <= 1e-12
        _assert_corner_completion(probs, z)
        checked += 1


def test_fourteen_node_all_uncertain_selection_is_fast():
    probs = np.full((14, 14), 0.5)
    np.fill_diagonal(probs, 0.0)
    start = time.perf_counter()
    z = select_graph(probs)
    assert time.perf_counter() - start < 10.0
    assert hard_entropy(z) == 0.0


def test_selection_searches_every_corner_chunk():
    """18 columns hold uncertain edges (2^18 corners, searched in chunks).
    Columns 0-16 have one certain and one uncertain edge each; column 17
    has 17 uncertain ones. By symmetry a corner is fixed by how many of
    columns 0-16 take their edge and whether column 17 takes all of its."""
    n = 18
    probs = np.zeros((n, n))
    for j in range(n - 1):
        probs[(j + 1) % n, j] = 0.9
        probs[(j + 2) % n, j] = 0.5
    probs[:n - 1, n - 1] = 0.5
    z = select_graph(probs)
    best = min(entropy_of_degrees([2] * c + [1] * (n - 1 - c) + [top], n)
               for c in range(n) for top in (0, n - 1))
    assert abs(hard_entropy(z) - best) <= 1e-12
    assert z[:n - 1, n - 1].all()      # the least-entropy corner sets the last column
    _assert_corner_completion(probs, z)


# ------------------------------------------------------------ theorem bounds

def test_bounds_worked_example():
    b1, b2, b3 = theorem_bounds(BoundScenario(2.0, 0.01, 3, 0.1))
    assert b1 == pytest.approx(0.87)
    assert b2 == pytest.approx(0.47)
    assert b3 == pytest.approx(0.4)


def test_bounds_unit_lipschitz_limit():
    b1, _, _ = theorem_bounds(BoundScenario(1.0, 0.01, 5, 0.0))
    assert b1 == pytest.approx(0.05)


def test_bounds_all_zero_case():
    assert theorem_bounds(BoundScenario(1.5, 0.0, 4, 0.0)) == (0.0, 0.0, 0.0)


def test_bounds_scenario_validation():
    with pytest.raises(ContractError):
        BoundScenario(0.0, 0.1, 3, 0.1)
    with pytest.raises(ContractError):
        BoundScenario(1.0, -0.1, 3, 0.1)


def test_bound_ordering_random_scenarios():
    rng = np.random.default_rng(5)
    for _ in range(500):
        s = BoundScenario(float(rng.uniform(0.1, 3.0)),
                          float(rng.uniform(0.0, 0.5)),
                          int(rng.integers(1, 10)),
                          float(rng.uniform(0.0, 2.0)))
        b1, b2, b3 = theorem_bounds(s)
        assert b3 <= b2 + 1e-12 <= b1 + 1e-12


def test_bound_b1_nondecreasing_in_horizon_for_expansive_maps():
    for lip in (1.0, 1.3, 2.0):
        values = [theorem_bounds(BoundScenario(lip, 0.05, n, 0.3))[0]
                  for n in range(1, 10)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_verify_bounds_small_run_passes():
    report = verify_bounds(seed=1, trials=150)
    assert report.passed
    assert report.violations_pathwise == 0


def test_exact_surrogate_zero_gap_has_zero_deviation():
    # eps = 0, gap = 0: trajectories coincide, all bounds trivially hold
    rng = np.random.default_rng(13)
    a = rng.normal(size=(3, 3))
    a *= 0.8 / np.linalg.svd(a, compute_uv=False)[0]
    b = rng.normal(size=3)
    x = rng.normal(size=3)
    y = x.copy()
    truth = x.copy()
    for _ in range(6):
        y = a @ y + b
        truth = a @ truth + b
    assert np.linalg.norm(y - truth) == 0.0


def test_contraction_deviation_decreases_without_disturbance():
    rng = np.random.default_rng(29)
    a = rng.normal(size=(4, 4))
    a *= 0.5 / np.linalg.svd(a, compute_uv=False)[0]
    b = rng.normal(size=4)
    x = rng.normal(size=4)
    y = x + 0.3 * rng.normal(size=4)
    devs = []
    for _ in range(8):
        x = a @ x + b
        y = a @ y + b
        devs.append(np.linalg.norm(y - x))
    assert all(later <= earlier + 1e-12 for earlier, later in zip(devs, devs[1:]))
