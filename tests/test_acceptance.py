"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 7, the
directional synthetic experiment, is not implemented yet: it is pending
(the ROADMAP item "The paper's claims, measured"), so there is no test
for it here.
"""

import time

import numpy as np

from trajgraph import autodiff as ad
from trajgraph.autodiff import DArray
from trajgraph.checkpoint import load_checkpoint, save_checkpoint
from trajgraph.cli import main as cli_main
from trajgraph.data import SyntheticConfig, generate_synthetic, split_scenes
from trajgraph.encoder import GraphEncoder
from trajgraph.decoder import DecoderRun
from trajgraph.evaluation import (ade_fde, sampled_metrics, select_graph,
                                  verify_bounds)
from trajgraph.graph_complexity import (graph_entropy, min_graph_entropy,
                                        random_majorizing_pair,
                                        regularized_loss, verify_hlp)
from trajgraph.model import ModelConfig, TrajectoryModel, mix
from trajgraph.nn import ParamStore, gradients
from trajgraph.rng import RngStream
from trajgraph.training import TrainConfig, reconstruction_loss, train

from oracles import (brute_force_min_entropy, fd_step, naive_ade_fde,
                     naive_reconstruction_loss)

R = np.random.default_rng(20240)


def report(criterion: int, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion:>2} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: gradient suite, every differentiable operation vs central
# finite differences, >= 20 probes each, 1e-4 relative, < 2 min.
# ---------------------------------------------------------------------------

def _probe(loss_fn, arrays, n_probes=20, rtol=1e-4, atol=1e-8):
    loss = loss_fn()
    loss.backward()
    eps = fd_step(loss.item(), atol)
    analytic = [a.grad if a.grad is not None else np.zeros_like(a.data)
                for a in arrays]
    worst = 0.0
    for _ in range(n_probes):
        ai = int(R.integers(0, len(arrays)))
        arr = arrays[ai]
        idx = int(R.integers(0, arr.data.size))
        flat = arr.data.reshape(-1)
        orig = flat[idx]
        flat[idx] = orig + eps
        f_plus = loss_fn().item()
        flat[idx] = orig - eps
        f_minus = loss_fn().item()
        flat[idx] = orig
        fd = (f_plus - f_minus) / (2 * eps)
        an = analytic[ai].reshape(-1)[idx]
        denom = max(abs(an), abs(fd))
        err = abs(an - fd)
        assert err <= rtol * denom + atol, (an, fd)
        if denom > 1e-4:   # report relative error on non-negligible grads
            worst = max(worst, err / denom)
    for a in arrays:
        a.grad = None
    return worst


def test_criterion_1_gradient_suite():
    start = time.time()
    worst = 0.0
    # (a) encoder GNN (embedding + two-pass GNN, batch norm in train mode)
    store = ParamStore()
    enc = GraphEncoder(store, 3, 8, 8, 2, 0.5, RngStream(1).child(0))
    window = DArray(R.normal(size=(2, 3, 3, 2)), requires_grad=True)

    def gnn_loss():
        v = enc.embed_window(window, train=True)
        vt, e = enc.gnn_pass(v, train=True)
        return (vt * vt).sum() + (e * e).sum()

    arrays = [window] + [store[k] for k, _ in store.trainable_items()
                         if k.startswith(("enc.emb", "enc.edge", "enc.node"))]
    worst = max(worst, _probe(gnn_loss, arrays))

    # (b) binary-concrete relation sampling (fixed noise stream per call)
    def concrete_loss():
        et = enc.embed_window(window, train=True)
        vt, e_t = enc.gnn_pass(et, train=True)
        logits, _ = enc.update_relations(e_t, None)
        z = enc.sample_relations(logits, "train", RngStream(7).child(3))
        return (z * DArray(R2_WEIGHTS[:z.shape[-1], :z.shape[-1]])).sum()

    global R2_WEIGHTS
    R2_WEIGHTS = np.random.default_rng(5).normal(size=(8, 8))
    arrays = [window] + [store[k] for k, _ in store.trainable_items()]
    worst = max(worst, _probe(concrete_loss, arrays))

    # (c) heterogeneous attention + (d) category GRUs + head
    model = TrajectoryModel(ModelConfig(n_categories=2, t_history=2,
                                        t_future=2, tau=2, hidden_dim=6,
                                        edge_dim=6, attn_dim=6,
                                        step_noise=False), seed=3)
    pos = R.normal(size=(1, 3, 4, 2)) * 0.5
    cats = np.array([[0, 1, 0]])

    def ham_loss():
        graphs = model.infer_graphs_from_truth(pos, RngStream(5).child(1))
        run = DecoderRun(model.decoder, 1, 3, cats)
        h = DArray(HAM_HIDDEN)
        m = run.attend(h, graphs[0], 0)
        return (m * m).sum()

    global HAM_HIDDEN
    HAM_HIDDEN = R.normal(size=(3, 6))
    arrays = [model.store[k] for k, _ in model.store.trainable_items()]
    worst = max(worst, _probe(ham_loss, arrays))

    def gru_head_loss():
        graphs = model.infer_graphs_from_truth(pos, RngStream(5).child(1))
        preds = model.rollout(pos, cats, graphs, RngStream(6))
        return reconstruction_loss(pos, preds, 2)

    worst = max(worst, _probe(gru_head_loss, arrays))

    # (e) entropy penalty on relaxed adjacencies
    z_soft = R.uniform(0.05, 0.95, size=(4, 4))
    np.fill_diagonal(z_soft, 0.0)
    zd = DArray(z_soft, requires_grad=True)
    worst = max(worst, _probe(lambda: graph_entropy(zd), [zd]))

    # (f) full loss: reconstruction + entropy penalty through the encoder
    def full_loss():
        graphs = model.infer_graphs_from_truth(pos, RngStream(5).child(1))
        preds = model.rollout(pos, cats, graphs, RngStream(6))
        recon = reconstruction_loss(pos, preds, 2)
        return regularized_loss(recon, [g.z for g in graphs], 0.5, "entropy")

    worst = max(worst, _probe(full_loss, arrays))
    elapsed = time.time() - start
    report(1, elapsed < 120.0,
           f"gradient suite: 6 op families x >=20 probes, worst relative "
           f"error {worst:.2e} <= 1e-4, runtime {elapsed:.1f}s < 120s")


# ---------------------------------------------------------------------------
# Criterion 2: entropy minimizer closed form == brute force, monotone in |E|.
# ---------------------------------------------------------------------------

def test_criterion_2_entropy_minimizer():
    start = time.time()
    worst = 0.0
    for n in range(2, 7):
        for e in range(0, n * (n - 1) + 1):
            closed = min_graph_entropy(n, e)
            brute = brute_force_min_entropy(n, e)
            worst = max(worst, abs(closed - brute))
            assert abs(closed - brute) <= 1e-12, (n, e, closed, brute)
    for n in range(2, 7):
        values = [min_graph_entropy(n, e) for e in range(n * (n - 1) + 1)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:])), n
    elapsed = time.time() - start
    report(2, elapsed < 60.0,
           f"closed-form min entropy == brute force for N in [2,6] "
           f"(max |diff| {worst:.1e} <= 1e-12), nondecreasing in |E|; "
           f"runtime {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# Criterion 3: Hardy-Littlewood-Polya on 1000 constructed pairs.
# ---------------------------------------------------------------------------

def test_criterion_3_majorization_inequality():
    rng = RngStream(99).child(0)
    violations = 0
    for _ in range(1000):
        x, y = random_majorizing_pair(rng, int(rng.integers(3, 10)))
        if not verify_hlp(x, y):
            violations += 1
    report(3, violations == 0,
           f"1000 constructed majorizing pairs, {violations} violations of "
           f"sum phi(x) <= sum phi(y)")


# ---------------------------------------------------------------------------
# Criterion 4: recursive error bounds, 1000 affine-dynamics trials.
# ---------------------------------------------------------------------------

def test_criterion_4_recursive_error_bounds():
    rep = verify_bounds(seed=7, trials=1000)
    report(4, rep.passed,
           f"1000 trials: pathwise {rep.violations_pathwise}, "
           f"mixed-expectation {rep.violations_mixed}, "
           f"imitation-expectation {rep.violations_imitation}, "
           f"ordering {rep.violations_ordering} violations (all must be 0)")


# ---------------------------------------------------------------------------
# Criterion 5: entropy extremes are exact.
# ---------------------------------------------------------------------------

def test_criterion_5_entropy_extremes():
    ok = True
    for n in range(2, 8):
        full = np.ones((n, n)) - np.eye(n)
        ok = ok and graph_entropy(full) == 1.0
        # another uniform in-degree graph: a single directed cycle
        cycle = np.zeros((n, n))
        for i in range(n):
            cycle[i, (i + 1) % n] = 1.0
        ok = ok and graph_entropy(cycle) == 1.0
        for e in range(0, n):
            hub = np.zeros((n, n))
            hub[1:e + 1, 0] = 1.0
            ok = ok and graph_entropy(hub) == 0.0
    report(5, ok, "uniform in-degree graphs give H = 1.0 exactly; "
                  "single-hub graphs with |E| <= N-1 give H = 0 exactly")


# ---------------------------------------------------------------------------
# Criterion 6: mixup mechanics.
# ---------------------------------------------------------------------------

def test_criterion_6_mixup_mechanics():
    # exact degenerate mixes
    pred = R.normal(size=(3, 2))
    truth = R.normal(size=(3, 2))
    exact = (mix(pred, truth, 0.0) == truth).all() and \
        (mix(pred, truth, 1.0) == pred).all()

    # lam = 1: imitation loss and its gradients exactly zero
    cfg = ModelConfig(n_categories=3, t_history=5, t_future=10, tau=5,
                      hidden_dim=12, edge_dim=12, attn_dim=12)
    model = TrajectoryModel(cfg, seed=5)
    scenes, _ = generate_synthetic(SyntheticConfig(
        n_scenes=4, n_agents_min=3, n_agents_max=3, seed=21))
    pos = np.stack([s.positions for s in scenes])
    cats = np.stack([s.categories for s in scenes])
    rng = RngStream(31).child(0)
    graphs = model.infer_graphs_from_truth(pos, rng.child(1))
    # one stream: both rollouts draw the same head noise
    free = model.rollout(pos, cats, graphs, rng.child(3), input_mode="free_run")
    with ad.no_grad():
        target = model.rollout(pos, cats, graphs, rng.child(3),
                               input_mode="boundary", lam=1.0)
    l2 = reconstruction_loss(target.data, free, 5)
    grads = gradients(l2, model.store)
    l2_exact = l2.item() == 0.0 and all(np.abs(g).max() == 0.0
                                        for g in grads.values())

    # stop-gradient isolation: probe on the frozen path gets exactly zero;
    # the backward above consumed `graphs`, so re-infer them from the same
    # stream (identical values)
    probe = DArray(np.array(1.0), requires_grad=True)
    graphs = model.infer_graphs_from_truth(pos, rng.child(1))
    preds = model.rollout(pos, cats, graphs, rng.child(4),
                          input_mode="boundary", lam=0.6,
                          boundary_probe=probe)
    reconstruction_loss(pos, preds, 5).backward()
    stopgrad_exact = probe.grad is None or np.abs(probe.grad).max() == 0.0
    model.store.zero_grad()

    # 50-epoch mixup run: end-of-training running-average L2 < L1
    data, _ = generate_synthetic(SyntheticConfig(
        n_scenes=60, n_agents_min=3, n_agents_max=5, seed=33, dt=0.25,
        init_vel=1.0))
    tr, va, _ = split_scenes(data, (0.8, 0.2, 0.0), seed=1)
    run_model = TrajectoryModel(ModelConfig(hidden_dim=16, edge_dim=16,
                                            attn_dim=16), seed=6)
    result = train(run_model, TrainConfig(epochs=50, batch_size=64,
                                          learning_rate=3e-3, seed=6,
                                          strategy="mixup"), tr, va)
    tail = result.history[-10:]
    l1_avg = float(np.mean([r["L1"] for r in tail]))
    l2_avg = float(np.mean([r["L2"] for r in tail]))
    directional = l2_avg < l1_avg

    report(6, exact and l2_exact and stopgrad_exact and directional,
           f"lam degenerate checks exact; stop-gradient exactly zero; "
           f"50-epoch mixup run: running-average L2 {l2_avg:.5f} < "
           f"L1 {l1_avg:.5f}")


# ---------------------------------------------------------------------------
# Criterion 8: permutation equivariance of the full encoder+decoder rollout.
# ---------------------------------------------------------------------------

def test_criterion_8_permutation_equivariance():
    worst = 0.0
    for case in range(50):
        rng = np.random.default_rng(4000 + case)
        n = int(rng.integers(3, 7))
        model = TrajectoryModel(ModelConfig(hidden_dim=10, edge_dim=10,
                                            attn_dim=10, step_noise=False),
                                seed=case % 7)
        positions = np.cumsum(rng.normal(scale=0.05, size=(n, 15, 2)), axis=1)
        positions = np.clip(positions, -1.0, 1.0)
        categories = rng.integers(0, 3, size=n)
        perm = rng.permutation(n)
        base, _ = model.predict_batch(positions[None], categories[None],
                                      RngStream(0), sample_mode="map")
        permuted, _ = model.predict_batch(positions[perm][None],
                                          categories[perm][None],
                                          RngStream(0), sample_mode="map")
        worst = max(worst, float(np.abs(permuted[0] - base[0][perm]).max()))
    report(8, worst < 1e-9,
           f"50 random relabelings commute with the full rollout; "
           f"max abs deviation {worst:.2e} < 1e-9")


# ---------------------------------------------------------------------------
# Criterion 9: metric oracles and min <= mean over 20 samples.
# ---------------------------------------------------------------------------

def test_criterion_9_metric_oracles(trained_small):
    worst = 0.0
    for _ in range(20):
        truth = R.normal(size=(4, 10, 2))
        pred = R.normal(size=(4, 10, 2))
        a, f = ade_fde(truth, pred)
        na, nf = naive_ade_fde(truth, pred)
        worst = max(worst, float(np.abs(a - na).max()),
                    float(np.abs(f - nf).max()))
        full_t = R.normal(size=(2, 4, 15, 2))
        full_p = R.normal(size=(2, 4, 15, 2))
        ours = reconstruction_loss(full_t, DArray(full_p), 5).item()
        naive = np.mean([naive_reconstruction_loss(full_t[b], full_p[b], 5)
                         for b in range(2)])
        worst = max(worst, abs(ours - naive))
    model, scenes, norm, _ = trained_small
    rec = sampled_metrics(model, scenes[:6], norm, n_samples=20, seed=77)
    ok = worst < 1e-12 and rec.min_ade <= rec.mean_ade and \
        rec.min_fde <= rec.mean_fde
    report(9, ok,
           f"ADE/FDE and squared-loss match naive loops (max |diff| "
           f"{worst:.1e} < 1e-12); min <= mean over K=20 samples")


# ---------------------------------------------------------------------------
# Criterion 10: determinism and persistence.
# ---------------------------------------------------------------------------

def test_criterion_10_determinism_and_persistence(tmp_path):
    cfg_file = tmp_path / "cfg.ini"
    cfg_file.write_text("""
[data]
n_scenes = 12
n_agents_min = 3
n_agents_max = 4
seed = 3

[model]
hidden_dim = 10
edge_dim = 10
attn_dim = 10

[train]
epochs = 2
batch_size = 8
strategy = GE_mixup
gamma = 0.05
val_samples = 2

[eval]
samples = 3
threads = 2
""")
    data = tmp_path / "data"
    assert cli_main(["gen-data", "--config", str(cfg_file),
                     "--out", str(data)]) == 0
    outs = []
    for name in ("r1", "r2"):
        run_dir = tmp_path / name
        assert cli_main(["train", "--config", str(cfg_file), "--data",
                         str(data), "--out", str(run_dir)]) == 0
        eval_dir = tmp_path / (name + "_eval")
        assert cli_main(["evaluate", "--config", str(cfg_file),
                         "--checkpoint", str(run_dir / "model.ckpt"),
                         "--data", str(data), "--out", str(eval_dir)]) == 0
        outs.append((run_dir, eval_dir))
    same_ckpt = (outs[0][0] / "model.ckpt").read_bytes() == \
        (outs[1][0] / "model.ckpt").read_bytes()
    same_metrics = (outs[0][1] / "metrics.csv").read_bytes() == \
        (outs[1][1] / "metrics.csv").read_bytes()

    # checkpoint round-trip restores parameters exactly
    state = load_checkpoint(outs[0][0] / "model.ckpt")
    save_checkpoint(tmp_path / "again.ckpt", state)
    state2 = load_checkpoint(tmp_path / "again.ckpt")
    round_trip = all(state[k].tobytes() == state2[k].tobytes() for k in state)

    report(10, same_ckpt and same_metrics and round_trip,
           "fixed seed gives bit-identical checkpoints and metrics CSVs "
           "across two runs; checkpoint round-trip exact")


# ---------------------------------------------------------------------------
# Criterion 11: entropy selection heuristic is optimal in the exhaustive
# regime, verified by enumeration on 100 random probability matrices.
# ---------------------------------------------------------------------------

def test_criterion_11_selection_heuristic_optimality():
    rng = np.random.default_rng(555)
    checked = 0
    for case in range(100):
        n = 4
        probs = rng.uniform(size=(n, n))
        np.fill_diagonal(probs, 0.0)
        z = select_graph(probs, theta_low=0.2, theta_high=0.8,
                         heuristic="entropy")
        base = ((probs > 0.8) & ~np.eye(n, dtype=bool)).astype(float)
        uncertain = list(zip(*np.nonzero((probs >= 0.2) & (probs <= 0.8)
                                         & ~np.eye(n, dtype=bool))))
        h_best = graph_entropy(z)
        for mask_bits in range(1 << len(uncertain)):
            alt = base.copy()
            for b, (i, j) in enumerate(uncertain):
                if mask_bits >> b & 1:
                    alt[i, j] = 1.0
            assert graph_entropy(alt) >= h_best - 1e-12, case
        checked += 1
    report(11, checked == 100,
           "entropy heuristic output is a minimum-entropy completion on "
           "100 random probability matrices (verified by enumeration)")
