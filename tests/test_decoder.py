import numpy as np
import pytest

from trajgraph import autodiff as ad
from trajgraph import model as model_mod
from trajgraph.autodiff import DArray
from trajgraph.decoder import DecoderRun, TrajectoryDecoder
from trajgraph.encoder import InteractionGraphSample
from trajgraph.errors import ConfigError
from trajgraph.model import ModelConfig, TrajectoryModel
from trajgraph.nn import ParamStore, gradients
from trajgraph.rng import RngStream

from oracles import (ComposedAttentionDecoderRun, DenseAttentionDecoderRun,
                     MaskCollapseDecoderRun, fd_probe_check, tape_arrays, tape_bytes)

rng_np = np.random.default_rng(53)

H = 10
D = 10


def make_decoder(n_categories=3, homogeneous=False, seed=6, gru_layers=2):
    store = ParamStore()
    dec = TrajectoryDecoder(store, n_categories, H, D, H, gru_layers=gru_layers,
                            homogeneous=homogeneous, rng=RngStream(seed).child(0))
    return dec, store


def make_graph(z: np.ndarray, seed=1) -> InteractionGraphSample:
    b, n = z.shape[0], z.shape[1]
    e = np.random.default_rng(seed).normal(size=(b, n, n, D))
    e *= (1 - np.eye(n))[None, :, :, None]
    return InteractionGraphSample(z=DArray(z.astype(float)), edge_feats=DArray(e))


def dense_weights(run, graph, window=0):
    """`DecoderRun.attention`'s per-edge weights on the run's top hidden
    state, scattered to (B, N, N), source by target."""
    alpha = run.attention(run.state[-1], graph, window)[0].data
    edges = run._window_cache(graph, window)
    n = run.n_agents
    src, tgt = edges.src.indices, edges.tgt.indices
    out = np.zeros((run.batch, n, n))
    out[tgt // n, src % n, tgt % n] = alpha
    return out


def test_category_rows_validate_labels():
    dec, _ = make_decoder()
    with pytest.raises(ConfigError):
        dec.category_rows(np.array([[0, 3]]))
    with pytest.raises(ConfigError):
        dec.category_rows(np.array([[-1, 0]]))
    np.testing.assert_array_equal(dec.category_rows(np.array([[0, 2], [1, 0]])),
                                  [0, 2, 1, 0])


def test_category_module_count_is_linear_in_categories():
    for c in (1, 2, 5):
        dec, store = make_decoder(n_categories=c)
        for kind in ("gq", "gk", "gv"):
            assert sum(1 for k in store.keys()
                       if k.startswith(f"dec.{kind}.") and k.endswith(".W")) == c
        gru_groups = {k.split(".")[2] for k in store.keys()
                      if k.startswith("dec.gru.")}
        assert len(gru_groups) == c


def test_run_takes_the_layer_count_from_the_decoder():
    for layers in (1, 3):
        dec, _ = make_decoder(gru_layers=layers)
        run = DecoderRun(dec, 1, 3, np.array([[0, 1, 2]]))
        assert len(run.state) == len(run._gru) == layers
        run.step(DArray(np.zeros((1, 3, 2))), None, None, -1)
        assert len(run.state) == layers


def test_empty_neighborhood_gives_zero_message():
    dec, _ = make_decoder()
    z = np.zeros((1, 3, 3))
    run = DecoderRun(dec, 1, 3, np.array([[0, 1, 2]]))
    run.state = [DArray(rng_np.normal(size=(3, H))) for _ in range(2)]
    m = run.attend(run.state[-1], make_graph(z), 0)
    np.testing.assert_array_equal(m.data, np.zeros((1, 3, H)))


def test_window_without_qualifying_edge_gives_zero_message():
    """E = 0: relaxed weights that never exceed 1/2 give every target a
    zero message, and a step plus its backward run without error."""
    dec, store = make_decoder()
    z = np.full((2, 3, 3), 0.4)
    graph = make_graph(z)
    graph.z.requires_grad = graph.edge_feats.requires_grad = True
    assert DecoderRun(dec, 2, 3, np.zeros((2, 3), dtype=int))._window_cache(
        graph, 0).z.shape == (0,)
    run = DecoderRun(dec, 2, 3, np.array([[0, 1, 2], [2, 1, 0]]))
    h = DArray(rng_np.normal(size=(6, H)), requires_grad=True)
    np.testing.assert_array_equal(run.attend(h, graph, 0).data, np.zeros((2, 3, H)))
    mu = run.step(DArray(rng_np.normal(size=(2, 3, 2))), graph, None, 0)
    grads = gradients((mu * mu).sum(), store)
    assert all(np.isfinite(g).all() for g in grads.values())
    assert graph.z.grad is None and graph.edge_feats.grad is None


def test_singleton_edge_attention_weight_one():
    dec, _ = make_decoder()
    z = np.zeros((1, 3, 3))
    z[0, 1, 2] = 1.0   # only edge: 1 -> 2
    graph = make_graph(z)
    run = DecoderRun(dec, 1, 3, np.array([[0, 1, 2]]))
    run.state = [DArray(rng_np.normal(size=(3, H))) for _ in range(2)]
    weights = dense_weights(run, graph)
    assert weights[0, 1, 2] == pytest.approx(1.0)
    assert weights[0].sum() == pytest.approx(1.0)
    # the message for target 2 equals that single value vector: with weight
    # one, m_2 must be invariant to the attention score scale
    m = run.attend(run.state[-1], graph, 0)
    np.testing.assert_array_equal(m.data[0, 0], np.zeros(H))
    np.testing.assert_array_equal(m.data[0, 1], np.zeros(H))
    assert np.abs(m.data[0, 2]).max() > 0


def test_attention_weights_sum_to_one_per_connected_target():
    dec, _ = make_decoder()
    z = (rng_np.uniform(size=(2, 5, 5)) < 0.6).astype(float)
    for b in range(2):
        np.fill_diagonal(z[b], 0.0)
    graph = make_graph(z)
    run = DecoderRun(dec, 2, 5, rng_np.integers(0, 3, size=(2, 5)))
    run.state = [DArray(rng_np.normal(size=(10, H))) for _ in range(2)]
    weights = dense_weights(run, graph)
    sums = weights.sum(axis=1)
    connected = z.sum(axis=1) > 0
    np.testing.assert_allclose(sums[connected], 1.0, atol=1e-12)
    np.testing.assert_array_equal(sums[~connected], 0.0)


def test_train_mode_uses_relaxed_weights_above_half_only():
    dec, _ = make_decoder()
    z = np.zeros((1, 3, 3))
    z[0, 1, 2] = 0.7    # qualifies
    z[0, 0, 2] = 0.4    # excluded: z <= 1/2
    graph = InteractionGraphSample(DArray(z), DArray(rng_np.normal(size=(1, 3, 3, D))))
    run = DecoderRun(dec, 1, 3, np.array([[0, 1, 2]]))
    state = [DArray(rng_np.normal(size=(3, H))) for _ in range(2)]
    run.state = state
    m = run.attend(state[-1], graph, 0)
    # target 2 aggregates only source 1; removing source 0's edge weight
    # entirely must not change anything
    z2 = z.copy()
    z2[0, 0, 2] = 0.0
    graph2 = InteractionGraphSample(DArray(z2), graph.edge_feats)
    run2 = DecoderRun(dec, 1, 3, np.array([[0, 1, 2]]))
    run2.state = state
    m2 = run2.attend(state[-1], graph2, 0)
    np.testing.assert_allclose(m.data, m2.data, atol=1e-14)


def test_step_noise_disabled_is_deterministic():
    dec, _ = make_decoder()
    z = (rng_np.uniform(size=(1, 4, 4)) < 0.5).astype(float)
    np.fill_diagonal(z[0], 0.0)
    graph = make_graph(z)
    cats = np.array([[0, 1, 2, 0]])
    x = DArray(rng_np.normal(size=(1, 4, 2)))
    outs = []
    for _ in range(2):
        run = DecoderRun(dec, 1, 4, cats)
        outs.append(run.step(x, graph, None, 0).data)
    np.testing.assert_array_equal(outs[0], outs[1])


def test_zero_out_head_gives_stationary_prediction():
    dec, store = make_decoder()
    store["dec.fout.2.W"].data[...] = 0.0
    store["dec.fout.2.b"].data[...] = 0.0
    cats = np.array([[0, 1, 2]])
    run = DecoderRun(dec, 1, 3, cats)
    x = rng_np.normal(size=(1, 3, 2))
    mu = run.step(DArray(x), make_graph(np.ones((1, 3, 3)) - np.eye(3)),
                  eps=rng_np.normal(size=(1, 3, H)), window=0)
    np.testing.assert_array_equal(mu.data, x)


def test_decoder_gradients_match_finite_differences():
    dec, store = make_decoder(n_categories=2)
    z = np.ones((1, 2, 2)) - np.eye(2)
    graph = make_graph(z)
    cats = np.array([[0, 1]])
    x = DArray(rng_np.normal(size=(1, 2, 2)))
    target = rng_np.normal(size=(1, 2, 2))

    def loss():
        run = DecoderRun(dec, 1, 2, cats)
        mu = run.step(x, graph, None, 0)
        mu = run.step(mu, graph, None, 0)
        return ((mu - DArray(target)) ** 2).sum()

    arrays = [store[k] for k, _ in store.trainable_items()]
    fd_probe_check(loss, arrays, rng_np, n_probes=30, eps=1e-6, rtol=1e-4,
                   atol=1e-8)


def test_all_same_category_equals_single_category_decoder():
    # dispatching by category must equal using category 0's weights alone
    dec3, store3 = make_decoder(n_categories=3, seed=9)
    dec1, store1 = make_decoder(n_categories=1, seed=10)
    for kind in ("gq", "gk", "gv"):
        for suffix in ("W", "b"):
            store1[f"dec.{kind}.0.{suffix}"].data[...] = \
                store3[f"dec.{kind}.0.{suffix}"].data
    for layer in range(2):
        for suffix in ("W_ih", "W_hh", "b_ih", "b_hh"):
            store1[f"dec.gru.0.l{layer}.{suffix}"].data[...] = \
                store3[f"dec.gru.0.l{layer}.{suffix}"].data
    for name in ("dec.fq.W", "dec.fq.b", "dec.fk.W", "dec.fk.b",
                 "dec.fv.0.W", "dec.fv.0.b", "dec.fv.1.W", "dec.fv.1.b",
                 "dec.fout.0.W", "dec.fout.0.b", "dec.fout.1.W",
                 "dec.fout.1.b", "dec.fout.2.W", "dec.fout.2.b"):
        store1[name].data[...] = store3[name].data

    z = (rng_np.uniform(size=(1, 4, 4)) < 0.6).astype(float)
    np.fill_diagonal(z[0], 0.0)
    graph = make_graph(z)
    x = DArray(rng_np.normal(size=(1, 4, 2)))
    eps = rng_np.normal(size=(1, 4, H))
    run3 = DecoderRun(dec3, 1, 4, np.zeros((1, 4), dtype=int))
    run1 = DecoderRun(dec1, 1, 4, np.zeros((1, 4), dtype=int))
    mu3 = run3.step(x, graph, eps, 0)
    mu1 = run1.step(x, graph, eps, 0)
    np.testing.assert_allclose(mu3.data, mu1.data, atol=1e-12)


def test_homogeneous_flag_bypasses_category_maps():
    dec, store = make_decoder(homogeneous=True)
    # category affines untouched: zero them to prove they are bypassed
    for kind in ("gq", "gk", "gv"):
        for c in range(3):
            store[f"dec.{kind}.{c}.W"].data[...] = 0.0
    z = np.ones((1, 3, 3)) - np.eye(3)
    run = DecoderRun(dec, 1, 3, np.array([[0, 1, 2]]))
    run.state = [DArray(rng_np.normal(size=(3, H))) for _ in range(2)]
    m = run.attend(run.state[-1], make_graph(z), 0)
    assert np.abs(m.data).max() > 0   # still attends via raw hidden states


def _tape(out):
    seen, stack, nodes = set(), [out], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def test_row_pick_step_matches_mask_collapse_oracle():
    dec, store = make_decoder(seed=8)
    b, n, c = 2, 4, 3
    cats = np.array([[0, 1, 2, 0], [2, 2, 1, 0]])
    z = (rng_np.uniform(size=(b, n, n)) < 0.6).astype(float)
    for i in range(b):
        np.fill_diagonal(z[i], 0.0)
    graph = make_graph(z)
    x = DArray(rng_np.normal(size=(b, n, 2)))
    eps = rng_np.normal(size=(b, n, H))
    target = DArray(rng_np.normal(size=(b, n, 2)))

    def three_steps(cls):
        run = cls(dec, b, n, cats)
        mu = run.step(x, None, eps, -1)
        mu = run.step(mu, graph, eps, 0)
        return run.step(mu, graph, None, 0)

    mu, mu_ref = three_steps(DecoderRun), three_steps(MaskCollapseDecoderRun)
    np.testing.assert_array_equal(mu.data, mu_ref.data)

    nodes, arrays, _ = tape_arrays(mu)
    gru_nodes = [t for t in nodes if t._bw.__qualname__.startswith("gru_cell")]
    assert len(gru_nodes) == 3 * 2   # one per GRU layer and step
    # no tape array keeps all C copies of each row
    assert not any(a.shape[:2] == (c, b * n) for a in arrays)

    grads = gradients(((mu - target) ** 2).sum(), store)
    grads_ref = gradients(((mu_ref - target) ** 2).sum(), store)
    for name, g in grads.items():
        np.testing.assert_allclose(g, grads_ref[name], rtol=0, atol=1e-12,
                                   err_msg=name)


@pytest.mark.parametrize("homogeneous", [False, True], ids=["categories", "homogeneous"])
def test_fused_attention_matches_composed_oracle(homogeneous):
    """The dense attention with fused nodes is bit-identical to the
    op-by-op one on fewer tape nodes, with parameter gradients within
    1e-12."""
    dec, store = make_decoder(homogeneous=homogeneous, seed=9)
    b, n = 2, 5
    cats = np.array([[0, 1, 2, 0, 1], [2, 2, 1, 0, 0]])
    z = rng_np.uniform(size=(b, n, n))   # relaxed: train-mode weights
    for i in range(b):
        np.fill_diagonal(z[i], 0.0)
    z[1, :, 3] = 0.0   # a target with no qualifying in-edge
    graph = make_graph(z)
    graph.edge_feats.requires_grad = True
    h = DArray(rng_np.normal(size=(b * n, H)), requires_grad=True)
    weights = rng_np.normal(size=(b, n, H))
    results = []
    for cls in (DenseAttentionDecoderRun, ComposedAttentionDecoderRun):
        m = cls(dec, b, n, cats).attend(h, graph, 0)
        nodes = sum(1 for t in _tape(m) if t._bw is not None)
        grads = gradients((m * weights).sum(), store)
        grads["h"], grads["edge_feats"] = h.grad, graph.edge_feats.grad
        h.grad = graph.edge_feats.grad = None
        results.append((m.data, nodes, grads))
    (m, nodes, grads), (m_ref, nodes_ref, grads_ref) = results
    np.testing.assert_array_equal(m, m_ref)
    assert nodes < nodes_ref
    for name, g in grads.items():
        np.testing.assert_allclose(g, grads_ref[name], rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("relaxed", [True, False], ids=["relaxed", "hard"])
@pytest.mark.parametrize("homogeneous", [False, True], ids=["categories", "homogeneous"])
def test_edge_attention_matches_dense_oracle(homogeneous, relaxed):
    """Attention over the qualifying edges only matches the dense masked
    attention within 1e-12 (the sums run in another order): the message,
    the scattered weights, and the gradients of every parameter, of the
    hidden rows, of the edge features and of the relaxed weights z."""
    dec, store = make_decoder(homogeneous=homogeneous, seed=11)
    b, n = 3, 6
    cats = rng_np.integers(0, 3, size=(b, n))
    z = rng_np.uniform(size=(b, n, n))
    if not relaxed:
        z = (z > 0.5).astype(float)
    for i in range(b):
        np.fill_diagonal(z[i], 0.0)
    z[1, :, 3] = 0.0   # a target with no qualifying in-edge
    z[2, 4, 0] = 0.5   # exactly 1/2 does not qualify
    graph = make_graph(z)
    graph.edge_feats.requires_grad = graph.z.requires_grad = relaxed
    h = DArray(rng_np.normal(size=(b * n, H)), requires_grad=True)
    weights = rng_np.normal(size=(b, n, H))
    results = []
    for cls in (DecoderRun, DenseAttentionDecoderRun):
        run = cls(dec, b, n, cats)
        run.state = [h]
        alpha = dense_weights(run, graph) if cls is DecoderRun else \
            run.attention(h, graph, 0)[0].data
        m = run.attend(h, graph, 0)
        grads = gradients((m * weights).sum(), store)
        grads["h"] = h.grad
        if relaxed:
            grads["edge_feats"], grads["z"] = graph.edge_feats.grad, graph.z.grad
        h.grad = graph.edge_feats.grad = graph.z.grad = None
        results.append((m.data, alpha, grads))
    (m, alpha, grads), (m_ref, alpha_ref, grads_ref) = results
    np.testing.assert_allclose(m, m_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(alpha, alpha_ref, rtol=0, atol=1e-12)
    assert np.abs(m_ref).max() > 0.1 and np.abs(grads_ref["h"]).max() > 0.1
    for name, g in grads_ref.items():
        np.testing.assert_allclose(grads[name], g, rtol=0, atol=1e-12, err_msg=name)


def test_boundary_rollout_tape_budget(monkeypatch):
    """One boundary rollout on hand-built graphs in which each target has
    2 qualifying in-edges (z = 0.9) out of its 8 off-diagonal in-pairs (the
    other 6 carry z = 0.3 <= 1/2): E = 36 of the B*N*N = 162 pair slots,
    a quarter of the off-diagonal pairs. Attention records no (B, N, N, ...)
    node, the tape stays inside a budget derived by hand, the dense masked
    attention breaks both, no tape array keeps C copies of the agent rows,
    and each GRU node keeps exactly its four gate arrays."""
    b, n, w, c, layers = 2, 9, 8, 3, 2
    model = TrajectoryModel(ModelConfig(hidden_dim=w, edge_dim=w, attn_dim=w), seed=0)
    pos = rng_np.normal(size=(b, n, 15, 2)) * 0.3
    cats = rng_np.integers(0, c, size=(b, n))
    offset = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n   # source - target
    z = np.where(np.isin(offset, (1, 2)), 0.9, np.where(offset == 0, 0.0, 0.3))
    edge_feats = rng_np.normal(size=(b, n, n, w)) * (1.0 - np.eye(n))[..., None]
    graphs = [InteractionGraphSample(DArray(z[None].repeat(b, 0)), DArray(edge_feats))
              for _ in range(model.decoded_windows)]

    inside, recorded = [], []
    track = ad._track

    def recording_track(data, parents, bw):
        out = track(data, parents, bw)
        if inside and out._bw is not None:
            recorded.append(out.shape)
        return out

    def rollout(cls):
        attend = cls.attend

        def recording_attend(self, *args):
            inside.append(True)
            try:
                return attend(self, *args)
            finally:
                inside.pop()

        recorded.clear()
        with monkeypatch.context() as patch:
            patch.setattr(ad, "_track", recording_track)
            patch.setattr(cls, "attend", recording_attend)
            patch.setattr(model_mod, "DecoderRun", cls)
            preds = model.rollout(pos, cats, graphs, RngStream(1),
                                  input_mode="boundary", lam=0.5)
        return ((preds - DArray(pos)) ** 2).sum(), list(recorded)

    loss, shapes = rollout(DecoderRun)
    dense_loss, dense_shapes = rollout(DenseAttentionDecoderRun)
    np.testing.assert_allclose(loss.data, dense_loss.data, rtol=1e-12)
    assert shapes and not any(s[:3] == (b, n, n) for s in shapes)
    assert any(s[:3] == (b, n, n) for s in dense_shapes)

    # Bytes the tape owns, by hand, in floats of 8 bytes. R = B*N = 18 agent
    # rows, E = 36 edges per window, W = 8 = H = A = D, C = 3 categories,
    # L = 2 GRU layers, T = 14 steps of which S = 10 (t = 4..13) read a
    # graph, from 2 windows, and the same 10 predict step t_history = 5 or
    # later, the steps that draw head noise.
    # Run set-up: per category map the stacked weights C*W^2 and stacked
    #   biases C*W; per GRU layer of input width F (W + 2, then W) the
    #   stacked weights 3CW(F + W) and stacked biases 6CW. The nodes pick
    #   each row's biases themselves and keep none of them.
    # Per window: gathered edge features E*W and weights z E, one int32
    #   incidence index E/2, and the GEMM and bias outputs of qe, ke, ve 6EW.
    # Per attended step: the category maps' outputs 3RW, the node
    #   projections qh, kh, gvh and -gvh 4RW; per edge q, k, v1, the value
    #   GEMM and the values 5EW, and 7 scalars (scores, scaled, shifted,
    #   exp, numerator, gathered denominator, alpha) 7E (the subtracted
    #   shift is an untracked constant, which no tape node keeps); the
    #   denominators R, the message RW, the scale 1 and the 3 offsets of the
    #   GRU input's concat (before t = 4 neither the zero message nor the
    #   true input is tracked, so that concat is no node).
    # Per step: the GRU input R(W + 2); per layer the new state and the
    #   gru_cell node's r, z, n and h W_hn + b_hn 5RW; the head's MLP
    #   node's two relu outputs 2RW and its output 2R, and the residual sum
    #   2R.
    # Per step that draws head noise: the head's noisy state RW (the noise
    #   is an untracked constant, which the add does not keep).
    # Once: the positions, the stacked predictions, the loss's difference
    #   and square 4 * 30R, the sum 1; the zero initial states L*R*W, the
    #   category rows R and one boundary-mixed input 2R.
    r, e, steps, attended, noisy, windows = b * n, 36, 14, 10, 10, 2
    setup = (3 * (c * w * w + c * w)
             + sum(3 * c * w * (f + w) + 6 * c * w for f in (w + 2, w)))
    per_window = e * w + e + e / 2 + 6 * e * w
    per_attended = 3 * r * w + 4 * r * w + 5 * e * w + 7 * e + r + r * w + 1 + 3
    per_step = r * (w + 2) + layers * 5 * r * w + 2 * r * w + 2 * 2 * r
    once = 4 * 30 * r + 1 + layers * r * w + r + 2 * r
    budget = 8 * (setup + windows * per_window + attended * per_attended
                  + steps * per_step + noisy * r * w + once)
    # 1_233_016 before the GRU and category-map nodes took in their GEMMs.
    # 653_608 before the MLP node and the constant-free add and sub: per
    # step the head also kept its noise RW, per hidden layer the GEMM and
    # bias outputs 2RW and a relu mask RW/8, and the output GEMM and bias
    # 2R beside the output, 5RW + RW/4 + 2R = 792 floats, 11_088 over the
    # 14 steps; each attended step also kept its E = 36 shifts, 360 over
    # the 10 steps. 653_608 - 8 * (11_088 + 360) = 562_024.
    # 562_024 while the run picked each row's biases and folded the GRU's
    # reset and update biases on the tape, and the 4 steps before
    # t_history drew head noise: per category map the picked bias RW, per
    # GRU layer the sum 2CW, its concat 3CW and 3 offsets and the picked
    # biases 4RW, and per such step the noisy state RW: 3 * 144 + 2 * 699
    # + 4 * 144 = 2_406 floats. 562_024 - 8 * 2_406 = 542_776.
    assert budget == 542_776
    assert tape_bytes(loss) == budget < tape_bytes(dense_loss)

    # no tape array keeps all C copies of the agent rows, and each gru_cell
    # node keeps exactly four (R, H) arrays of its own: r, z, n and
    # h W_hn + b_hn
    nodes, arrays, _ = tape_arrays(loss)
    assert not any(a.shape[:2] == (c, r) for a in arrays)
    gru_nodes = [t for t in nodes if t._bw.__qualname__.startswith("gru_cell")]
    assert len(gru_nodes) == steps * layers
    for node in gru_nodes:
        own = [cell.cell_contents for cell in node._bw.__closure__
               if isinstance(cell.cell_contents, np.ndarray)
               and cell.cell_contents.shape == (r, w)]
        assert len(own) == 4 and len({id(a) for a in own}) == 4
        assert all(a.base is None and a is not node.data for a in own)
