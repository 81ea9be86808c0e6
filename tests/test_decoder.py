import numpy as np
import pytest

from trajgraph.autodiff import DArray
from trajgraph.decoder import DecoderRun, TrajectoryDecoder
from trajgraph.encoder import InteractionGraphSample
from trajgraph.errors import ConfigError
from trajgraph.nn import ParamStore, gradients
from trajgraph.rng import RngStream

from oracles import ComposedAttentionDecoderRun, MaskCollapseDecoderRun, fd_probe_check

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
    return InteractionGraphSample(probs=DArray(z), z=DArray(z.astype(float)),
                                  edge_feats=DArray(e), hard=True)


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


def test_singleton_edge_attention_weight_one():
    dec, _ = make_decoder()
    z = np.zeros((1, 3, 3))
    z[0, 1, 2] = 1.0   # only edge: 1 -> 2
    graph = make_graph(z)
    run = DecoderRun(dec, 1, 3, np.array([[0, 1, 2]]))
    run.state = [DArray(rng_np.normal(size=(3, H))) for _ in range(2)]
    weights = run.attention(run.state[-1], graph, 0)[0].data
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
    weights = run.attention(run.state[-1], graph, 0)[0].data
    sums = weights.sum(axis=1)
    connected = z.sum(axis=1) > 0
    np.testing.assert_allclose(sums[connected], 1.0, atol=1e-12)
    np.testing.assert_array_equal(sums[~connected], 0.0)


def test_train_mode_uses_relaxed_weights_above_half_only():
    dec, _ = make_decoder()
    z = np.zeros((1, 3, 3))
    z[0, 1, 2] = 0.7    # qualifies
    z[0, 0, 2] = 0.4    # excluded: z <= 1/2
    graph = InteractionGraphSample(DArray(z), DArray(z),
                                   DArray(rng_np.normal(size=(1, 3, 3, D))),
                                   hard=False)
    run = DecoderRun(dec, 1, 3, np.array([[0, 1, 2]]))
    state = [DArray(rng_np.normal(size=(3, H))) for _ in range(2)]
    run.state = state
    m = run.attend(state[-1], graph, 0)
    # target 2 aggregates only source 1; removing source 0's edge weight
    # entirely must not change anything
    z2 = z.copy()
    z2[0, 0, 2] = 0.0
    graph2 = InteractionGraphSample(DArray(z2), DArray(z2), graph.edge_feats,
                                    hard=False)
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

    tape = [t for t in _tape(mu) if t._bw is not None]
    gate_nodes = [t for t in tape if t._bw.__qualname__.startswith("gru_cell")]
    assert len(gate_nodes) == 3 * 2   # one per GRU layer and step
    for t in tape:   # only GEMM outputs keep all C copies of each row
        if t.ndim == 3 and t.shape[:2] == (c, b * n):
            assert t._bw.__qualname__.startswith("matmul")

    grads = gradients(((mu - target) ** 2).sum(), store)
    grads_ref = gradients(((mu_ref - target) ** 2).sum(), store)
    for name, g in grads.items():
        np.testing.assert_allclose(g, grads_ref[name], rtol=0, atol=1e-12,
                                   err_msg=name)


@pytest.mark.parametrize("homogeneous", [False, True], ids=["categories", "homogeneous"])
def test_fused_attention_matches_composed_oracle(homogeneous):
    """attend is bit-identical to the op-by-op attention on fewer tape
    nodes, with parameter gradients within 1e-12."""
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
    for cls in (DecoderRun, ComposedAttentionDecoderRun):
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
