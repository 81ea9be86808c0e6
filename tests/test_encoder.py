import numpy as np
import pytest

from trajgraph.autodiff import DArray
from trajgraph.encoder import EncoderRun, GraphEncoder, dense_pairs, offdiag_pairs
from trajgraph.errors import ConfigError, ContractError
from trajgraph.nn import MLP, ParamStore, gradients
from trajgraph.rng import RngStream

from oracles import composed_mlp, dense_encoder_reference, tape_arrays, tape_bytes

rng_np = np.random.default_rng(41)


def make_encoder(hidden=10, edge=10, tau=5, temperature=0.5):
    store = ParamStore()
    enc = GraphEncoder(store, tau=tau, hidden_dim=hidden,
                       edge_dim=edge, gru_layers=2, temperature=temperature,
                       rng=RngStream(3).child(0))
    return enc, store


class ZeroLogisticRng(RngStream):
    """Pins the concrete noise at ln(d) - ln(1-d) = 0, i.e. d = 1/2."""

    def logistic(self, size=None):
        return np.zeros(size)


def test_embed_window_shape_contract():
    # reference width: tau 5 trajectories embed to 128-dim vectors
    store = ParamStore()
    enc = GraphEncoder(store, 5, 128, 128, 2, 0.5, RngStream(0).child(0))
    v = enc.embed_window(rng_np.normal(size=(1, 3, 5, 2)), train=True)
    assert v.shape == (1, 3, 128)


def test_embed_window_rejects_wrong_tau():
    enc, _ = make_encoder()
    with pytest.raises(ContractError):
        enc.embed_window(np.zeros((1, 3, 4, 2)), train=True)


def test_identical_trajectories_embed_identically():
    enc, _ = make_encoder()
    w = rng_np.normal(size=(1, 4, 5, 2))
    w[0, 2] = w[0, 0]
    v = enc.embed_window(w, train=True)
    np.testing.assert_allclose(v.data[0, 2], v.data[0, 0], atol=1e-12)


def test_embedding_permutes_with_agents():
    enc, _ = make_encoder()
    w = rng_np.normal(size=(1, 4, 5, 2))
    perm = np.array([2, 0, 3, 1])
    a = enc.embed_window(w, train=False).data
    b = enc.embed_window(w[:, perm], train=False).data
    np.testing.assert_allclose(b[0], a[0, perm], atol=1e-12)


def test_gnn_identical_agents_give_constant_edges():
    enc, _ = make_encoder()
    w = np.repeat(rng_np.normal(size=(1, 1, 5, 2)), 4, axis=1)
    v = enc.embed_window(w, train=False)
    _, e = enc.gnn_pass(v, train=False)
    off = e.data[0][~np.eye(4, dtype=bool)]
    assert np.abs(off - off[0]).max() < 1e-12
    assert np.abs(np.diagonal(e.data[0], axis1=0, axis2=1)).max() == 0


def test_gnn_edges_are_directed():
    enc, _ = make_encoder()
    v = enc.embed_window(rng_np.normal(size=(1, 4, 5, 2)), train=False)
    _, e = enc.gnn_pass(v, train=False)
    assert np.abs(e.data[0, 0, 1] - e.data[0, 1, 0]).max() > 1e-8


def test_gnn_rejects_single_agent():
    enc, _ = make_encoder()
    with pytest.raises(ContractError):
        enc.gnn_pass(DArray(np.zeros((1, 1, 10))), train=False)


def test_gnn_permutation_equivariance():
    enc, _ = make_encoder()
    w = rng_np.normal(size=(1, 5, 5, 2))
    perm = rng_np.permutation(5)
    v1 = enc.embed_window(w, train=False)
    vt1, e1 = enc.gnn_pass(v1, train=False)
    v2 = enc.embed_window(w[:, perm], train=False)
    vt2, e2 = enc.gnn_pass(v2, train=False)
    np.testing.assert_allclose(vt2.data[0], vt1.data[0, perm], atol=1e-10)
    np.testing.assert_allclose(e2.data[0], e1.data[0][np.ix_(perm, perm)],
                               atol=1e-10)


def test_offdiag_pairs_gather_row_major_and_scatter_back():
    b, n = 2, 5
    x = rng_np.normal(size=(b, n, n, 3))
    off = ~np.eye(n, dtype=bool)
    pairs = offdiag_pairs(DArray(x))
    assert pairs.shape == (b, n - 1, n, 3)
    np.testing.assert_array_equal(pairs.data.reshape(b, -1, 3), x[:, off])
    back = dense_pairs(pairs).data
    np.testing.assert_array_equal(back[:, off], x[:, off])
    assert not back[:, ~off].any()


def test_encoder_step_tape_budget(monkeypatch):
    """One train-mode step of a fresh EncoderRun keeps a tape whose bytes
    are derived by hand, fewer than with the MLPs op by op."""
    b, n, tau, h, d, layers = 2, 4, 3, 8, 6, 2
    enc, _ = make_encoder(hidden=h, edge=d, tau=tau)
    window = rng_np.normal(size=(b, n, tau, 2))

    def step():
        g = EncoderRun(enc, 1.0).step(window, RngStream(1), "train")
        return g.z.sum() + g.edge_feats.sum()

    loss = step()
    with monkeypatch.context() as patch:
        patch.setattr(MLP, "__call__", composed_mlp)
        composed = step()

    # Bytes the tape owns, by hand, in floats of 8 bytes. R = B*N = 8
    # agents, P = B*N*(N-1) = 24 off-diagonal pairs, tau = 3, H = 8,
    # D = 6, L = 2 GRU layers. An MLP node keeps each layer's
    # post-activation array, its output and, per batch-norm layer, the mean
    # and std 2F; layers of F = H on M rows with two batch-norm blocks
    # keep 3MH + 4H.
    # Embedding: the window 2*tau*R, which the node reads for W's
    #   gradient, and the MLP node 3RH + 4H.
    # GNN pass: the differences v_i - v_j B*N*N*H; the message MLP node
    #   3PH + 4H; the message sum RH and its int32 target index P/2; the
    #   node MLP node 3RH + 4H; the second differences B*N*N*H; the edge
    #   MLP node 3PD + 4D and its dense scatter B*N*N*D.
    # Edge noise: the noisy features B*N*N*D (the noise is an untracked
    #   constant, which the add does not keep).
    # Relations: the gathered pair rows PD; per GRU layer the new state,
    #   r, z, n and h W_hn + b_hn 5PH (the node keeps no zero initial
    #   state, and reads the registered biases, which the tape does not
    #   own); the projection MLP node (two H blocks, then width 1)
    #   2PH + P + 4H; the dense logits B*N*N; the noisy logits, their
    #   quotient by the temperature (which the div keeps, 1), the sigmoid
    #   and the masked sample 4*B*N*N, and the (N, N) mask N*N.
    # Loss: two sums and their sum 3.
    r, p, nn = b * n, b * n * (n - 1), b * n * n
    embed = 2 * tau * r + 3 * r * h + 4 * h
    gnn = (nn * h + 3 * p * h + 4 * h + r * h + p / 2 + 3 * r * h + 4 * h
           + nn * h + 3 * p * d + 4 * d + nn * d)
    noise = nn * d
    relations = (p * d + layers * 5 * p * h
                 + 2 * p * h + p + 4 * h + nn + 4 * nn + 1 + n * n)
    budget = 8 * (embed + gnn + noise + relations + 3)
    # 45_488 while each GRU layer folded its reset and update biases on
    # the tape: per layer the sum 2H, its concat 3H and the concat's 3
    # offsets, 2 * 43 floats. 45_488 - 8 * 86 = 44_800.
    # 44_800 while each gru_cell node kept the zero initial state PH:
    # 2 * 192 floats. 44_800 - 8 * 384 = 41_728. The MLPs op by op keep
    # 127_840.
    assert budget == 41_728
    assert tape_bytes(loss) == budget < tape_bytes(composed)
    assert len(tape_arrays(loss)[0]) < len(tape_arrays(composed)[0])


def test_encoder_matches_dense_masked_reference():
    """The off-diagonal encoder equals a dense N^2 pass whose batch norm
    masks the self-pairs out: outputs, edge-GRU state and, after train
    calls, the running statistics, in train and then eval mode."""
    enc, store = make_encoder()
    params = {k: v.data.copy() for k, v in store.items()}
    b, n = 2, 4
    off = ~np.eye(n, dtype=bool)
    state = ref_state = None
    for train in (True, True, False):
        v = rng_np.normal(size=(b, n, 10))
        v_t, e_t = enc.gnn_pass(DArray(v), train=train)
        logits, state = enc.update_relations(e_t, state, train=train)
        ref = dense_encoder_reference(params, v, ref_state, train)
        ref_vt, ref_et, ref_logits, ref_state = ref
        for ours, theirs in ((v_t, ref_vt), (e_t, ref_et), (logits, ref_logits)):
            np.testing.assert_allclose(ours.data, theirs, rtol=0, atol=1e-12)
        for ours, theirs in zip(state, ref_state):
            dense = theirs.reshape(b, n, n, -1)[:, off].reshape(b * n * (n - 1), -1)
            np.testing.assert_allclose(ours.data, dense, rtol=0, atol=1e-12)
        for k, value in params.items():
            np.testing.assert_allclose(store[k].data, value, rtol=0, atol=1e-12)


def test_edge_feature_noise_toggle_and_determinism():
    enc, _ = make_encoder()
    et = DArray(rng_np.normal(size=(1, 3, 3, 10)))
    assert enc.sample_edge_features(et, RngStream(1), 0.0) is et
    a = enc.sample_edge_features(et, RngStream(5).child(2), 1.0)
    b = enc.sample_edge_features(et, RngStream(5).child(2), 1.0)
    np.testing.assert_array_equal(a.data, b.data)
    assert np.abs(a.data - et.data).max() > 0


def test_edge_feature_noise_is_centered():
    enc, _ = make_encoder()
    et = DArray(np.zeros((1, 3, 3, 10)))
    draws = []
    for k in range(200):
        draws.append(enc.sample_edge_features(et, RngStream(9).child(k), 1.0).data)
    offdiag = np.stack(draws)[:, 0][:, ~np.eye(3, dtype=bool)]
    n = offdiag.size
    assert abs(offdiag.mean()) < 3.0 / np.sqrt(n)


def test_relation_logits_zero_with_zero_projection():
    enc, store = make_encoder()
    store["enc.proj.2.W"].data[...] = 0.0
    store["enc.proj.2.b"].data[...] = 0.0
    et = DArray(rng_np.normal(size=(2, 3, 3, 10)))
    logits, _ = enc.update_relations(et, None)
    np.testing.assert_array_equal(logits.data, np.zeros((2, 3, 3)))


def test_relation_state_persists_across_windows():
    enc, _ = make_encoder()
    et = DArray(rng_np.normal(size=(1, 3, 3, 10)))
    logits1, state = enc.update_relations(et, None)
    logits2, _ = enc.update_relations(et, state)
    assert np.abs(logits1.data - logits2.data).max() > 1e-8


def test_relation_sampling_modes():
    enc, _ = make_encoder()
    logits = DArray(rng_np.normal(scale=2.0, size=(2, 4, 4)), requires_grad=True)
    z_train = enc.sample_relations(logits, "train", RngStream(1).child(0))
    off = ~np.eye(4, dtype=bool)
    assert ((z_train.data[:, off] > 0) & (z_train.data[:, off] < 1)).all()
    assert np.abs(np.diagonal(z_train.data, axis1=1, axis2=2)).max() == 0
    z_test = enc.sample_relations(logits, "sample", RngStream(1).child(1))
    assert set(np.unique(z_test.data)) <= {0.0, 1.0}
    z_map = enc.sample_relations(logits, "map", RngStream(1).child(2))
    expected = (1.0 / (1.0 + np.exp(-logits.data)) > 0.5) & off
    np.testing.assert_array_equal(z_map.data.astype(bool), expected)
    # only the relaxed sample is differentiable; the hard draws record no node
    assert z_train.requires_grad and not (z_test.requires_grad or z_map.requires_grad)
    with pytest.raises(ConfigError):
        enc.sample_relations(logits, "banana", RngStream(1))


def test_relation_sampling_zero_noise_gives_half():
    enc, _ = make_encoder()
    logits = DArray(np.zeros((1, 3, 3)))
    z = enc.sample_relations(logits, "train", ZeroLogisticRng(0))
    off = ~np.eye(3, dtype=bool)
    np.testing.assert_allclose(z.data[0][off], 0.5)


def test_relation_sampling_sharp_temperature_frequency():
    # z > 0.99 with probability ~ sigmoid(5) at T = 0.01, logit 5
    enc, _ = make_encoder(temperature=0.01)
    logits = DArray(np.full((1, 2, 2), 5.0))
    count = 0
    n = 10000
    rng = RngStream(77).child(0)
    noise = rng.logistic(size=n)
    z = 1.0 / (1.0 + np.exp(-(5.0 + noise) / 0.01))
    freq = (z > 0.99).mean()
    expected = 1.0 / (1.0 + np.exp(-5.0))
    assert abs(freq - expected) < 0.02


def test_relation_sampling_mean_matches_monte_carlo_oracle():
    # train-mode mean at logit l, T = 0.5 vs an independent estimate
    enc, _ = make_encoder(temperature=0.5)
    logit = 0.8
    n = 100000
    noise = RngStream(5).child(1).logistic(size=n)
    ours = 1.0 / (1.0 + np.exp(-(logit + noise) / 0.5))
    # independent oracle with a different generator and the uniform identity
    u = np.random.default_rng(123456).uniform(size=n)
    oracle = 1.0 / (1.0 + np.exp(-(logit + np.log(u) - np.log1p(-u)) / 0.5))
    se = np.sqrt(ours.var() / n + oracle.var() / n)
    assert abs(ours.mean() - oracle.mean()) < 4 * se + 1e-4


def test_temperature_must_be_positive():
    with pytest.raises(ConfigError):
        make_encoder(temperature=0.0)


def test_gradients_flow_through_relaxed_sample_and_features():
    enc, store = make_encoder()
    run = EncoderRun(enc, edge_noise_scale=1.0)
    window = rng_np.normal(size=(2, 3, 5, 2))
    g = run.step(window, RngStream(8).child(0), "train")
    loss = (g.z * g.z).sum() + (g.edge_feats * g.edge_feats).sum()
    grads = gradients(loss, store)
    total = sum(np.abs(v).sum() for v in grads.values())
    assert total > 0


def test_encoder_run_counts_windows():
    enc, _ = make_encoder()
    run = EncoderRun(enc, 1.0)
    w = rng_np.normal(size=(1, 3, 5, 2))
    run.step(w, RngStream(0), "train")
    run.step(w, RngStream(0), "train")
    assert run.window_index == 2
