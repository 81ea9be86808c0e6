import struct

import numpy as np
import pytest

from trajgraph import autodiff as ad
from trajgraph.autodiff import DArray
from trajgraph.checkpoint import load_checkpoint, save_checkpoint
from trajgraph.errors import ContractError, DataError, NumericalError, ShapeError
from trajgraph.nn import MLP, Affine, GRUStack, ParamStore, gradients
from trajgraph.optim import Adam
from trajgraph.rng import RngStream

from oracles import composed_mlp, fd_probe_check, fused_gru_reference

rng_np = np.random.default_rng(11)


def _store_rng():
    return ParamStore(), RngStream(3).child(0)


def test_param_store_rejects_duplicates():
    store, _ = _store_rng()
    store.add("w", np.ones(3))
    with pytest.raises(ContractError):
        store.add("w", np.ones(3))


def test_param_store_order_is_insertion():
    store, _ = _store_rng()
    for name in ["z", "a", "m"]:
        store.add(name, np.zeros(1))
    assert list(store.keys()) == ["z", "a", "m"]


def test_gradients_cover_untouched_params_with_zeros():
    store, rng = _store_rng()
    used = store.add("used", rng.normal(size=(3,)))
    store.add("unused", rng.normal(size=(2,)))
    grads = gradients((used * used).sum(), store)
    np.testing.assert_allclose(grads["used"], 2 * used.data)
    np.testing.assert_array_equal(grads["unused"], np.zeros(2))
    assert used.grad is None  # cleared after collection


def test_gradients_name_the_first_non_finite_parameter():
    store, rng = _store_rng()
    a = store.add("a", rng.normal(size=(3,)))
    b = store.add("b", np.array([1.0, np.inf, 2.0]))
    c = store.add("c", rng.normal(size=(2,)))
    loss = (a * b).sum() + (c * c).sum() + (b * np.nan).sum()
    with pytest.raises(NumericalError, match="parameter a "):
        gradients(loss, store)
    assert all(p.grad is None for p in (a, b, c))


def test_a_failed_backward_leaves_no_gradient_for_the_next_update():
    """A backward that raises part way clears the store's partial
    gradients, so the next update's gradients are its own."""
    store, _ = _store_rng()
    w = store.add("w", np.ones(3))

    def fail(g):
        raise MemoryError("closure failed")

    branch = ad._track(w.data.copy(), (w,), fail)
    with pytest.raises(MemoryError):
        gradients((3 * w).sum() + branch.sum(), store)
    assert w.grad is None
    np.testing.assert_array_equal(gradients((2 * w).sum(), store)["w"], [2.0, 2.0, 2.0])


def test_mlp_zero_final_affine_gives_zero_output():
    store, rng = _store_rng()
    spec = [(8, "elu", True), (4, None, False)]
    mlp = MLP(store, "f", 5, spec, rng)
    store["f.1.W"].data[...] = 0.0
    store["f.1.b"].data[...] = 0.0
    out = mlp(DArray(rng_np.normal(size=(7, 5))), train=True)
    np.testing.assert_array_equal(out.data, np.zeros((7, 4)))


def test_mlp_identity_affine_is_identity():
    store, rng = _store_rng()
    mlp = MLP(store, "f", 4, [(4, None, False)], rng)
    store["f.0.W"].data[...] = np.eye(4)
    store["f.0.b"].data[...] = 0.0
    x = rng_np.normal(size=(6, 4))
    np.testing.assert_array_equal(mlp(DArray(x)).data, x)


def test_mlp_dimension_mismatch_raises():
    store, rng = _store_rng()
    mlp = MLP(store, "f", 4, [(4, "tanh", False)], rng)
    with pytest.raises(ShapeError):
        mlp(DArray(np.zeros((3, 5))))


def _sum_of_squares(y):
    return (y * y).sum()


def test_mlp_gradient_matches_finite_differences():
    store, rng = _store_rng()
    mlp = MLP(store, "f", 5, [(8, "elu", True), (3, None, False)], rng)
    x = DArray(rng_np.normal(size=(6, 5)), requires_grad=True)
    arrays = [x] + [store[k] for k, _ in store.trainable_items()]
    fd_probe_check(lambda: _sum_of_squares(mlp(x, train=True)), arrays, rng_np,
                   n_probes=25, eps=1e-6, rtol=1e-5, atol=1e-8)


def _one_gru(store, rng, n_in=3, n_hidden=4, prefix="g"):
    """Registers a one-layer GRU; returns it and its fused params."""
    stack = GRUStack(store, prefix, n_in, n_hidden, 1, rng)
    return stack, stack.params[0]


def _step(stack, x, h):
    return stack(x, [h])[0]


def test_gru_zero_everything_gives_zero_hidden():
    store, rng = _store_rng()
    stack, params = _one_gru(store, rng)
    for p in params:
        p.data[...] = 0.0
    out = _step(stack, DArray(np.zeros((2, 3))), DArray(np.zeros((2, 4))))
    np.testing.assert_array_equal(out.data, np.zeros((2, 4)))


def test_gru_width_mismatch_raises():
    store, rng = _store_rng()
    stack, _ = _one_gru(store, rng)
    with pytest.raises(ShapeError):
        _step(stack, DArray(np.zeros((2, 3))), DArray(np.zeros((2, 5))))
    with pytest.raises(ShapeError):
        _step(stack, DArray(np.zeros((2, 5))), DArray(np.zeros((2, 4))))


def test_gru_gradient_matches_finite_differences():
    store, rng = _store_rng()
    stack, _ = _one_gru(store, rng)
    x = DArray(rng_np.normal(size=(5, 3)), requires_grad=True)
    h = DArray(rng_np.normal(size=(5, 4)), requires_grad=True)
    arrays = [x, h] + [store[k] for k, _ in store.trainable_items()]
    fd_probe_check(lambda: _sum_of_squares(_step(stack, x, h)), arrays,
                   rng_np, n_probes=25, eps=1e-6, rtol=1e-5, atol=1e-8)


def test_gru_step_matches_fused_reference_plain_and_stacked():
    store, rng = _store_rng()
    stack, params = _one_gru(store, rng)
    x, h = rng_np.normal(size=(5, 3)), rng_np.normal(size=(5, 4))
    out = _step(stack, DArray(x), DArray(h)).data
    ref = fused_gru_reference(x, h, *(p.data for p in params))
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)
    # C = 3 GRUs' parameters stacked on a leading axis; each row goes
    # through the GRU of its own category
    per_cat = [params] + [_one_gru(store, rng, prefix=f"c{c}")[1] for c in (1, 2)]
    stacked = [ad.stack([p[i] for p in per_cat]) for i in range(4)]
    rows = np.array([2, 0, 1, 2, 0])
    out = ad.gru_cell(DArray(x), DArray(h), *stacked, rows).data
    assert out.shape == (5, 4)
    for r, c in enumerate(rows):
        ref = fused_gru_reference(x[r:r + 1], h[r:r + 1], *(a.data for a in per_cat[c]))
        np.testing.assert_allclose(out[r:r + 1], ref, rtol=0, atol=1e-12)


def test_two_stacked_gru_cells_compose():
    store, rng = _store_rng()
    stack = GRUStack(store, "s", 6, 4, 2, rng)
    state = stack.init_state((3,))
    x = rng_np.normal(size=(3, 6))
    out, new_state = stack(DArray(x), state)
    assert out.shape == (3, 4)
    assert len(new_state) == 2
    h1 = fused_gru_reference(x, np.zeros((3, 4)), *(p.data for p in stack.params[0]))
    h2 = fused_gru_reference(h1, np.zeros((3, 4)), *(p.data for p in stack.params[1]))
    np.testing.assert_allclose(new_state[0].data, h1, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out.data, h2, rtol=0, atol=1e-12)


def test_batchnorm_train_normalizes_eval_uses_running():
    store, rng = _store_rng()
    mlp = MLP(store, "f", 3, [(3, None, True)], rng)
    store["f.0.W"].data[...] = np.eye(3)   # only the batch norm acts
    store["f.0.b"].data[...] = 0.0
    bn = mlp.layers[0][3]
    x = DArray(rng_np.normal(loc=5.0, scale=2.0, size=(64, 3)))
    out = mlp(x, train=True)
    assert np.abs(out.data.mean(axis=0)).max() < 1e-10
    assert np.abs(out.data.std(axis=0) - 1.0).max() < 1e-3
    # after one train step the running stats moved toward the batch stats
    assert np.abs(bn.run_mean.data - 0.1 * x.data.mean(axis=0)).max() < 1e-12
    # eval mode must not depend on the batch
    single = mlp(DArray(np.zeros((1, 3))), train=False)
    expected = -bn.run_mean.data / np.sqrt(bn.run_var.data + 1e-5)
    np.testing.assert_allclose(single.data[0], expected)


def _node_against_composed(spec, shape, modes):
    """Run two equal MLPs, one as the MLP node and one op by op
    (`composed_mlp`), through `modes`: outputs and running buffers must
    agree bit for bit, gradients within 1e-12. Returns the parents of
    each node output."""
    mlps = []
    for _ in range(2):
        store = ParamStore()
        mlp = MLP(store, "f", shape[-1], spec, RngStream(3).child(0))
        for _, _, _, bn in mlp.layers:
            if bn is not None:
                for arr in (bn.gamma, bn.beta, bn.run_mean):
                    arr.data[...] = np.random.default_rng(4).normal(size=arr.shape)
        mlps.append((mlp, store))
    x_data = rng_np.normal(loc=2.0, scale=3.0, size=shape)
    weights = rng_np.normal(size=shape[:-1] + (spec[-1][0],))
    parents = []
    for train in modes:
        outs, grads = [], []
        for (mlp, store), call in zip(mlps, (MLP.__call__, composed_mlp)):
            x = DArray(x_data, requires_grad=True)
            out = call(mlp, x, train)
            outs.append(out)
            if call is MLP.__call__:
                parents.append(out._parents)
            (out * weights).sum().backward()
            grads.append([x.grad] + [p.grad for _, p in store.trainable_items()])
            store.zero_grad()
        np.testing.assert_array_equal(outs[0].data, outs[1].data)
        for a, b in zip(*grads):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        for (k, a), (_, b) in zip(mlps[0][1].items(), mlps[1][1].items()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=k)
    return parents


@pytest.mark.parametrize("shape", [(7, 3), (2, 3, 4, 3)], ids=["2d", "4d"])
def test_batchnorm_node_matches_composed_oracle(shape):
    """A one-layer MLP with batch norm, under each activation, is one tape
    node; forward and running buffers equal to the composed ops bit for
    bit, gradients within 1e-12."""
    for act in ad.ACTIVATIONS:
        parents = _node_against_composed([(shape[-1], act, True)], shape,
                                         (True, False, True))
        assert [len(p) for p in parents] == [5, 5, 5]   # x, W, b, gamma, beta


@pytest.mark.parametrize("shape", [(7, 3), (2, 3, 4, 3)], ids=["2d", "4d"])
def test_mlp_node_matches_composed_oracle(shape):
    """The encoder's two ELU and batch-norm blocks with a plain affine on
    top, and the decoder head's two ReLU layers with an affine on top."""
    for spec in ([(5, "elu", True), (5, "elu", True), (1, None, False)],
                 [(4, "relu", False), (4, "relu", False), (2, None, False)]):
        _node_against_composed(spec, shape, (True, False, True))


def test_adam_zero_gradient_leaves_params_unchanged():
    store, rng = _store_rng()
    p = store.add("p", rng.normal(size=(4,)))
    before = p.data.copy()
    Adam(store, lr=1e-3).step({"p": np.zeros(4)})
    np.testing.assert_array_equal(p.data, before)


def test_adam_first_step_matches_hand_evaluation():
    # m = 0.1, v = 0.001; mhat = 1, vhat = 1 -> delta = lr / (1 + eps)
    store, _ = _store_rng()
    p = store.add("p", np.array([1.0]))
    opt = Adam(store, lr=1e-3)
    opt.step({"p": np.array([1.0])})
    expected = 1.0 - 1e-3 * 1.0 / (1.0 + 1e-8)
    assert p.data[0] == pytest.approx(expected, abs=1e-15)
    assert p.data[0] < 1.0


def test_adam_missing_grad_key_raises():
    store, _ = _store_rng()
    store.add("p", np.ones(2))
    with pytest.raises(ContractError):
        Adam(store, lr=1e-3).step({})


def test_adam_ten_steps_bitwise_deterministic():
    def run():
        store = ParamStore()
        rng = RngStream(5).child(1)
        p = store.add("p", rng.normal(size=(3, 3)))
        opt = Adam(store, lr=1e-2)
        for i in range(10):
            grads = gradients(_sum_of_squares(p - float(i)), store)
            opt.step(grads)
        return p.data.copy()

    a, b = run(), run()
    assert a.tobytes() == b.tobytes()


def test_checkpoint_round_trip_bit_exact(tmp_path):
    store, rng = _store_rng()
    MLP(store, "f", 5, [(8, "elu", True), (3, None, False)], rng)
    GRUStack(store, "g", 3, 4, 1, rng)
    state = store.state_dict()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    assert list(loaded.keys()) == list(state.keys())
    for k in state:
        assert loaded[k].tobytes() == state[k].tobytes()
    # write-load-write produces identical bytes
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_failed_save_leaves_previous_checkpoint_and_no_temp_file(tmp_path):
    path = tmp_path / "last.ckpt"
    save_checkpoint(path, {"a": np.arange(3.0)})
    before = path.read_bytes()

    class Unconvertible:
        def __array__(self, dtype=None, copy=None):
            raise RuntimeError("disk full")

    # the first record is written before the second one fails
    with pytest.raises(RuntimeError, match="disk full"):
        save_checkpoint(path, {"a": np.zeros(5), "b": Unconvertible()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["last.ckpt"]


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_checkpoint_truncations_raise_data_error(tmp_path):
    """A cut inside the header or a record is a DataError; a cut on the
    record boundary leaves a shorter valid file with the leading record."""
    path = tmp_path / "full.ckpt"
    save_checkpoint(path, {"a": np.arange(6.0).reshape(2, 3), "b\u00e9": np.array(2.5)})
    raw = path.read_bytes()
    boundary = 8 + (4 + 1) + (4 + 8) + 6 * 8   # header, key "a", rank 2, values
    cut = tmp_path / "cut.ckpt"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        if size == boundary:
            assert list(load_checkpoint(cut)) == ["a"]
        else:
            with pytest.raises(DataError):
                load_checkpoint(cut)


def test_checkpoint_rejects_bad_key_and_overrunning_dims(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, {"k": np.zeros(2)})
    raw = path.read_bytes()
    # layout: magic, version, key length, key "k" at byte 12, rank, dims[0] at 17
    for corrupt in (raw[:12] + b"\xff" + raw[13:],
                    raw[:17] + struct.pack("<I", 1000) + raw[21:],
                    raw[:13] + struct.pack("<I", 2 ** 31) + raw[17:],
                    # empty records whose shape numpy cannot represent
                    raw[:13] + struct.pack("<4I", 3, 0, 2 ** 32 - 1, 2 ** 32 - 1),
                    raw[:13] + struct.pack("<66I", 65, *[0] * 65)):
        path.write_bytes(corrupt)
        with pytest.raises(DataError):
            load_checkpoint(path)


def test_load_state_dict_restores_exactly():
    store, rng = _store_rng()
    Affine(store, "a", 3, 2, rng)
    state = store.state_dict()
    store["a.W"].data += 1.0
    store.load_state_dict(state)
    np.testing.assert_array_equal(store["a.W"].data, state["a.W"])
