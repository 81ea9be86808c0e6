import weakref

import numpy as np
import pytest

from trajgraph import autodiff as ad
from trajgraph.autodiff import DArray
from trajgraph.errors import ContractError, ShapeError

from oracles import fd_probe_check

rng = np.random.default_rng(7)


def _rand(*shape):
    return DArray(rng.normal(size=shape), requires_grad=True)


def test_sum_of_inputs_gives_ones():
    x = _rand(4, 3)
    loss = x.sum()
    loss.backward()
    np.testing.assert_array_equal(x.grad, np.ones((4, 3)))


def test_square_at_three():
    x = DArray(np.array(3.0), requires_grad=True)
    (x * x).backward()
    assert x.grad == pytest.approx(6.0)


def test_backward_rejects_non_scalar():
    x = _rand(3)
    with pytest.raises(ContractError):
        (x * 2.0).backward()


def test_backward_rejects_untracked():
    x = DArray(np.ones(3))
    with pytest.raises(ContractError):
        x.sum().backward()


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        ad.matmul(_rand(2, 3), _rand(4, 2))


@pytest.mark.parametrize("op", [
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: a * b,
    lambda a, b: a / (b + 3.0),
    lambda a, b: (a @ b.transpose((1, 0))) if a.shape == b.shape else a + b,
])
def test_binary_op_gradients(op):
    a, b = _rand(4, 5), _rand(4, 5)
    fd_probe_check(lambda: op(a, b).sum(), [a, b], rng, n_probes=10, rtol=1e-5)


@pytest.mark.parametrize("fn", [
    ad.exp, ad.tanh, ad.sigmoid, ad.elu,
    lambda x: ad.relu(x + 0.3),
    lambda x: ad.log(x * x + 1.0),
    lambda x: x ** 3,
    lambda x: ad.clamp_min(x, 0.1),
])
def test_unary_op_gradients(fn):
    x = _rand(3, 4)
    # keep relu/clamp probes away from their kinks
    x.data += np.where(np.abs(x.data) < 0.05, 0.2, 0.0)
    fd_probe_check(lambda: fn(x).sum(), [x], rng, n_probes=10, rtol=1e-5)


def test_broadcast_gradients():
    a, b = _rand(4, 5), _rand(5)
    fd_probe_check(lambda: (a * b + b).sum(), [a, b], rng, n_probes=10, rtol=1e-5)


def test_batched_matmul_gradients():
    a, b = _rand(3, 4, 5), _rand(5, 2)
    fd_probe_check(lambda: (a @ b).sum(), [a, b], rng, n_probes=10, rtol=1e-5)


@pytest.mark.parametrize("op, shapes", [
    (lambda x, w: x @ w, ((1, 5, 4), (3, 4, 2))),   # rows against C-stacked weights
    (lambda h, z: z * h, ((1, 5, 2), (3, 5, 2))),   # rows against C-stacked arrays
    (lambda x, w: x @ w, ((5, 4), (3, 4, 2))),      # the decoder's (R, F) rows
], ids=["matmul", "mul", "matmul_rows"])
def test_category_broadcast_gradients(op, shapes):
    a, b = _rand(*shapes[0]), _rand(*shapes[1])
    fd_probe_check(lambda: (op(a, b) ** 2).sum(), [a, b], rng, n_probes=10, rtol=1e-5)


def _gru_cell_operands(lead, bias_shape, h_rows):
    pre = [_rand(*lead) for _ in range(6)]
    bias = [_rand(*bias_shape) for _ in range(4)]
    return pre, bias, _rand(h_rows, lead[-1])


@pytest.mark.parametrize("rows", [None, np.array([2, 0, 2, 2, 0])],
                         ids=["plain", "rows_category_1_absent"])
def test_gru_cell_gradients(rows):
    if rows is None:
        pre, bias, h = _gru_cell_operands((5, 3), (3,), 5)
    else:
        pre, bias, h = _gru_cell_operands((3, 5, 3), (3, 1, 3), 5)
    weights = rng.normal(size=(5, 3))
    fd_probe_check(lambda: (ad.gru_cell(pre, bias, h, rows) * weights).sum(),
                   pre + bias + [h], rng, n_probes=40, rtol=1e-5)
    if rows is not None:   # the absent category and the unpicked rows get zeros
        (ad.gru_cell(pre, bias, h, rows) * weights).sum().backward()
        for t in pre:
            for r, c in enumerate(rows):
                assert not np.delete(t.grad[:, r], c, axis=0).any()
        assert all(not b.grad[1].any() for b in bias)


def test_gru_cell_matches_composed_ops():
    pre, bias, h = _gru_cell_operands((3, 4, 2), (3, 1, 2), 4)
    rows = np.array([1, 0, 1, 2])
    xr, hr, xz, hz, xn, hn = (ad.pick(p, rows) for p in pre)
    b_r, b_z, b_in, b_hn = (ad.pick(b, rows) for b in bias)
    r = ad.sigmoid(xr + hr + b_r)
    z = ad.sigmoid(xz + hz + b_z)
    n = ad.tanh(xn + b_in + r * (hn + b_hn))
    composed = (1.0 - z) * n + z * h
    np.testing.assert_array_equal(ad.gru_cell(pre, bias, h, rows).data, composed.data)


@pytest.mark.parametrize("shape", [(3, 5, 4), (3, 1, 4)], ids=["rows", "bias"])
def test_pick_gradients(shape):
    a = _rand(*shape)
    rows = np.array([0, 2, 2, 0, 2])   # category 1 absent
    weights = rng.normal(size=(5, 4))
    fd_probe_check(lambda: (ad.pick(a, rows) * weights).sum(), [a], rng,
                   n_probes=20, rtol=1e-5)
    out = ad.pick(a, rows)
    for r, c in enumerate(rows):
        np.testing.assert_array_equal(out.data[r], a.data[c, r if shape[1] > 1 else 0])


def test_reduction_and_reshape_gradients():
    x = _rand(4, 6)
    fd_probe_check(
        lambda: (x.mean(axis=0) * x.reshape(2, 12).sum(axis=1).reshape(1, 2).sum()).sum(),
        [x], rng, n_probes=10, rtol=1e-4)


def test_concat_stack_take_gradients():
    a, b = _rand(3, 4), _rand(2, 4)

    def loss():
        c = ad.concat([a, b], axis=0)
        s = ad.stack([c[0], c[2]], axis=0)
        return (s * s).sum() + c[1:4].sum()

    fd_probe_check(loss, [a, b], rng, n_probes=10, rtol=1e-5)


def test_reduce_max_first_argmax_subgradient():
    x = DArray(np.array([[1.0, 3.0, 3.0], [0.5, 0.1, 0.2]]), requires_grad=True)
    ad.reduce_max(x, axis=1).sum().backward()
    # tie in row 0 broken toward the lowest index
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


def test_detach_blocks_gradient():
    x = _rand(3)
    (x.detach() * x).sum().backward()
    np.testing.assert_allclose(x.grad, x.data)


def test_no_grad_skips_tape():
    x = _rand(3)
    with ad.no_grad():
        y = x * 2.0
    assert not y.requires_grad
    assert y._bw is None


def test_reused_node_accumulates():
    x = _rand(3)
    y = x * 2.0
    (y + y * y).sum().backward()
    np.testing.assert_allclose(x.grad, 2.0 + 8.0 * x.data)


def test_forward_deterministic():
    x = DArray(rng.normal(size=(5, 5)))
    w = DArray(rng.normal(size=(5, 5)))
    out1 = ad.tanh(x @ w).sum().item()
    out2 = ad.tanh(x @ w).sum().item()
    assert out1 == out2


def test_deep_chain_no_recursion_error():
    x = DArray(np.ones(4), requires_grad=True)
    y = x
    for _ in range(3000):
        y = y + 1.0
    y.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones(4))


def test_backward_releases_the_tape():
    x = _rand(3, 4)
    h = ad.tanh(x)
    only_on_tape = weakref.ref(h.data)
    loss = (h * h).sum()
    del h
    loss.backward()
    assert only_on_tape() is None


def test_backward_frees_interior_grads_and_keeps_leaf_grads():
    x = _rand(3)
    y = x * 2.0
    loss = (y * y).sum()
    loss.backward()
    assert y.grad is None and loss.grad is None
    np.testing.assert_allclose(x.grad, 8.0 * x.data)


def test_second_backward_through_a_consumed_graph_raises():
    x = DArray(np.array(1.0), requires_grad=True)
    y = x * 2.0
    y.sum().backward()
    assert x.grad == 2.0
    x.grad = None
    # y's stale gradient would make this 8 instead of 6
    with pytest.raises(ContractError):
        (y * 3.0).sum().backward()
    assert x.grad is None
    loss = (x * x).sum()
    loss.backward()
    with pytest.raises(ContractError):
        loss.backward()
