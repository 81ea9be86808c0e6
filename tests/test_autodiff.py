import ast
import weakref
from pathlib import Path

import numpy as np
import pytest

from trajgraph import autodiff as ad
from trajgraph.autodiff import DArray
from trajgraph.errors import ContractError, ShapeError
from trajgraph.nn import MLP, ParamStore
from trajgraph.rng import RngStream

from oracles import composed_category_map, composed_gru_cell, fd_probe_check

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
    ad.exp, ad.sigmoid,
    lambda x: ad.log(x * x + 1.0),
    lambda x: x ** 3,
    lambda x: ad.clamp_min(x, 0.1),
    lambda x: -x * x,
])
def test_unary_op_gradients(fn):
    x = _rand(3, 4)
    # keep clamp probes away from its kink
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


def _gru_cell_operands(rows, f=4, hd=3):
    """x, h and fused GRU weights and biases: plain (F, 3H) weights with
    (3H,) biases, or C = 3 stacked ones with (C, 3H) biases for `rows`."""
    lead = () if rows is None else (3,)
    x, h = _rand(5, f), _rand(5, hd)
    params = [_rand(*lead, f, 3 * hd), _rand(*lead, hd, 3 * hd),
              _rand(*lead, 3 * hd), _rand(*lead, 3 * hd)]
    return x, h, params


_ROWS = [None, np.array([2, 0, 2, 2, 0])]
_ROW_IDS = ["plain", "rows_category_1_absent"]


@pytest.mark.parametrize("rows", _ROWS, ids=_ROW_IDS)
def test_gru_cell_gradients(rows):
    x, h, params = _gru_cell_operands(rows)
    weights = rng.normal(size=(5, 3))
    arrays = [x, h] + params
    fd_probe_check(lambda: (ad.gru_cell(x, h, *params, rows) * weights).sum(),
                   arrays, rng, n_probes=40, rtol=1e-5)
    if rows is not None:   # the absent category gets zero weight and bias gradients
        (ad.gru_cell(x, h, *params, rows) * weights).sum().backward()
        assert all(not p.grad[1].any() for p in params)


def test_gru_cell_matches_composed_ops():
    """The node equals the six taped GEMMs plus the gate node it replaced
    bit for bit, plain and C-stacked; every gradient agrees within 1e-12."""
    for rows in _ROWS:
        x, h, params = _gru_cell_operands(rows)
        weights = rng.normal(size=(5, 3))
        results = []
        cells = (lambda: ad.gru_cell(x, h, *params, rows),
                 lambda: composed_gru_cell(x, h, *params, rows))
        for cell in cells:
            out = cell()
            (out * weights).sum().backward()
            results.append((out.data, [t.grad for t in [x, h] + params]))
            for t in [x, h] + params:
                t.grad = None
        (out, grads), (out_ref, grads_ref) = results
        np.testing.assert_array_equal(out, out_ref)
        for g, g_ref in zip(grads, grads_ref):
            np.testing.assert_allclose(g, g_ref, rtol=0, atol=1e-12)


def _category_map_operands():
    """h (R, F), C-stacked weights and biases, and a category index in
    which category 1 is absent."""
    return _rand(5, 3), _rand(3, 3, 4), _rand(3, 4), np.array([0, 2, 2, 0, 2])


def test_category_map_gradients():
    h, w, stacked_b, rows = _category_map_operands()
    weights = rng.normal(size=(5, 4))
    fd_probe_check(lambda: (ad.category_map(h, w, stacked_b, rows) * weights).sum(),
                   [h, w, stacked_b], rng, n_probes=30, rtol=1e-5)
    (ad.category_map(h, w, stacked_b, rows) * weights).sum().backward()
    assert not w.grad[1].any() and not stacked_b.grad[1].any()


def test_category_map_matches_composed_ops():
    h, w, stacked_b, rows = _category_map_operands()
    weights = rng.normal(size=(5, 4))
    results = []
    for fn in (ad.category_map, composed_category_map):
        out = fn(h, w, stacked_b, rows)
        (out * weights).sum().backward()
        results.append((out.data, [h.grad, w.grad, stacked_b.grad]))
        h.grad = w.grad = stacked_b.grad = None
    (out, grads), (out_ref, grads_ref) = results
    np.testing.assert_array_equal(out, out_ref)
    for g, g_ref in zip(grads, grads_ref):
        np.testing.assert_allclose(g, g_ref, rtol=0, atol=1e-12)


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


@pytest.mark.parametrize("axis", [None, 1])
def test_reduce_max_gradients(axis):
    x = _rand(3, 4)   # continuous values: no ties, so the max is differentiable
    weights = rng.normal(size=(3,) if axis == 1 else ())
    fd_probe_check(lambda: (ad.reduce_max(x, axis=axis) * weights).sum(), [x], rng,
                   n_probes=10, rtol=1e-5)


def test_advanced_index_take_gradients():
    x = _rand(4, 3)
    rows = np.array([2, 0, 2, 3])   # a repeated row accumulates
    weights = rng.normal(size=(4, 3))
    fd_probe_check(lambda: (x[rows] * weights).sum(), [x], rng, n_probes=12, rtol=1e-5)
    fd_probe_check(lambda: (x[rows, np.array([0, 1, 1, 2])] * weights[:, 0]).sum(),
                   [x], rng, n_probes=12, rtol=1e-5)


def _mlp_layers(n_in, spec, running=True):
    """The (W, b, activation, BatchNorm or None) layers of an `nn.MLP`,
    with running buffers away from their initial zeros and ones."""
    layers = MLP(ParamStore(), "f", n_in, spec, RngStream(9).child(0)).layers
    for _, _, _, bn in layers:
        if bn is not None and running:
            bn.run_mean.data[...] = rng.normal(size=bn.run_mean.shape)
            bn.run_var.data[...] = rng.uniform(0.5, 2.0, size=bn.run_var.shape)
    return layers


def _layer_arrays(x, layers):
    return [x] + [p for w, b, _, bn in layers
                  for p in ((w, b) if bn is None else (w, b, bn.gamma, bn.beta))]


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("shape", [(6, 3), (2, 3, 4, 3)], ids=["2d", "4d"])
def test_batch_norm_gradients(shape, train):
    """Batch norm, inside the MLP node, on an affine layer of its own."""
    x = _rand(*shape)
    layers = _mlp_layers(shape[-1], [(shape[-1], None, True)])
    # weights: in train mode a plain sum has zero gradient with respect to x
    weights = rng.normal(size=shape)
    fd_probe_check(lambda: (ad.mlp(x, layers, train) * weights).sum(),
                   _layer_arrays(x, layers), rng, n_probes=30, rtol=1e-5)


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("shape", [(6, 3), (2, 3, 4, 3)], ids=["2d", "4d"])
@pytest.mark.parametrize("norm", [True, False], ids=["bn", "plain"])
@pytest.mark.parametrize("act", ad.ACTIVATIONS, ids=str)
def test_mlp_gradients(act, norm, shape, train):
    """Two layers, so that backward also runs through a recomputed layer
    output into the layer below."""
    x = _rand(*shape)
    layers = _mlp_layers(shape[-1], [(4, act, norm), (2, act, norm)])
    weights = rng.normal(size=shape[:-1] + (2,))
    fd_probe_check(lambda: (ad.mlp(x, layers, train) * weights).sum(),
                   _layer_arrays(x, layers), rng, n_probes=40, rtol=1e-5)


def test_scatter_gradients():
    x = _rand(2, 3)
    weights = rng.normal(size=(4, 5))
    fd_probe_check(lambda: (ad.scatter(x, (4, 5), lambda a: a[1:3, ::2]) * weights).sum(),
                   [x], rng, n_probes=12, rtol=1e-5)
    out = ad.scatter(x, (4, 5), lambda a: a[1:3, ::2]).data
    np.testing.assert_array_equal(out[1:3, ::2], x.data)
    out[1:3, ::2] = 0.0
    assert not out.any()


def test_tanh_add_gradients():
    a, b, c = _rand(2, 3, 1, 4), _rand(2, 1, 3, 4), _rand(4)
    weights = rng.normal(size=(2, 3, 3, 4))
    fd_probe_check(lambda: (ad.tanh_add(a, b, c) * weights).sum(), [a, b, c], rng,
                   n_probes=30, rtol=1e-5)


# an index into 5 rows that repeats rows 0, 2 and 3 and never names 1 or 4
_SEGMENT_INDEX = np.array([3, 0, 2, 2, 3, 0, 3])


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
@pytest.mark.parametrize("width", [None, 3], ids=["vector", "rows"])
def test_segment_sum_gradients(weighted, width):
    e = len(_SEGMENT_INDEX)
    seg = ad.segments(_SEGMENT_INDEX, 5)
    x = _rand(e) if width is None else _rand(e, width)
    w = _rand(e) if weighted else None
    out_weights = rng.normal(size=(5,) if width is None else (5, width))
    fd_probe_check(lambda: (ad.segment_sum(x, seg, weights=w) * out_weights).sum(),
                   [x] + ([w] if weighted else []), rng, n_probes=30)

    expect = np.zeros(out_weights.shape)
    for row, s in enumerate(_SEGMENT_INDEX):   # plain loop, segments 1 and 4 empty
        expect[s] += (w.data[row] if weighted else 1.0) * x.data[row]
    np.testing.assert_allclose(ad.segment_sum(x, seg, weights=w).data, expect,
                               rtol=1e-14, atol=0)
    assert not expect[[1, 4]].any()


def test_segment_sum_of_no_rows_is_zero():
    x, w = _rand(0, 3), _rand(0)
    out = ad.segment_sum(x, ad.segments(np.zeros(0, dtype=int), 4), weights=w)
    np.testing.assert_array_equal(out.data, np.zeros((4, 3)))
    (out * rng.normal(size=(4, 3))).sum().backward()
    assert x.grad.shape == (0, 3) and w.grad.shape == (0,)


def test_tanh_add_gathered_term_gradients():
    """Two gathered terms whose rows repeat, a plain term and a broadcast
    one, as the attention's queries and values use them."""
    a, b = _rand(4, 3), _rand(5, 3)
    c, d = _rand(len(_SEGMENT_INDEX), 3), _rand(3)
    rows_a = ad.segments(np.array([1, 1, 0, 3, 1, 0, 2]), 4)
    rows_b = ad.segments(_SEGMENT_INDEX, 5)
    weights = rng.normal(size=(len(_SEGMENT_INDEX), 3))
    fd_probe_check(lambda: (ad.tanh_add((a, rows_a), (b, rows_b), c, d) * weights).sum(),
                   [a, b, c, d], rng, n_probes=30)
    expect = np.tanh(a.data[rows_a.indices] + b.data[_SEGMENT_INDEX] + c.data + d.data)
    np.testing.assert_array_equal(ad.tanh_add((a, rows_a), (b, rows_b), c, d).data, expect)


@pytest.mark.parametrize("shapes, axis", [
    (((2, 4, 4, 1), (2, 4, 4, 3)), 1),   # attention's alpha-weighted aggregation
    (((2, 4, 1, 3), (2, 1, 4, 3)), -1),  # attention's scores
], ids=["middle_axis", "last_axis"])
def test_mul_sum_gradients(shapes, axis):
    a, b = _rand(*shapes[0]), _rand(*shapes[1])
    fd_probe_check(lambda: (ad.mul_sum(a, b, axis) ** 2).sum(), [a, b], rng,
                   n_probes=30, rtol=1e-5)


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
    out1 = ad.sigmoid(x @ w).sum().item()
    out2 = ad.sigmoid(x @ w).sum().item()
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
    h = ad.exp(x)
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


# --------------------------------------------------------------- coverage
# Every function of autodiff.py that records a tape node (calls `_track`)
# needs a finite-difference check in this file. A check covers the ops its
# loss function uses, and the ops of a `pytest.mark.parametrize` list of
# the test that makes it: named as `ad.<op>`, or written with an operator
# or method of DArray, which `DArray` forwards to a module-level op.

_OPERATORS = {ast.Add: "__add__", ast.Sub: "__sub__", ast.Mult: "__mul__",
              ast.Div: "__truediv__", ast.Pow: "__pow__", ast.MatMult: "__matmul__",
              ast.USub: "__neg__"}


def tracked_ops(source: str) -> set[str]:
    """Module-level functions whose body calls `_track`."""
    return {f.name for f in ast.parse(source).body if isinstance(f, ast.FunctionDef)
            and any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_track"
                    for n in ast.walk(f))}


def darray_forwarding(source: str) -> dict[str, str]:
    """DArray method name -> the module-level op its `return` calls."""
    cls = next(c for c in ast.parse(source).body
               if isinstance(c, ast.ClassDef) and c.name == "DArray")
    out = {}
    for f in cls.body:
        if isinstance(f, ast.FunctionDef):
            ret = f.body[-1]
            if isinstance(ret, ast.Return) and isinstance(ret.value, ast.Call) \
                    and isinstance(ret.value.func, ast.Name):
                out[f.name] = ret.value.func.id
    return out


def fd_checked_ops(test_source: str, forwarding: dict[str, str]) -> set[str]:
    """Ops used by the finite-difference checks of a test module."""
    def ops(node) -> set[str]:
        found = set()
        for n in ast.walk(node):
            method = None
            if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "ad":
                found.add(n.attr)
            elif isinstance(n, (ast.BinOp, ast.UnaryOp)):
                method = _OPERATORS.get(type(n.op))
            elif isinstance(n, ast.Subscript):
                method = "__getitem__"
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
                method = n.func.attr
            if method in forwarding:
                found.add(forwarding[method])
        return found

    checked = set()
    for test in ast.parse(test_source).body:
        if not isinstance(test, ast.FunctionDef):
            continue
        local_defs = {f.name: f for f in ast.walk(test) if isinstance(f, ast.FunctionDef)}
        calls = [n for n in ast.walk(test) if isinstance(n, ast.Call)
                 and getattr(n.func, "id", None) == "fd_probe_check"]
        for call in calls:
            loss = call.args[0]
            checked |= ops(local_defs.get(getattr(loss, "id", None), loss))
        if calls:
            for deco in test.decorator_list:
                checked |= ops(deco)
    return checked


def unchecked_ops(autodiff_source: str, test_source: str) -> list[str]:
    forwarding = darray_forwarding(autodiff_source)
    return sorted(tracked_ops(autodiff_source) - fd_checked_ops(test_source, forwarding))


def test_coverage_checker_finds_unchecked_ops():
    autodiff_source = ("class DArray:\n    def __neg__(self):\n        return neg(self)\n"
                       "    def sum(self):\n        return reduce_sum(self)\n"
                       "def neg(a):\n    return _track(-a, (a,), None)\n"
                       "def exp(a):\n    return _track(a, (a,), None)\n"
                       "def tanh(a):\n    return _track(a, (a,), None)\n"
                       "def reduce_sum(a):\n    return _track(a, (a,), None)\n"
                       "def _coerce(x):\n    return x\n")
    test_source = ("@pytest.mark.parametrize('fn', [ad.exp])\n"
                   "def test_a(fn):\n    fd_probe_check(lambda: fn(x).sum(), [x], rng)\n"
                   "def test_b():\n    y = -x\n    ad.tanh(x)\n")
    assert unchecked_ops(autodiff_source, test_source) == ["neg", "tanh"]


def test_every_tape_op_has_a_finite_difference_check():
    assert unchecked_ops(Path(ad.__file__).read_text(), Path(__file__).read_text()) == []
