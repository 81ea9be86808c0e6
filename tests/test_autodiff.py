import ast
import weakref
from pathlib import Path

import numpy as np
import pytest

from trajgraph import autodiff as ad
from trajgraph.autodiff import DArray
from trajgraph.decoder import WindowEdges
from trajgraph.errors import ContractError, ShapeError
from trajgraph.nn import MLP, ParamStore
from trajgraph.rng import RngStream

from oracles import (composed_category_map, composed_gru_cell, fd_probe_check,
                     per_step_affine_grads)

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
    lambda a, b: (a @ b.reshape(5, 4)) if a.shape == b.shape else a + b,
])
def test_binary_op_gradients(op):
    a, b = _rand(4, 5), _rand(4, 5)
    fd_probe_check(lambda: op(a, b).sum(), [a, b], rng, n_probes=10, rtol=1e-5)


@pytest.mark.parametrize("fn", [
    ad.sigmoid,
    lambda x: ad.log(x * x + 1.0),
    lambda x: x * x * x,
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

    def loss():
        y = op(a, b)
        return (y * y).sum()

    fd_probe_check(loss, [a, b], rng, n_probes=10, rtol=1e-5)


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


@pytest.mark.parametrize("rows", _ROWS, ids=_ROW_IDS)
def test_gru_cell_keeps_no_zero_initial_state(rows):
    """An untracked all-zero state (a first step's) stays off the node: the
    output equals the composed ops' bit for bit, the other gradients agree
    within 1e-12, and W_hh, whose gradient from a zero state is zero, is
    no parent of the node."""
    x, _, params = _gru_cell_operands(rows)
    h = DArray(np.zeros((5, 3)))
    weights = rng.normal(size=(5, 3))
    results = []
    for cell in (ad.gru_cell, composed_gru_cell):
        out = cell(x, h, *params, rows)
        (out * weights).sum().backward()
        results.append((out, [t.grad for t in [x] + params]))
        for t in [x] + params:
            t.grad = None
    (out, grads), (out_ref, grads_ref) = results
    np.testing.assert_array_equal(out.data, out_ref.data)
    assert grads[2] is None and not grads_ref[2].any()
    for g, g_ref in zip(grads[:2] + grads[3:], grads_ref[:2] + grads_ref[3:]):
        np.testing.assert_allclose(g, g_ref, rtol=0, atol=1e-12)
    node = ad.gru_cell(x, h, *params, rows)
    assert params[1] not in node._parents
    assert not any(c.cell_contents is h for c in node._bw.__closure__)


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


# Category counts per step of the recorded-weight-gradient chains: 1-3 rows
# per category, one category empty at some steps.
_STEP_COUNTS = [(2, 2, 1), (1, 3, 1), (3, 2, 0), (2, 1, 2), (0, 2, 3), (1, 1, 3), (3, 0, 2)]


def _step_rows(t):
    counts = _STEP_COUNTS[t % len(_STEP_COUNTS)]
    return np.random.default_rng(t).permutation(np.repeat(np.arange(3), counts))


def _recorded_chain(width):
    """Leaves and loss of 14 chained `gru_cell` steps on GRU weights that
    `ad.stack` builds once from C = 3 leaves each, and 10 `category_map`
    calls on the states, every step with its own (5,) category rows. At
    width 32 every weight's terms fit its size, at width 8 the budget
    flushes every few steps, and at width 2 a single GRU term outweighs
    its weight."""
    gen = np.random.default_rng(width)

    def leaf(*shape):
        return DArray(gen.normal(scale=0.5, size=shape), requires_grad=True)

    gru = [[leaf(*shape) for _ in range(3)] for shape in
           ((width, 3 * width), (width, 3 * width), (3 * width,), (3 * width,))]
    maps = [[leaf(width, width + 8) for _ in range(3)], [leaf(width + 8) for _ in range(3)]]
    xs = [leaf(5, width) for _ in range(14)]
    coef = gen.normal(size=(5, width + 8))

    def loss():
        gru_params = [ad.stack(p) for p in gru]
        w, b = (ad.stack(p) for p in maps)
        h, total = DArray(np.zeros((5, width))), 0.0
        for t, x in enumerate(xs):
            h = ad.gru_cell(x, h, *gru_params, _step_rows(t))
            if t >= 4:
                total = total + (ad.category_map(h, w, b, _step_rows(t)) * coef).sum()
        return total + (h * h).sum()

    weights = [p for group in gru[:2] + maps[:1] for p in group]
    return weights, [p for group in gru[2:] + maps[1:] for p in group] + xs, loss


def _shared_leaf_chain():
    """The encoder's edge GRU: plain (8, 24) leaf weights shared by 3
    `gru_cell` calls on (2, 8) pair rows, whose terms just fit W_ih."""
    gen = np.random.default_rng(3)
    params = [DArray(gen.normal(scale=0.5, size=s), requires_grad=True)
              for s in ((8, 24), (8, 24), (24,), (24,))]
    xs = [DArray(gen.normal(size=(2, 8)), requires_grad=True) for _ in range(3)]

    def loss():
        h = DArray(np.zeros((2, 8)))
        for x in xs:
            h = ad.gru_cell(x, h, *params)
        return (h * h).sum()

    return params[:2], params[2:] + xs, loss


_CHAINS = {"stacked_one_flush": lambda: _recorded_chain(32),
           "stacked_budget_flushes": lambda: _recorded_chain(8),
           "stacked_term_outweighs_weight": lambda: _recorded_chain(2),
           "shared_leaf": _shared_leaf_chain}


@pytest.mark.parametrize("chain", list(_CHAINS))
def test_recorded_weight_gradients_match_per_step_ones(chain, monkeypatch):
    """Weight gradients recorded per use and formed per category at the
    budget or at the weight's turn equal the per-step ones within 1e-12
    (sums reordered); every other gradient, and any weight's formed from
    one term, is bit-identical. Recorded operands never pass the weight's
    size, bar a single oversize term, and no term is left on a weight
    after backward."""
    weights, others, loss_fn = _CHAINS[chain]()
    leaves = weights + others
    with monkeypatch.context() as m:
        m.setattr(ad, "_affine_grads", per_step_affine_grads)
        loss_fn().backward()
    reference = [leaf.grad for leaf in leaves]
    for leaf in leaves:
        leaf.grad = None

    flushed = []
    flush = ad._flush

    def checked_flush(w):
        recorded = sum(x.nbytes + g.nbytes for x, g, _ in w._terms[1:])
        n = len(w._terms) - 1
        assert recorded == w._terms[0] and (n == 1 or recorded <= w.data.nbytes)
        flushed.append((w.data.shape, n))
        flush(w)

    monkeypatch.setattr(ad, "_flush", checked_flush)
    loss = loss_fn()
    loss.backward()
    with pytest.raises(ContractError):
        loss.backward()
    for leaf, ref in zip(leaves, reference):
        assert isinstance(leaf.grad, np.ndarray) and leaf._terms is None
        if any(leaf is w for w in weights):
            assert np.abs(leaf.grad - ref).max() <= 1e-12 * np.abs(ref).max()
        else:
            np.testing.assert_array_equal(leaf.grad, ref)
    n_terms = [n for _, n in flushed]
    if chain == "stacked_one_flush":   # GRU weights: 14 and 13 terms, maps: 10
        assert sorted(n_terms) == [10, 13, 14]
    elif chain == "stacked_budget_flushes":
        assert len(n_terms) > 3 and max(n_terms) < 10
    elif chain == "stacked_term_outweighs_weight":
        # every term flushes alone: each GRU term (320 bytes) outweighs its
        # (3, 2, 6) weight (288), 14 W_ih steps and 13 W_hh steps (the first
        # state is zero), and two map terms (480 each) pass the (3, 2, 10) map
        assert sorted(flushed) == sorted([((3, 2, 6), 1)] * 27 + [((3, 2, 10), 1)] * 10)
    else:
        assert sorted(n_terms) == [2, 3]
    if max(n_terms, default=1) == 1:
        for leaf, ref in zip(leaves, reference):
            np.testing.assert_array_equal(leaf.grad, ref)
    for leaf in leaves:
        leaf.grad = None
    fd_probe_check(loss_fn, leaves, rng, n_probes=30, rtol=1e-5)


@pytest.mark.parametrize("chain", list(_CHAINS))
def test_weight_gradients_form_only_in_flush(chain, monkeypatch):
    """`_flush` forms every weight gradient of the category nodes: with a
    `_flush` that adds zeros instead, every weight leaf's gradient is zero,
    at each size of term against weight, and every other leaf's is
    unchanged."""
    weights, others, loss_fn = _CHAINS[chain]()
    loss_fn().backward()
    reference = [leaf.grad for leaf in others]
    for leaf in weights + others:
        leaf.grad = None

    def zero_flush(w):
        w._terms = None
        ad._accum(w, np.zeros_like(w.data))

    monkeypatch.setattr(ad, "_flush", zero_flush)
    loss_fn().backward()
    for leaf in weights:
        assert isinstance(leaf.grad, np.ndarray) and not leaf.grad.any()
    for leaf, ref in zip(others, reference):
        np.testing.assert_array_equal(leaf.grad, ref)


def test_a_failed_backward_leaves_no_recorded_term():
    """A backward that stops at a raising closure drops the weight terms it
    recorded, so a later backward cannot add them into the weight."""
    h0, w, stacked_b = _rand(5, 3), _rand(3, 3, 4), _rand(3, 4)

    def fail(g):
        raise RuntimeError("closure failed")

    h = ad._track(h0.data.copy(), (h0,), fail)
    loss = ad.category_map(h, w, stacked_b, np.array([0, 2, 2, 0, 2])).sum()
    with pytest.raises(RuntimeError):
        loss.backward()
    assert w._terms is None and w.grad is None


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


# an index into 5 rows that repeats rows 0, 2 and 3 and never names 1 or 4
_SEGMENT_INDEX = np.array([3, 0, 2, 2, 3, 0, 3])


@pytest.mark.parametrize("width", [None, 3], ids=["vector-plain", "rows-plain"])
def test_segment_sum_gradients(width):
    e = len(_SEGMENT_INDEX)
    seg = ad.segments(_SEGMENT_INDEX, 5)
    x = _rand(e) if width is None else _rand(e, width)
    out_weights = rng.normal(size=(5,) if width is None else (5, width))
    fd_probe_check(lambda: (ad.segment_sum(x, seg) * out_weights).sum(), [x], rng,
                   n_probes=30)

    expect = np.zeros(out_weights.shape)
    for row, s in enumerate(_SEGMENT_INDEX):   # plain loop, segments 1 and 4 empty
        expect[s] += x.data[row]
    np.testing.assert_allclose(ad.segment_sum(x, seg).data, expect, rtol=1e-14, atol=0)
    assert not expect[[1, 4]].any()


def test_segment_sum_of_no_rows_is_zero():
    x = _rand(0, 3)
    out = ad.segment_sum(x, ad.segments(np.zeros(0, dtype=int), 4))
    np.testing.assert_array_equal(out.data, np.zeros((4, 3)))
    (out * rng.normal(size=(4, 3))).sum().backward()
    assert x.grad.shape == (0, 3)


def _attention_edges():
    """Seven edges into five rows, sorted by target: row 0 has no in-edge,
    row 1 one (from 3), row 2 three (from 0, 1, 4), row 3 two (from 1, 2)
    and row 4 one (from 0); weights z in (0.5, 1), widths A = 4, H = 3."""
    src, tgt = np.array([3, 0, 1, 4, 1, 2, 0]), np.array([1, 2, 2, 2, 3, 3, 4])
    starts = np.flatnonzero(np.diff(tgt, prepend=-1))
    z = DArray(rng.uniform(0.55, 0.95, size=7), requires_grad=True)
    return WindowEdges(src=ad.segments(src, 5), tgt=ad.segments(tgt, 5), starts=starts,
                       counts=np.diff(np.append(starts, 7)), z=z,
                       qe=_rand(7, 4), ke=_rand(7, 4), ve=_rand(7, 3))


def test_graph_attention_gradients():
    edges = _attention_edges()
    gq, gk, gv = _rand(5, 3), _rand(5, 3), _rand(5, 3)
    weights = [_rand(3, 4), _rand(3, 4), _rand(3, 3), _rand(3, 3), _rand(3)]
    out_weights = rng.normal(size=(5, 3))

    def loss():
        return (ad.graph_attention(gq, gk, gv, edges, *weights, 2.0) * out_weights).sum()

    arrays = [gq, gk, gv, edges.z, edges.qe, edges.ke, edges.ve] + weights
    fd_probe_check(loss, arrays, rng, n_probes=60, rtol=1e-5)
    m = ad.graph_attention(gq, gk, gv, edges, *weights, 2.0).data
    # no in-edge: a zero message; one in-edge: weight one on its value
    w_v, w_1, b_1 = (w.data for w in weights[2:])
    v1 = np.tanh(gv.data[3] @ w_v - gv.data[1] @ w_v + edges.ve.data[0])
    np.testing.assert_array_equal(m[0], np.zeros(3))
    np.testing.assert_allclose(m[1], np.tanh(v1 @ w_1 + b_1), rtol=1e-15)


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
    h = ad.sigmoid(x)
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


@pytest.mark.parametrize("op, b_shape", [
    *((op, shape) for op in ("add", "sub") for shape in ((3, 4), (4,), (1, 4))),
    ("add", "a"), ("add", "reshape")])
def test_add_operands_never_share_a_gradient_buffer(op, b_shape):
    """a ± b hands each operand the output's gradient, and a and b feed
    later ops too, whose gradients add into theirs in place: operands
    sharing one buffer would corrupt each other's gradient. b_shape "a"
    is a + a; "reshape" makes a a reshape of a (12,) leaf."""
    sign = 1.0 if op == "add" else -1.0
    w = np.arange(12.0).reshape(3, 4) - 4.0    # the weights on a ± b
    x = DArray(np.ones(12 if b_shape == "reshape" else (3, 4)), requires_grad=True)
    a = x.reshape(3, 4) if b_shape == "reshape" else x
    y = x if b_shape == "a" else DArray(
        np.ones((3, 4) if b_shape == "reshape" else b_shape), requires_grad=True)
    b = a if b_shape == "a" else y
    loss = (getattr(ad, op)(a, b) * w).sum() + (a * 2.0).sum() + (b * -3.0).sum()
    loss.backward()
    if b_shape == "a":
        np.testing.assert_array_equal(x.grad, 2.0 * w - 1.0)
        return
    np.testing.assert_array_equal(x.grad, (w + 2.0).reshape(x.shape))
    w_b = w if y.shape == (3, 4) else w.sum(axis=0).reshape(y.shape)
    np.testing.assert_array_equal(y.grad, sign * w_b - 3.0)
    assert not np.shares_memory(x.grad, y.grad)


def _grad_writes(source: str) -> set[str]:
    """Dotted scopes (class, function, closure) that assign or add a value
    other than None to an attribute `.grad`."""
    found = set()

    def pairs(target, value):
        if isinstance(target, ast.Tuple):
            values = value.elts if isinstance(value, ast.Tuple) else [value] * len(target.elts)
            for t, v in zip(target.elts, values):
                yield from pairs(t, v)
        else:
            yield target, value

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, (ast.Assign, ast.AugAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                if any(isinstance(t, ast.Attribute) and t.attr == "grad"
                       and not (isinstance(v, ast.Constant) and v.value is None)
                       for target in targets for t, v in pairs(target, child.value)):
                    found.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_grad_write_finder_sees_closures_and_tuples():
    source = ("class A:\n    def f(self):\n        self.grad, b = None, 1\n"
              "def g(t):\n    def bw(x):\n        t.grad += x\n    return bw\n"
              "def h(t):\n    t.grad, t.data = 2.0, None\n")
    assert _grad_writes(source) == {"g.bw", "h"}


def test_only_accum_writes_a_gradient():
    """Backward adds into gradients only through `autodiff._accum`, whose
    buffer rule holds the tape together; the loss seed is the one other write."""
    writes = set()
    for path in Path(ad.__file__).parent.glob("*.py"):
        writes |= {f"{path.stem}.{scope}" for scope in _grad_writes(path.read_text())}
    assert sorted(writes - {"autodiff._accum", "autodiff.DArray.backward"}) == []


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


def package_op_uses(autodiff_source: str, module_sources) -> set[str]:
    """Names the package runs: the ops `DArray` forwards to, the names an
    autodiff function calls bare, and what another module names as
    `ad.<op>` or `autodiff.<op>` or imports from autodiff."""
    used = set(darray_forwarding(autodiff_source).values())
    for f in ast.parse(autodiff_source).body:
        if isinstance(f, ast.FunctionDef):
            used |= {n.func.id for n in ast.walk(f) if isinstance(n, ast.Call)
                     and isinstance(n.func, ast.Name) and n.func.id != f.name}
    for source in module_sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) in ("ad", "autodiff"):
                used.add(n.attr)
            elif isinstance(n, ast.ImportFrom) and n.module == "autodiff":
                used |= {a.name for a in n.names}
    return used


def test_every_tape_op_runs_in_the_package():
    autodiff_path = Path(ad.__file__)
    modules = [p.read_text() for p in autodiff_path.parent.glob("*.py") if p != autodiff_path]
    source = autodiff_path.read_text()
    assert sorted(tracked_ops(source) - package_op_uses(source, modules)) == []
