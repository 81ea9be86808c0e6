"""Neural-net building blocks on top of the autodiff core.

Parameters live in a :class:`ParamStore` keyed by dotted names with
deterministic (insertion) iteration order, which is what the checkpoint
format and the optimizer rely on. Layers are thin classes that register
their parameters at construction time and stay stateless afterwards apart
from batch-norm running statistics, which are non-trainable buffers in the
same store so they persist through checkpoints.

Every MLP call is one `autodiff.mlp` tape node: per layer a 2-D GEMM,
bias, activation and optional batch norm, keeping only each layer's
post-activation array and batch statistics. Batch norm lives only there;
`BatchNorm` holds its parameters and running buffers. Batch norm takes
its statistics over every row it is given, so callers pass only the rows
that belong in them (the encoder passes the N(N-1) off-diagonal pairs,
never the self-pairs). There is one GRU: the `autodiff.gru_cell` node,
one layer step with its GEMMs and bias sums, on a `GRUStack` layer's
fused (F, 3H) weights and (3H,) biases as registered for the encoder's
edge GRU, and on those stacked per category for the decoder's.

The decoder's other layers record their math through the fused nodes
`gru_cell`, `category_map`, and for its attention over qualifying edges
one `graph_attention` node per step. `linear` stays a `matmul` node plus
a bias add.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import DArray
from .errors import ContractError, NumericalError, ShapeError
from .rng import RngStream

Activation = str | None


class ParamStore:
    """Named map from dotted keys to DArrays; insertion order is stable."""

    def __init__(self):
        self._items: dict[str, DArray] = {}

    def add(self, name: str, value: np.ndarray, trainable: bool = True) -> DArray:
        if name in self._items:
            raise ContractError(f"duplicate parameter name: {name}")
        self._items[name] = DArray(value, requires_grad=trainable)
        return self._items[name]

    def __getitem__(self, name: str) -> DArray:
        return self._items[name]

    def keys(self):
        return self._items.keys()

    def items(self):
        return self._items.items()

    def trainable_items(self):
        return ((k, v) for k, v in self._items.items() if v.requires_grad)

    def zero_grad(self):
        for v in self._items.values():
            v.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self._items.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]):
        """Restore values in place so existing layer references stay valid."""
        for k, v in self._items.items():
            if k not in state:
                raise ContractError(f"checkpoint missing parameter: {k}")
            src = np.asarray(state[k], dtype=np.float64)
            if src.shape != v.data.shape:
                raise ShapeError(
                    f"parameter {k}: checkpoint shape {src.shape} != {v.data.shape}"
                )
            v.data[...] = src


def gradients(loss: DArray, store: ParamStore) -> dict[str, np.ndarray]:
    """Run backward from a scalar loss and collect per-parameter gradients.

    Parameters that did not contribute to the loss get zero gradients. The
    store's grad buffers are cleared afterwards, also when backward raises,
    so each optimizer step sees exactly one backward pass. Raises
    NumericalError naming the first parameter, in store order, whose
    gradient is not finite.
    """
    try:
        loss.backward()
        out = {name: p.grad if p.grad is not None else np.zeros_like(p.data)
               for name, p in store.trainable_items()}
    finally:
        store.zero_grad()
    for name, g in out.items():
        if not np.isfinite(g).all():
            raise NumericalError(f"gradient of parameter {name} became non-finite; "
                                 "try a lower learning rate or weaker coupling")
    return out


def _uniform_init(rng: RngStream, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def linear(x: DArray, w: DArray, b: DArray | None = None) -> DArray:
    """x @ w (+ b) over the last axis, flattened to a single 2D GEMM.

    Keeping the matmul two-dimensional keeps the weight gradient a plain
    a.T @ g instead of a batched stack that must be reduced afterwards.
    """
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: input last dim {x.shape[-1]} != {w.shape[0]}")
    lead = x.shape[:-1]
    x2 = x if x.ndim == 2 else x.reshape(-1, x.shape[-1])
    out = x2 @ w
    if b is not None:
        out = out + b
    return out if x.ndim == 2 else out.reshape(lead + (w.shape[-1],))


class Affine:
    """The parameters of y = x @ W + b over the last axis: registers the
    (n_in, n_out) weight W and the (n_out,) bias b."""

    def __init__(self, store: ParamStore, name: str, n_in: int, n_out: int, rng: RngStream):
        self.W = store.add(f"{name}.W", _uniform_init(rng, (n_in, n_out), n_in))
        self.b = store.add(f"{name}.b", _uniform_init(rng, (n_out,), n_in))


class BatchNorm:
    """The parameters of one batch-norm layer: gamma and beta, and the
    non-trainable running buffers run_mean and run_var. `autodiff.mlp`
    normalizes with them."""

    eps = 1e-5

    def __init__(self, store: ParamStore, name: str, n_features: int):
        self.gamma = store.add(f"{name}.gamma", np.ones(n_features))
        self.beta = store.add(f"{name}.beta", np.zeros(n_features))
        self.run_mean = store.add(f"{name}.run_mean", np.zeros(n_features), trainable=False)
        self.run_var = store.add(f"{name}.run_var", np.ones(n_features), trainable=False)


class MLP:
    """Multi-layer perceptron registered under a ParamStore prefix.

    Each (width, activation, normalize) triple of `layer_spec` is one
    layer: affine -> activation -> batch norm when normalize is set, with
    the activation one of `autodiff.ACTIVATIONS`. `layers` holds each
    layer's (W, b, activation, BatchNorm or None), as `autodiff.mlp` takes
    them. Batch norm uses the batch statistics and advances its running
    buffers in train mode, and uses the running buffers in eval mode.
    """

    def __init__(self, store: ParamStore, prefix: str, n_in: int,
                 layer_spec: list[tuple[int, Activation, bool]], rng: RngStream):
        self.prefix = prefix
        self.layers = []
        d = n_in
        for i, (width, act, norm) in enumerate(layer_spec):
            if act not in ad.ACTIVATIONS:
                raise ContractError(f"mlp {prefix}: unknown activation {act!r}")
            affine = Affine(store, f"{prefix}.{i}", d, width, rng)
            bn = BatchNorm(store, f"{prefix}.{i}.bn", width) if norm else None
            self.layers.append((affine.W, affine.b, act, bn))
            d = width

    def __call__(self, x: DArray, train: bool = True) -> DArray:
        n_in = self.layers[0][0].shape[0]
        if x.shape[-1] != n_in:
            raise ShapeError(f"mlp {self.prefix}: input last dim {x.shape[-1]} != {n_in}")
        return ad.mlp(x, self.layers, train)


class GRUStack:
    """Stacked GRU layers under `{prefix}.l{i}`; layer i feeds its new
    hidden state to layer i+1. `params[i]` holds layer i's fused
    (W_ih, W_hh, b_ih, b_hh) with gate blocks (reset, update, candidate),
    as `autodiff.gru_cell` takes them."""

    def __init__(self, store: ParamStore, prefix: str, n_in: int, n_hidden: int,
                 n_layers: int, rng: RngStream):
        self.n_hidden = n_hidden
        self.params = []
        d = n_in
        for i in range(n_layers):
            p = f"{prefix}.l{i}"
            self.params.append((
                store.add(f"{p}.W_ih", _uniform_init(rng, (d, 3 * n_hidden), d)),
                store.add(f"{p}.W_hh", _uniform_init(rng, (n_hidden, 3 * n_hidden), n_hidden)),
                store.add(f"{p}.b_ih", _uniform_init(rng, (3 * n_hidden,), d)),
                store.add(f"{p}.b_hh", _uniform_init(rng, (3 * n_hidden,), n_hidden)),
            ))
            d = n_hidden

    def init_state(self, lead_shape: tuple) -> list[DArray]:
        return [DArray(np.zeros(lead_shape + (self.n_hidden,))) for _ in self.params]

    def __call__(self, x: DArray, state: list[DArray]) -> tuple[DArray, list[DArray]]:
        new_state = []
        for params, h in zip(self.params, state):
            x = ad.gru_cell(x, h, *params)
            new_state.append(x)
        return x, new_state

