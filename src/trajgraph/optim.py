"""Adam optimizer over a ParamStore."""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DataError
from .nn import ParamStore


class Adam:
    """Standard Adam with bias correction; one exclusive step at a time."""

    def __init__(self, store: ParamStore, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in store.trainable_items()}
        self.v = {k: np.zeros_like(p.data) for k, p in store.trainable_items()}

    def step(self, grads: dict[str, np.ndarray]):
        missing = [k for k in self.m if k not in grads]
        if missing:
            raise ContractError(f"missing gradients for: {missing[:3]}")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in self.store.trainable_items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def state_dict(self) -> dict[str, np.ndarray]:
        out = {"opt.t": np.array([float(self.t)])}
        for k in self.m:
            out[f"opt.m.{k}"] = self.m[k].copy()
            out[f"opt.v.{k}"] = self.v[k].copy()
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]):
        """Copy in `state_dict()` output after `check_state`."""
        check_state(self.store, state)
        self.t = int(state["opt.t"][0])
        for k in self.m:
            self.m[k][...] = state[f"opt.m.{k}"]
            self.v[k][...] = state[f"opt.v.{k}"]


def check_state(store: ParamStore, state: dict[str, np.ndarray]):
    """DataError naming the first record of `state` that an `Adam` over
    `store` cannot load: missing, misshapen or non-finite, or a step count
    that is not a count."""
    expected = {"opt.t": (1,)}
    for k, p in store.trainable_items():
        expected[f"opt.m.{k}"] = expected[f"opt.v.{k}"] = p.data.shape
    for key, shape in expected.items():
        if key not in state:
            raise DataError(f"optimizer state lacks record {key}")
        if state[key].shape != shape:
            raise DataError(f"optimizer record {key} has shape {state[key].shape}, "
                            f"expected {shape}")
        if not np.isfinite(state[key]).all():
            raise DataError(f"optimizer record {key} holds a non-finite value")
    t = float(state["opt.t"][0])
    if not t.is_integer() or t < 0:
        raise DataError(f"optimizer step count {t:g} is not a count")
