"""Seeded, splittable random streams.

Every stochastic component draws from an :class:`RngStream` identified by a
root seed plus a tuple of stream indices. Identical (seed, stream) pairs
always produce identical draw sequences, which is what makes training runs
and evaluation reports bit-reproducible. Child streams derived with
different index tuples are statistically independent (PCG64 seeded through
``SeedSequence``), so no draw depends on the order streams are used in; a
:class:`StackedStream` lets K samples share one batch, each on its own stream.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError

# Fixed top-level stream indices, one per subsystem, so that consumers never
# collide even when they draw in interleaved order.
STREAM_INIT = 0
STREAM_TRAIN = 1
STREAM_EVAL = 2
STREAM_DATA = 3
STREAM_THEORY = 4


def check_seed(seed: int, what: str):
    """ConfigError naming a negative seed, which no `RngStream` accepts."""
    if seed < 0:
        raise ConfigError(f"{what} must be a non-negative integer, got {seed}")


class RngStream:
    """A deterministic random stream addressed by (seed, stream indices)."""

    copies = 1   # draws for one copy of the batch rows (see StackedStream)

    def __init__(self, seed: int, stream: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.stream = tuple(int(s) for s in stream)
        self._gen = np.random.default_rng((self.seed,) + self.stream)

    def child(self, *indices: int) -> "RngStream":
        """Derive an independent stream; never advances this stream."""
        return RngStream(self.seed, self.stream + tuple(indices))

    # Draw helpers. All return float64 / int64 arrays.
    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size=size)

    def normal(self, loc=0.0, scale=1.0, size=None) -> np.ndarray:
        return self._gen.normal(loc, scale, size=size)

    def integers(self, low, high=None, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def beta(self, a: float, b: float) -> float:
        return float(self._gen.beta(a, b))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def logistic(self, size=None) -> np.ndarray:
        """ln(u) - ln(1-u) with u ~ Uniform(0,1); the binary-concrete noise."""
        u = self._gen.uniform(0.0, 1.0, size=size)
        # u in (0,1) open interval: uniform() can return 0.0 but not 1.0.
        u = np.clip(u, np.finfo(np.float64).tiny, 1.0 - np.finfo(np.float64).epsneg)
        return np.log(u) - np.log1p(-u)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"


class StackedStream:
    """K member streams acting as one over a k-major batch axis: a draw of
    leading size K*B is the members' (B, ...) draws concatenated, so row
    k*B + b gets what member k alone draws at row b. It has only the draws
    `TrajectoryModel.predict_batch` makes.

    The member count is the copy count (`copies`): `predict_batch` given B
    scenes and this stream decodes K copies of them, copy k on member k.
    """

    def __init__(self, streams: list[RngStream]):
        if not streams:
            raise ContractError("a stacked stream needs at least one member")
        self.streams = list(streams)

    @property
    def copies(self) -> int:
        return len(self.streams)

    def child(self, *indices: int) -> "StackedStream":
        return StackedStream([s.child(*indices) for s in self.streams])

    def _stacked(self, draw, size) -> np.ndarray:
        k = len(self.streams)
        if size is None or size[0] % k:
            raise ContractError(f"draw size {size} does not split over {k} streams")
        member = (size[0] // k,) + tuple(size[1:])
        return np.concatenate([draw(s, member) for s in self.streams])

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return self._stacked(lambda s, m: s.uniform(low, high, m), size)

    def normal(self, loc=0.0, scale=1.0, size=None) -> np.ndarray:
        return self._stacked(lambda s, m: s.normal(loc, scale, m), size)

    def logistic(self, size=None) -> np.ndarray:
        return self._stacked(lambda s, m: s.logistic(m), size)
