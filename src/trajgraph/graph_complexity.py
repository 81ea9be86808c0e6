"""Graph-entropy machinery: the normalized in-degree entropy, its
closed-form minimizer, majorization utilities behind the proofs, and the
competing sparsity penalties.

Every graph statistic has one body, written in autodiff ops over batched
(..., N, N) graphs, and the entropy is a function of the in-degree vector
alone (`degree_entropy`). A DArray of relaxed edge weights (training)
stays differentiable, with a clamped log so gradients stay finite when a
relaxed degree underflows. A plain ndarray (hard graphs in reports) runs
the same ops as an untracked constant and comes back as a plain value.
Edge convention throughout: Z[i, j] is the weight of the directed edge
i -> j, so in-degrees are column sums.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import autodiff as ad
from .autodiff import DArray
from .errors import ContractError
from .rng import RngStream

LOG_FLOOR = 1e-12


def _check_square(z):
    if z.ndim < 2 or z.shape[-1] != z.shape[-2]:
        raise ContractError(f"adjacency must be square, got {z.shape}")
    if z.shape[-1] < 2:
        raise ContractError("graph entropy needs at least 2 nodes")


def _also_plain(fn):
    """Let `fn`, written in autodiff ops, take a plain array too: it runs on
    an untracked constant and returns the value, a float when 0-d."""
    @functools.wraps(fn)
    def wrapped(x):
        if isinstance(x, DArray):
            return fn(x)
        out = fn(DArray(x)).data
        return float(out) if out.ndim == 0 else out
    return wrapped


@_also_plain
def degree_entropy(d: DArray) -> DArray:
    """Normalized Shannon entropy of (..., N) in-degree vectors, in [0, 1].

    Exactly 0 without edge mass and exactly 1 when all in-degrees are
    equal; such rows pass no gradient, and only they add tape nodes.
    Degrees below LOG_FLOOR hit a clamped log, which only affects
    essentially-empty columns.
    """
    n = d.shape[-1]
    if n < 2:
        raise ContractError("graph entropy needs at least 2 nodes")
    total = d.sum(axis=-1, keepdims=True)
    p = d / ad.clamp_min(total, LOG_FLOOR)
    h = -(p * ad.log(ad.clamp_min(p, LOG_FLOOR))).sum(axis=-1) / math.log(n)
    empty = total.data[..., 0] == 0
    uniform = ~empty & (d.data == d.data[..., :1]).all(axis=-1)
    if empty.any() or uniform.any():
        h = h * ~(empty | uniform) + uniform
    return h


def graph_entropy(z) -> float | np.ndarray | DArray:
    """`degree_entropy` of (..., N, N) graphs: one value per leading index.
    A plain array must be nonnegative with a zero diagonal."""
    if not isinstance(z, DArray):
        z = np.asarray(z, dtype=np.float64)
        if (z < 0).any():
            raise ContractError("adjacency entries must be nonnegative")
        if np.abs(np.diagonal(z, axis1=-2, axis2=-1)).max(initial=0.0) != 0:
            raise ContractError("adjacency diagonal must be zero")
    _check_square(z)
    return degree_entropy(z.sum(axis=-2))


def min_graph_entropy(n_nodes: int, n_edges: int) -> float:
    """Closed-form minimum of the normalized entropy for (N, |E|) graphs.

    With |E| = k(N-1) + e and 0 <= e < N-1, the minimizing in-degree
    profile is k full columns of N-1, one column of e, and zeros, giving
    [k(N-1)/|E| * ln(|E|/(N-1)) - (e/|E|) * ln(e/|E|)] / ln N; zero
    whenever |E| <= N-1.
    """
    if n_nodes < 2:
        raise ContractError("need at least 2 nodes")
    if not 0 <= n_edges <= n_nodes * (n_nodes - 1):
        raise ContractError(f"edge count {n_edges} out of range for N={n_nodes}")
    if n_edges <= n_nodes - 1:
        return 0.0
    k, e = divmod(n_edges, n_nodes - 1)
    value = k * (n_nodes - 1) / n_edges * math.log(n_edges / (n_nodes - 1))
    if e > 0:
        value -= (e / n_edges) * math.log(e / n_edges)
    return value / math.log(n_nodes)


def min_entropy_degree_profile(n_nodes: int, n_edges: int) -> np.ndarray:
    """The in-degree vector attaining the entropy minimum (descending)."""
    k, e = divmod(n_edges, n_nodes - 1)
    profile = [n_nodes - 1] * k
    if e > 0:
        profile.append(e)
    profile += [0] * (n_nodes - len(profile))
    return np.array(profile[:n_nodes], dtype=np.float64)


def majorizes(x, y, sum_tol: float = 1e-9, cmp_tol: float = 1e-12) -> bool:
    """True iff every descending prefix sum of x dominates that of y."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ContractError("majorization needs equal-length vectors")
    if abs(x.sum() - y.sum()) > sum_tol:
        raise ContractError("majorization requires equal sums")
    xs = np.sort(x)[::-1]
    ys = np.sort(y)[::-1]
    return bool((np.cumsum(xs)[:-1] >= np.cumsum(ys)[:-1] - cmp_tol).all())


def entropy_sum(x) -> float:
    """Sum of the entropy function phi(u) = -u ln u with phi(0) = 0."""
    x = np.asarray(x, dtype=np.float64)
    pos = x[x > 0]
    return float(-(pos * np.log(pos)).sum())


def verify_hlp(x, y, tol: float = 1e-12) -> bool:
    """Check the concave-sum inequality for a majorizing pair x > y."""
    if not majorizes(x, y):
        raise ContractError("verify_hlp requires x to majorize y")
    return entropy_sum(x) <= entropy_sum(y) + tol


def random_majorizing_pair(rng: RngStream, n: int,
                           n_transfers: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Draw x on the simplex and build y < x by Robin-Hood transfers.

    Each transfer moves mass from a larger coordinate to a smaller one
    without letting them cross, which preserves the sum and can only
    spread the vector out, i.e. x majorizes the result.
    """
    x = rng.uniform(size=n)
    x = x / x.sum()
    y = x.copy()
    for _ in range(n_transfers):
        i, j = rng.integers(0, n, size=2)
        if y[i] == y[j]:
            continue
        if y[i] < y[j]:
            i, j = j, i
        delta = 0.5 * rng.uniform() * (y[i] - y[j])
        y[i] -= delta
        y[j] += delta
    return x, y


@_also_plain
def r_density(z: DArray) -> DArray:
    """Mean off-diagonal edge weight: |E| / (N (N - 1))."""
    _check_square(z)
    n = z.shape[-1]
    return z.sum(axis=(-2, -1)) / float(n * (n - 1))


@_also_plain
def r_degree(z: DArray) -> DArray:
    """Maximum in-degree over N; max ties break toward the lowest node."""
    _check_square(z)
    return ad.reduce_max(z.sum(axis=-2), axis=-1) / float(z.shape[-1])


PENALTIES = {
    "entropy": graph_entropy,
    "density": r_density,
    "degree": r_degree,
}


def regularized_loss(recon_loss: DArray, graphs: list[DArray], gamma: float,
                     penalty: str) -> DArray:
    """recon + (gamma / M) * sum over windows of the chosen penalty.

    Each graph may carry leading batch dims; the penalty is averaged over
    them. gamma = 0 returns the reconstruction loss object unchanged.
    """
    if gamma < 0:
        raise ContractError("gamma must be nonnegative")
    if gamma == 0.0 or not graphs:
        return recon_loss
    if penalty not in PENALTIES:
        raise ContractError(f"unknown penalty kind: {penalty}")
    fn = PENALTIES[penalty]
    total = None
    for z in graphs:
        term = fn(z)
        if term.ndim > 0:
            term = term.mean()
        total = term if total is None else total + term
    return recon_loss + (gamma / len(graphs)) * total
