"""Evaluation and analysis: displacement errors over stochastic samples,
graph statistics, edge-quality audits, graph-selection heuristics, and the
Monte-Carlo verifier for the recursive error bounds.

Displacement metrics are reported in denormalized (source) units. All
sampling is reproducible: every (scene group, sample) pair draws from its
own derived stream, so batching the samples of a group together cannot
change any number beyond the reordering of floating-point sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import DArray
from .data import Normalizer, Scene
from .encoder import InteractionGraphSample, fan_out
from .errors import ConfigError, ContractError, DataError
from .graph_complexity import degree_entropy, graph_entropy, r_density
from .model import TrajectoryModel
from .rng import STREAM_EVAL, STREAM_THEORY, RngStream, check_seed

SIGNIFICANCE = 0.05   # level of the edge audit's one-sided Mann-Whitney U tests


def ade_fde(truth: np.ndarray, pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-agent average and final displacement error over (N, T_f, 2);
    `pred` may carry leading sample axes, over which `truth` broadcasts."""
    if truth.shape != pred.shape[pred.ndim - truth.ndim:]:
        raise ContractError(f"shape mismatch: {truth.shape} vs {pred.shape}")
    dist = np.linalg.norm(truth - pred, axis=-1)      # (..., N, T_f)
    return dist.mean(axis=-1), dist[..., -1]


@dataclass
class MetricsRecord:
    min_ade: float
    min_fde: float
    mean_ade: float
    mean_fde: float
    avg_entropy: float
    avg_density: float
    per_category: dict[int, dict[str, float]] = field(default_factory=dict)
    n_scenes: int = 0
    n_samples: int = 0


def eval_rollouts(model: TrajectoryModel, scenes: list[Scene], n_samples: int,
                  seed: int, sample_mode: str = "sample",
                  ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """`TrajectoryModel.sample_scenes` with the evaluation streams: sample k
    of an N-agent scene redraws relations, edge features and head noise
    from stream (STREAM_EVAL, N, k) of `seed`."""
    if n_samples < 1:
        raise ConfigError("need at least one evaluation sample")
    check_seed(seed, "seed")
    if not scenes:
        raise DataError("no scenes to evaluate")
    root = RngStream(seed).child(STREAM_EVAL)
    return model.sample_scenes(
        scenes, lambda n, _: [root.child(n, k) for k in range(n_samples)],
        sample_mode=sample_mode)


def rollout_metrics(scenes: list[Scene], rollouts: list[np.ndarray],
                    graphs: list[np.ndarray], normalizer: Normalizer,
                    t_history: int) -> MetricsRecord:
    """Min/mean ADE and FDE and graph statistics of `eval_rollouts` output.

    The minimum and mean are taken over samples of the scene-level
    (agent-averaged) errors, then averaged over scenes.
    """
    scene_ade, scene_fde, graph_stats = [], [], []
    cat_acc: dict[int, dict[str, list]] = {}
    for scene, out, z in zip(scenes, rollouts, graphs):
        ades, fdes = ade_fde(normalizer.denormalize(scene.positions[:, t_history:]),
                             normalizer.denormalize(out[:, :, t_history:]))   # (K, N)
        stats = np.stack([graph_entropy(z), r_density(z)], axis=-1)         # (K, W, 2)
        graph_stats.append(stats.mean(axis=1).mean(axis=0))
        scene_ade.append(ades.mean(axis=1))
        scene_fde.append(fdes.mean(axis=1))
        for c in np.unique(scene.categories):
            acc = cat_acc.setdefault(int(c), {"min_ade": [], "mean_ade": [],
                                              "min_fde": [], "mean_fde": []})
            for name, errs in (("ade", ades), ("fde", fdes)):
                per_sample = errs[:, scene.categories == c].mean(axis=1)
                acc["min_" + name].append(per_sample.min())
                acc["mean_" + name].append(per_sample.mean())

    scene_ade, scene_fde = np.array(scene_ade), np.array(scene_fde)   # (S, K)
    avg_entropy, avg_density = np.array(graph_stats).mean(axis=0)
    per_category = {c: {key: float(np.mean(v)) for key, v in acc.items()}
                    for c, acc in sorted(cat_acc.items())}
    return MetricsRecord(
        min_ade=float(scene_ade.min(axis=1).mean()),
        min_fde=float(scene_fde.min(axis=1).mean()),
        mean_ade=float(scene_ade.mean(axis=1).mean()),
        mean_fde=float(scene_fde.mean(axis=1).mean()),
        avg_entropy=float(avg_entropy),
        avg_density=float(avg_density),
        per_category=per_category,
        n_scenes=len(scene_ade), n_samples=scene_ade.shape[1])


def sampled_metrics(model: TrajectoryModel, scenes: list[Scene],
                    normalizer: Normalizer, n_samples: int,
                    seed: int, threads: int = 1,
                    sample_mode: str = "sample") -> MetricsRecord:
    """`rollout_metrics` of `eval_rollouts`; `threads` is accepted and ignored."""
    rollouts, graphs = eval_rollouts(model, scenes, n_samples, seed, sample_mode)
    return rollout_metrics(scenes, rollouts, graphs, normalizer,
                           model.cfg.t_history)


METRICS_HEADER = ("dataset,strategy,gamma,min_ade,min_fde,mean_ade,mean_fde,"
                  "avg_entropy,avg_density")
CATEGORY_HEADER = ("dataset,strategy,gamma,category,min_ade,min_fde,"
                   "mean_ade,mean_fde")


def metrics_csv_rows(record: MetricsRecord, dataset: str, strategy: str,
                     gamma: float) -> tuple[str, list[str]]:
    main = ",".join([dataset, strategy, repr(float(gamma)),
                     repr(record.min_ade), repr(record.min_fde),
                     repr(record.mean_ade), repr(record.mean_fde),
                     repr(record.avg_entropy), repr(record.avg_density)])
    cats = []
    for c, vals in record.per_category.items():
        cats.append(",".join([dataset, strategy, repr(float(gamma)), str(c),
                              repr(vals["min_ade"]), repr(vals["min_fde"]),
                              repr(vals["mean_ade"]), repr(vals["mean_fde"])]))
    return main, cats


# ------------------------------------------------------------ graph quality

class ModelGraphProbe:
    """Adapter giving the quality audit a fixed-graph view of the model.

    Graphs are inferred once per scene as MAP graphs (`EncoderRun.step`'s
    "map" mode: thresholded relations, noise-free edge features), so
    edited copies differ from the baseline only in the edited relation.
    Only window 0's graph is a function of the observed history alone:
    later windows are embedded from the free run's predictions, which
    carry the head noise of `rng`, so their MAP graphs still depend on
    that stream.
    """

    def __init__(self, model: TrajectoryModel, n_rollouts: int):
        self.model = model
        self.n_rollouts = n_rollouts

    def infer_graphs(self, scene: Scene, rng: RngStream) -> list[InteractionGraphSample]:
        return self.model.predict_batch(scene.positions[None], scene.categories[None],
                                        rng, sample_mode="map")[1]

    def rollout_ades(self, scene: Scene, graphs: list[InteractionGraphSample],
                     rng: RngStream) -> np.ndarray:
        """Mean ADE of each of n_rollouts noisy rollouts under fixed graphs."""
        k = self.n_rollouts
        pos = np.repeat(scene.positions[None], k, axis=0)
        cats = np.repeat(scene.categories[None], k, axis=0)
        tiled = [InteractionGraphSample(fan_out(g.z, k), fan_out(g.edge_feats, k))
                 for g in graphs]
        with ad.no_grad():
            preds = self.model.rollout(pos, cats, tiled, rng, input_mode="free_run")
        t_hist = self.model.cfg.t_history
        err = np.linalg.norm(preds.data[:, :, t_hist:] - pos[:, :, t_hist:], axis=-1)
        return err.mean(axis=(1, 2))   # (K,)


def _edit_graphs(graphs: list[InteractionGraphSample], i: int, j: int,
                 value: float) -> list[InteractionGraphSample]:
    out = []
    for g in graphs:
        z = g.z.data.copy()
        z[:, i, j] = value
        out.append(InteractionGraphSample(DArray(z), g.edge_feats))
    return out


@dataclass
class GraphQualityReport:
    n_edges: int            # E: inferred directed edges (in any window)
    n_redundant: int        # E1
    n_missing: int          # E2
    n_scenes: int
    n_skipped: int          # scenes with no inferred edge

    @property
    def denominator(self) -> int:
        return self.n_edges - self.n_redundant + self.n_missing

    @property
    def redundant_rate(self) -> float:
        d = self.denominator
        return self.n_redundant / d if d > 0 else math.inf if self.n_redundant else 0.0

    @property
    def missing_rate(self) -> float:
        d = self.denominator
        return self.n_missing / d if d > 0 else math.inf if self.n_missing else 0.0


def graph_quality(probe, scenes: list[Scene], seed: int) -> GraphQualityReport:
    """Edge necessity/sufficiency audit via removal and addition probes.

    An inferred edge is redundant when removing it (from every window)
    does not significantly increase the rollout error distribution; an
    absent edge is missing when adding it significantly decreases it.
    One-sided Mann-Whitney U at level `SIGNIFICANCE`.
    """
    from scipy import stats as sps   # here, so importing the CLI skips scipy.stats
    root = RngStream(seed).child(STREAM_EVAL, 777)
    e_total = e1 = e2 = skipped = 0
    for si, scene in enumerate(scenes):
        rng = root.child(si)
        graphs = probe.infer_graphs(scene, rng.child(0))
        n = scene.n_agents
        present = np.zeros((n, n), dtype=bool)
        for g in graphs:
            present |= g.z.data[0] > 0.5
        np.fill_diagonal(present, False)
        if not present.any():
            skipped += 1
            continue
        base = probe.rollout_ades(scene, graphs, rng.child(1))
        # the off-diagonal pairs in row-major order, on streams 3, 4, ...
        for pair_idx, (i, j) in enumerate(np.argwhere(~np.eye(n, dtype=bool)), start=3):
            edge = bool(present[i, j])   # probe by removing it, else by adding it
            edited = _edit_graphs(graphs, i, j, 0.0 if edge else 1.0)
            errs = probe.rollout_ades(scene, edited, rng.child(pair_idx))
            p = sps.mannwhitneyu(errs, base, alternative="greater" if edge else "less").pvalue
            if edge:
                e_total += 1
                e1 += int(p >= SIGNIFICANCE)     # no significant increase
            else:
                e2 += int(p < SIGNIFICANCE)      # significant decrease
    return GraphQualityReport(n_edges=e_total, n_redundant=e1, n_missing=e2,
                              n_scenes=len(scenes), n_skipped=skipped)


# --------------------------------------------------------- graph selection

def select_graph(probs: np.ndarray, previous: np.ndarray | None = None,
                 theta_low: float = 0.2, theta_high: float = 0.8,
                 heuristic: str = "entropy") -> np.ndarray:
    """Pick a hard graph from edge probabilities.

    Edges with p < theta_low are excluded and p > theta_high included. The
    "similarity" heuristic completes the uncertain rest by l1-similarity
    to the previous window's graph; "entropy" returns a minimum-entropy
    completion, exact for any number of uncertain edges.

    Entropy depends only on the in-degrees d, and column j's in-degree
    ranges over [L_j, U_j] (its certain edges; those plus its uncertain
    ones) independently of the other columns. Off d = 0 entropy is
    quasi-concave in d: d / sum(d) of a mix of two vectors is a mix of
    their normalized vectors, and entropy is concave on the simplex. So
    its minimum over the box lies at a corner (d = 0, of entropy 0, is a
    corner whenever the box holds it): each column takes none or all of
    its uncertain edges. `_min_entropy_corner` scores all 2^k corners, k
    the number of columns holding an uncertain edge; the cost grows with
    k, not with the number of uncertain edges.
    """
    probs = np.asarray(probs, dtype=np.float64)
    n = probs.shape[0]
    if not ((probs >= 0) & (probs <= 1)).all():
        raise ContractError("probabilities must lie in [0, 1]")
    offdiag = ~np.eye(n, dtype=bool)
    certain = (probs > theta_high) & offdiag
    uncertain = (probs >= theta_low) & (probs <= theta_high) & offdiag
    if not uncertain.any():
        return certain.astype(np.float64)

    if heuristic == "similarity":
        if previous is None:
            raise ContractError("similarity heuristic needs the previous graph")
        # l1 distance decomposes per edge: copy the previous decision
        return (certain | uncertain & (np.asarray(previous) > 0.5)).astype(np.float64)
    if heuristic != "entropy":
        raise ConfigError(f"unknown selection heuristic: {heuristic}")
    low = certain.sum(axis=0)
    full = _min_entropy_corner(low, low + uncertain.sum(axis=0))
    return (certain | uncertain & full).astype(np.float64)


def _min_entropy_corner(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """The (N,) mask of the columns at their upper bound in the corner of
    the in-degree box [low, high] with the least `degree_entropy`."""
    free = np.flatnonzero(high > low)
    best, best_h = np.zeros(len(low), dtype=bool), math.inf
    for start in range(0, 1 << len(free), 1 << 16):      # in chunks of 2^16 corners
        corner = np.arange(start, min(start + (1 << 16), 1 << len(free)))
        up = np.zeros((len(corner), len(low)), dtype=bool)
        up[:, free] = corner[:, None] >> np.arange(len(free)) & 1
        h = degree_entropy(np.where(up, high, low).astype(np.float64))
        i = int(np.argmin(h))
        if h[i] < best_h:
            best, best_h = up[i], h[i]
    return best


# -------------------------------------------------- recursive error bounds

@dataclass
class BoundScenario:
    lipschitz: float     # L_f
    eps: float           # single-step error bound
    horizon: int         # n
    gap: float           # initial deviation norm

    def __post_init__(self):
        if self.lipschitz <= 0 or self.eps < 0 or self.horizon < 1 or self.gap < 0:
            raise ContractError("invalid bound scenario")


def _geometric_factor(lipschitz: float, n: int) -> float:
    if abs(lipschitz - 1.0) < 1e-12:
        return float(n)
    return (lipschitz ** n - 1.0) / (lipschitz - 1.0)


def theorem_bounds(s: BoundScenario) -> tuple[float, float, float]:
    """Upper bounds for (free-run, mixed-start expected, imitation expected)
    n-step deviations of a Lipschitz recursive predictor."""
    ln = s.lipschitz ** s.horizon
    geo = _geometric_factor(s.lipschitz, s.horizon) * s.eps
    b1 = ln * s.gap + geo
    b2 = 0.5 * ln * s.gap + geo
    b3 = 0.5 * ln * s.gap
    return b1, b2, b3


@dataclass
class BoundsReport:
    trials: int
    violations_pathwise: int
    violations_mixed: int
    violations_imitation: int
    violations_ordering: int

    @property
    def passed(self) -> bool:
        return (self.violations_pathwise == 0 and self.violations_mixed == 0
                and self.violations_imitation == 0 and self.violations_ordering == 0)


def verify_bounds(seed: int, trials: int, dim: int = 4,
                  lam_samples: int = 200, tol: float = 1e-9) -> BoundsReport:
    """Monte-Carlo check of the recursive error bounds on affine systems.

    The learned map f(x) = A x + b has operator norm ||A|| as its exact
    Lipschitz constant; the ground-truth trajectory follows f plus a
    disturbance of norm <= eps, so the single-step error bound holds by
    construction. The pathwise bound must never fail; the two expectation
    bounds are checked against the lambda-sample mean plus 3-sigma slack.
    """
    root = RngStream(seed).child(STREAM_THEORY)
    v1 = v2 = v3 = v_ord = 0
    alphas = np.array([0.5, 1.0, 2.0, 10.0])
    for t in range(trials):
        rng = root.child(t)
        lip = float(rng.uniform(0.3, 2.0))
        a = rng.normal(size=(dim, dim))
        a *= lip / np.linalg.svd(a, compute_uv=False)[0]
        b = rng.normal(size=dim)
        eps = float(rng.uniform(0.0, 0.2))
        gap = float(rng.uniform(0.0, 1.0))
        horizon = int(rng.integers(1, 9))
        alpha = float(alphas[rng.integers(0, len(alphas))])

        x_true = rng.normal(size=dim)
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        x_hat = x_true + gap * direction

        # ground truth: learned map plus bounded disturbance
        truth = [x_true]
        for j in range(horizon):
            d = rng.normal(size=dim)
            d *= float(rng.uniform(0.0, 1.0)) * eps / np.linalg.norm(d)
            truth.append(a @ truth[-1] + b + d)

        y = x_hat.copy()
        for j in range(horizon):
            y = a @ y + b
        b1, b2, b3 = theorem_bounds(BoundScenario(lip, eps, horizon, gap))
        if not (b3 <= b2 + tol and b2 <= b1 + tol):
            v_ord += 1
        if np.linalg.norm(y - truth[-1]) > b1 * (1 + 1e-12) + tol:
            v1 += 1

        lams = np.array([rng.beta(alpha, alpha) for _ in range(lam_samples)])
        mixed = lams[:, None] * x_hat + (1 - lams[:, None]) * x_true  # (m, dim)
        z = mixed.copy()
        for j in range(horizon):
            z = z @ a.T + b
        dev_mixed = np.linalg.norm(z - truth[-1], axis=1)
        dev_imit = np.linalg.norm(z - y, axis=1)
        for dev, bound, count in ((dev_mixed, b2, 2), (dev_imit, b3, 3)):
            mean = dev.mean()
            se = dev.std(ddof=1) / math.sqrt(lam_samples)
            if mean > bound + 3 * se + tol:
                if count == 2:
                    v2 += 1
                else:
                    v3 += 1
    return BoundsReport(trials=trials, violations_pathwise=v1,
                        violations_mixed=v2, violations_imitation=v3,
                        violations_ordering=v_ord)
