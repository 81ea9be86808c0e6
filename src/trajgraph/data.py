"""Scene representation, normalization, time windowing, CSV I/O, and a
synthetic heterogeneous multi-agent generator.

A scene is one episode: N agents with fixed categories observed on a shared
dense time axis of T_h + T_f steps. Model-facing coordinates are min-max
normalized to [-1, 1]; the :class:`Normalizer` carries the source-unit
bounds so predictions can be reported in original units.

The generator simulates damped spring-like dynamics on a random directed
ground-truth graph, with per-category-pair coupling strengths and
per-category damping, so heterogeneous modules have real signal to learn.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import atomic_open
from .errors import ConfigError, ContractError, DataError, GenerationError
from .rng import STREAM_DATA, RngStream

CSV_HEADER = ["scene_id", "agent_id", "category", "t", "x", "y"]


@dataclass
class Scene:
    """One multi-agent episode on a dense, shared time grid."""

    scene_id: str
    categories: np.ndarray          # (N,) int64, values in [0, C)
    positions: np.ndarray           # (N, T, 2) float64
    truth_graph: np.ndarray | None = None   # (N, N) {0,1}, synthetic only

    def __post_init__(self):
        self.categories = np.asarray(self.categories, dtype=np.int64)
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 3 or self.positions.shape[2] != 2:
            raise DataError(f"scene {self.scene_id}: positions must be (N, T, 2)")
        if self.n_agents < 2:
            raise DataError(f"scene {self.scene_id}: need at least 2 agents")
        if self.categories.shape != (self.n_agents,):
            raise DataError(f"scene {self.scene_id}: categories/positions mismatch")
        if self.truth_graph is not None:
            self.truth_graph = np.asarray(self.truth_graph, dtype=np.int64)

    @property
    def n_agents(self) -> int:
        return self.positions.shape[0]

    @property
    def n_steps(self) -> int:
        return self.positions.shape[1]

    def permuted(self, perm: np.ndarray) -> "Scene":
        """Relabel agents; used by the equivariance oracles."""
        tg = None if self.truth_graph is None else self.truth_graph[np.ix_(perm, perm)]
        return Scene(self.scene_id, self.categories[perm], self.positions[perm], tg)


@dataclass
class Normalizer:
    """Per-axis min-max bounds mapping source units onto [-1, 1]."""

    min_x: float
    max_x: float
    min_y: float
    max_y: float

    def __post_init__(self):
        if not (self.max_x > self.min_x and self.max_y > self.min_y):
            raise ConfigError("normalizer bounds must satisfy max > min per axis")

    @classmethod
    def fit(cls, positions_list: list[np.ndarray]) -> "Normalizer":
        allpos = np.concatenate([p.reshape(-1, 2) for p in positions_list], axis=0)
        return cls(
            float(allpos[:, 0].min()), float(allpos[:, 0].max()),
            float(allpos[:, 1].min()), float(allpos[:, 1].max()),
        )

    def _bounds(self):
        lo = np.array([self.min_x, self.min_y])
        hi = np.array([self.max_x, self.max_y])
        return lo, hi

    def normalize(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        lo, hi = self._bounds()
        if points.size:
            flat = points.reshape(-1, 2)
            if (flat.min(axis=0) < lo - 1e-12).any() or (flat.max(axis=0) > hi + 1e-12).any():
                raise DataError("points fall outside the normalizer bounds")
        return 2.0 * (points - lo) / (hi - lo) - 1.0

    def denormalize(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        lo, hi = self._bounds()
        return (points + 1.0) * (hi - lo) / 2.0 + lo

    def normalize_scene(self, scene: Scene) -> Scene:
        return Scene(scene.scene_id, scene.categories,
                     self.normalize(scene.positions), scene.truth_graph)

    def to_file(self, path):
        lines = [f"min_x = {self.min_x!r}", f"max_x = {self.max_x!r}",
                 f"min_y = {self.min_y!r}", f"max_y = {self.max_y!r}"]
        with atomic_open(path) as f:
            f.write("\n".join(lines) + "\n")

    @classmethod
    def from_file(cls, path) -> "Normalizer":
        values = {}
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            raise DataError(f"{path}: cannot read normalization sidecar ({e})") from e
        for line_no, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            try:
                values[key.strip()] = float(val)
            except ValueError as e:
                raise DataError(f"{path}:{line_no}: expected key = number") from e
        try:
            bounds = [values[k] for k in ("min_x", "max_x", "min_y", "max_y")]
        except KeyError as e:
            raise DataError(f"normalization sidecar missing key {e}") from e
        if not (np.isfinite(bounds).all() and bounds[1] > bounds[0]
                and bounds[3] > bounds[2]):
            raise DataError(f"{path}: bounds must be finite with max > min per axis")
        return cls(*bounds)


@dataclass
class WindowPlan:
    """Tiling of the shared time axis into fixed-size inference windows."""

    tau: int
    n_windows: int        # M = floor((T_h + T_f) / tau)
    residual: int         # leftover steps after the last full window
    t_total: int

    def window_steps(self, w: int) -> tuple[int, int]:
        """Half-open 0-based step range covered by window w."""
        if not 0 <= w < self.n_windows:
            raise ContractError(f"window {w} out of range [0, {self.n_windows})")
        return w * self.tau, (w + 1) * self.tau

    def graph_index_for_target(self, t: int) -> int:
        """Which inferred graph drives the prediction of step t (-1: none).

        The graph inferred from window w conditions the steps of window
        w + 1; targets in the residual tail reuse the last full window's
        graph. Targets inside the first window predate any inferred graph.
        """
        if not 1 <= t < self.t_total:
            raise ContractError(f"target step {t} out of range")
        return min(t // self.tau, self.n_windows) - 1


def plan_windows(t_history: int, t_future: int, tau: int) -> WindowPlan:
    if tau < 1:
        raise ConfigError("window size tau must be >= 1")
    if tau > t_history:
        raise ConfigError("tau must not exceed the historical steps: the first "
                          "window must fit inside observed history")
    total = t_history + t_future
    m = total // tau
    return WindowPlan(tau=tau, n_windows=m, residual=total - m * tau, t_total=total)


def _format_float(v: float) -> str:
    # repr of a float round-trips exactly (17 significant digits).
    return repr(float(v))


def save_csv(scenes: list[Scene], path):
    with atomic_open(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for scene in scenes:
            for a in range(scene.n_agents):
                for t in range(scene.n_steps):
                    writer.writerow([
                        scene.scene_id, a, int(scene.categories[a]), t,
                        _format_float(scene.positions[a, t, 0]),
                        _format_float(scene.positions[a, t, 1]),
                    ])


def load_csv(path, n_categories: int | None = None) -> list[Scene]:
    path = Path(path)
    rows_by_scene: dict[str, dict[int, dict[int, tuple]]] = {}
    cats_by_scene: dict[str, dict[int, int]] = {}
    order: list[str] = []
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
    except (UnicodeDecodeError, csv.Error) as e:
        raise DataError(f"{path}: not a readable UTF-8 CSV file ({e})") from e
    if rows[:1] != [CSV_HEADER]:
        raise DataError(f"{path}: expected header {','.join(CSV_HEADER)}")
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        try:
            sid, agent, cat, t = row[0], int(row[1]), int(row[2]), int(row[3])
            x, y = float(row[4]), float(row[5])
        except (ValueError, IndexError) as e:
            raise DataError(f"{path}:{line_no}: malformed row") from e
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DataError(f"{path}:{line_no}: non-finite coordinate")
        if n_categories is not None and not 0 <= cat < n_categories:
            raise ConfigError(f"{path}:{line_no}: category {cat} out of range "
                              f"[0, {n_categories})")
        if t < 0 or not 0 <= cat < 2 ** 31:
            raise DataError(f"{path}:{line_no}: negative timestep or category "
                            f"out of range")
        if sid not in rows_by_scene:
            rows_by_scene[sid] = {}
            cats_by_scene[sid] = {}
            order.append(sid)
        agents = rows_by_scene[sid]
        if agent not in agents:
            agents[agent] = {}
            cats_by_scene[sid][agent] = cat
        elif cats_by_scene[sid][agent] != cat:
            raise DataError(f"{path}:{line_no}: agent {agent} in scene {sid} "
                            f"changes category")
        if t in agents[agent]:
            raise DataError(f"{path}:{line_no}: duplicate timestep {t}")
        agents[agent][t] = (x, y)

    scenes = []
    for sid in order:
        agents = rows_by_scene[sid]
        agent_ids = sorted(agents)
        t_count = max(max(steps) for steps in agents.values()) + 1
        for a in agent_ids:
            if len(agents[a]) != t_count:
                t = next(t for t in range(t_count) if t not in agents[a])
                raise DataError(f"{path}: scene {sid} agent {a} missing t={t}")
        positions = np.array([[agents[a][t] for t in range(t_count)] for a in agent_ids])
        categories = [cats_by_scene[sid][a] for a in agent_ids]
        scenes.append(Scene(sid, categories, positions))
    return scenes


@dataclass
class SyntheticConfig:
    """Knobs for the synthetic heterogeneous interacting-agents generator."""

    n_scenes: int = 200
    n_agents_min: int = 4
    n_agents_max: int = 8
    n_categories: int = 3
    t_history: int = 5
    t_future: int = 10
    coupling: np.ndarray | None = None    # (C, C); [i, j] = pull of cat-i source on cat-j target
    damping: np.ndarray | None = None     # (C,)
    edge_prob: float = 0.35
    dt: float = 0.2
    seed: int = 0
    init_box: float = 1.0
    init_vel: float = 0.6

    def __post_init__(self):
        c = self.n_categories
        if self.n_scenes < 1 or c < 1:
            raise ConfigError("n_scenes and n_categories must be positive")
        if not 2 <= self.n_agents_min <= self.n_agents_max:
            raise ConfigError("need 2 <= n_agents_min <= n_agents_max")
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ConfigError("edge_prob must lie in [0, 1]")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if not 0.0 <= self.init_vel < math.inf:
            raise ConfigError(f"init_vel must be finite and nonnegative, got {self.init_vel}")
        if self.coupling is None:
            # Asymmetric defaults: each category pair pulls with a distinct
            # strength so directed, heterogeneous effects are identifiable.
            base = 1.0 + 0.5 * np.arange(c)[:, None] + 0.2 * np.arange(c)[None, :]
            self.coupling = base * 0.8
        self.coupling = np.asarray(self.coupling, dtype=np.float64)
        if self.coupling.shape != (c, c):
            raise ConfigError(f"coupling must be ({c}, {c})")
        if self.damping is None:
            self.damping = 0.15 + 0.35 * np.arange(c, dtype=np.float64)
        self.damping = np.asarray(self.damping, dtype=np.float64)
        if self.damping.shape != (c,):
            raise ConfigError(f"damping must have length {c}")


def simulate_scene(rng: RngStream, n_agents: int, categories: np.ndarray,
                   truth_graph: np.ndarray, coupling: np.ndarray,
                   damping: np.ndarray, n_steps: int, dt: float,
                   init_box: float = 1.0, init_vel: float = 0.6) -> np.ndarray:
    """Semi-implicit Euler rollout of spring-coupled, damped agents.

    Acceleration of agent j sums coupling[c_i, c_j] * (x_i - x_j) over
    incoming truth edges i -> j, minus damping[c_j] * v_j.
    Returns raw-unit positions (N, n_steps, 2).
    """
    x = rng.uniform(-init_box, init_box, size=(n_agents, 2))
    v = rng.normal(0.0, init_vel, size=(n_agents, 2))
    gains = coupling[np.ix_(categories, categories)] * truth_graph  # (N, N)
    damp = damping[categories][:, None]
    out = np.empty((n_agents, n_steps, 2))
    out[:, 0] = x
    for t in range(1, n_steps):
        # a_j = sum_i gains[i, j] * (x_i - x_j) - damp_j * v_j
        pull = gains.T @ x - gains.sum(axis=0)[:, None] * x
        a = pull - damp * v
        v = v + dt * a
        x = x + dt * v
        if not np.isfinite(x).all() or np.abs(x).max() > 1e6:
            raise GenerationError(
                "synthetic dynamics diverged; lower dt or the coupling strengths")
        out[:, t] = x
    return out


def generate_synthetic(cfg: SyntheticConfig) -> tuple[list[Scene], Normalizer]:
    """Generate scenes with known ground-truth interaction graphs.

    Positions are normalized to [-1, 1] using the global bounds of the
    generated set; the returned Normalizer recovers raw units.
    """
    root = RngStream(cfg.seed).child(STREAM_DATA)
    c = cfg.n_categories
    n_steps = cfg.t_history + cfg.t_future
    raw_scenes = []
    for s in range(cfg.n_scenes):
        rng = root.child(s)
        n = int(rng.integers(cfg.n_agents_min, cfg.n_agents_max + 1))
        # Stratified categories: every category present whenever n >= C.
        cats = np.concatenate([
            np.arange(min(n, c)),
            rng.integers(0, c, size=max(0, n - c)),
        ]).astype(np.int64)
        cats = cats[rng.permutation(n)]
        graph = (rng.uniform(size=(n, n)) < cfg.edge_prob).astype(np.int64)
        np.fill_diagonal(graph, 0)
        positions = simulate_scene(rng, n, cats, graph, cfg.coupling, cfg.damping,
                                   n_steps, cfg.dt, cfg.init_box, cfg.init_vel)
        raw_scenes.append(Scene(f"scene{s:05d}", cats, positions, graph))

    norm = Normalizer.fit([sc.positions for sc in raw_scenes])
    return [norm.normalize_scene(sc) for sc in raw_scenes], norm


def split_scenes(scenes: list[Scene], ratios: tuple[float, float, float],
                 seed: int) -> tuple[list[Scene], list[Scene], list[Scene]]:
    """Shuffle deterministically and split into train/val/test."""
    if not all(0.0 <= r <= 1.0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must lie in [0, 1] and sum to 1, got {ratios}")
    perm = RngStream(seed).child(STREAM_DATA, 999_983).permutation(len(scenes))
    shuffled = [scenes[i] for i in perm]
    n = len(scenes)
    n_train = int(n * ratios[0])
    n_val = int(n * ratios[1])
    return (shuffled[:n_train], shuffled[n_train:n_train + n_val],
            shuffled[n_train + n_val:])
