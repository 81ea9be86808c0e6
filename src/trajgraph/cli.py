"""Command-line interface.

Subcommands: gen-data, train, evaluate, verify-theory, analyze-graphs,
sweep-gamma. Every command is deterministic given its config and seed.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 numerical
failure, 4 theory-check violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import atomic_open, load_checkpoint, save_checkpoint
from .config import SPLITS, load_config, parse_float_list
from .data import (Normalizer, Scene, SyntheticConfig, check_scenes,
                   generate_synthetic, load_csv, save_csv, split_scenes)
from .errors import (ConfigError, ContractError, DataError, GenerationError,
                     NumericalError, ShapeError)
from .evaluation import (CATEGORY_HEADER, METRICS_HEADER, ModelGraphProbe,
                         eval_rollouts, graph_quality, metrics_csv_rows,
                         rollout_metrics, sampled_metrics, verify_bounds)
from .graph_complexity import (degree_entropy, graph_entropy, min_graph_entropy,
                               r_density, random_majorizing_pair, verify_hlp)
from .model import ModelConfig, TrajectoryModel
from .optim import check_state as check_optimizer_state
from .plots import trajectory_svg
from .rng import STREAM_EVAL, STREAM_THEORY, RngStream, check_seed
from .training import GAMMA_STRATEGIES, STRATEGIES, MixState, TrainConfig, train

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3
EXIT_THEORY = 4

LOG_HEADER = "epoch,strategy,train_loss,val_loss,L1,L2,entropy,density,alpha,gamma"


# ------------------------------------------------------- checkpoint helpers

def _model_state_with_config(model: TrajectoryModel, strategy: str,
                             gamma: float) -> dict[str, np.ndarray]:
    """The checkpoint mapping of `model`: its config, `strategy` and `gamma`
    as cfg.* records, then every store entry by name. The entries are the
    live parameter arrays, not copies, so write the mapping before the
    parameters change."""
    state = {}
    for f in dataclasses.fields(ModelConfig):
        state[f"cfg.{f.name}"] = np.array([float(getattr(model.cfg, f.name))])
    state["cfg.strategy_index"] = np.array([float(STRATEGIES.index(strategy))])
    state["cfg.gamma"] = np.array([float(gamma)])
    state.update((k, p.data) for k, p in model.store.items())
    return state


def _split_meta(state: dict, path) -> tuple[ModelConfig, str, float, dict]:
    """The model config, strategy and gamma that checkpoint `path`'s cfg.*
    records hold, and its parameters. DataError names the file and the
    record that is missing or out of contract."""
    fields = {f.name: f.type for f in dataclasses.fields(ModelConfig)}
    for key in [f"cfg.{name}" for name in fields] + ["cfg.strategy_index", "cfg.gamma"]:
        if key not in state:
            raise DataError(f"{path}: checkpoint lacks the record {key}")
    typed = {}
    params = {}
    for key, value in state.items():
        if key.startswith("cfg.") and (value.shape != (1,) or not np.isfinite(value[0])):
            raise DataError(f"{path}: checkpoint record {key} is not one finite number")
        if key == "cfg.strategy_index":
            index = float(value[0])
            if not index.is_integer() or not 0 <= index < len(STRATEGIES):
                raise DataError(f"{path}: checkpoint strategy index {index:g} is out of range")
            strategy = STRATEGIES[int(index)]
        elif key == "cfg.gamma":
            gamma = float(value[0])
        elif key.startswith("cfg."):
            name, raw = key[4:], float(value[0])
            kind = fields.get(name)
            if kind is None:
                raise DataError(f"{path}: checkpoint carries unknown config field {name}")
            if kind == "bool" and raw not in (0.0, 1.0):
                raise DataError(f"{path}: checkpoint record {key} is {raw:g}, not 0 or 1")
            if kind == "int" and not raw.is_integer():
                raise DataError(f"{path}: checkpoint record {key} is {raw:g}, not an integer")
            typed[name] = bool(raw) if kind == "bool" else int(raw) if kind == "int" else raw
        elif not np.isfinite(value).all():
            raise DataError(f"{path}: checkpoint record {key} holds a non-finite value")
        elif key.endswith(".bn.run_var") and (value < 0).any():
            raise DataError(f"{path}: checkpoint record {key} holds a negative variance")
        else:
            params[key] = value
    try:
        cfg = ModelConfig(**typed)
    except ConfigError as e:
        raise DataError(f"{path}: checkpoint cfg.* records are out of contract: {e}") from e
    return cfg, strategy, gamma, params


def load_model(path) -> tuple[TrajectoryModel, str, float]:
    cfg, strategy, gamma, params = _split_meta(load_checkpoint(path), path)
    model = TrajectoryModel(cfg, seed=0)
    model.load_state_dict(params)
    return model, strategy, gamma


# ------------------------------------------------------------ data plumbing

def _load_split(data_dir, split: str, model_cfg: ModelConfig
                ) -> tuple[list[Scene], Normalizer]:
    """The split's scenes, checked against the model, and the normalizer;
    every command loads its splits here before it writes or trains."""
    data_dir = Path(data_dir)
    csv_path = data_dir / f"{split}.csv"
    if not csv_path.exists():
        raise DataError(f"missing dataset file: {csv_path}")
    scenes = check_scenes(load_csv(csv_path), model_cfg.n_categories,
                          model_cfg.t_history + model_cfg.t_future)
    norm = Normalizer.from_file(data_dir / "normalization.txt")
    return scenes, norm


def _synthetic_config(cfg: dict[str, dict]) -> SyntheticConfig:
    d = cfg["data"]
    c = d["n_categories"]
    coupling = parse_float_list(d["coupling"], c * c, "[data] coupling")
    damping = parse_float_list(d["damping"], c, "[data] damping")
    kw = {f.name: d[f.name] for f in dataclasses.fields(SyntheticConfig)}
    kw["coupling"] = None if coupling is None else np.array(coupling).reshape(c, c)
    kw["damping"] = None if damping is None else np.array(damping)
    return SyntheticConfig(**kw)


def _model_config(cfg: dict[str, dict]) -> ModelConfig:
    d, m = cfg["data"], cfg["model"]
    return ModelConfig(**{f.name: m[f.name] if f.name in m else d[f.name]
                          for f in dataclasses.fields(ModelConfig)})


def _train_config(cfg: dict[str, dict]) -> TrainConfig:
    return TrainConfig(**cfg["train"])


def _threads(cfg: dict[str, dict], flag: int | None) -> int:
    """Resolved `[eval] threads` (0: CPU count), or `flag` when given;
    accepted and ignored, and kept because the benchmark reads it."""
    value = flag if flag is not None else cfg["eval"]["threads"]
    return value if value and value > 0 else (os.cpu_count() or 1)


def _out_dir(path) -> Path:
    """`--out`, made a directory if absent; ConfigError names it if it cannot be."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as e:   # a file in the way, no permission
        raise ConfigError(f"cannot create output directory {path}: {e.strerror}") from e
    return Path(path)


def _at_least(value: int, low: int, what: str) -> int:
    if value < low:
        raise ConfigError(f"{what} must be at least {low}, got {value}")
    return value


# --------------------------------------------------------------- subcommands

def cmd_gen_data(args) -> int:
    cfg = load_config(args.config, {("data", "seed"): args.seed})
    d = cfg["data"]
    scenes, norm = generate_synthetic(_synthetic_config(cfg))
    train_s, val_s, test_s = split_scenes(
        scenes, (d["split_train"], d["split_val"], d["split_test"]), seed=d["seed"])
    out = _out_dir(args.out)
    save_csv(train_s, out / "train.csv")
    save_csv(val_s, out / "val.csv")
    save_csv(test_s, out / "test.csv")
    norm.to_file(out / "normalization.txt")
    print(f"wrote {len(train_s)}/{len(val_s)}/{len(test_s)} scenes to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    overrides = {("train", "seed"): args.seed,
                 ("train", "strategy"): args.strategy,
                 ("train", "gamma"): args.gamma}
    cfg = load_config(args.config, overrides)
    tcfg = _train_config(cfg)
    mcfg = _model_config(cfg)
    train_scenes, _ = _load_split(args.data, "train", mcfg)
    val_scenes, _ = _load_split(args.data, "val", mcfg)

    model = TrajectoryModel(mcfg, seed=tcfg.seed)
    start_epoch = 0
    optimizer_state = None
    mix_state = None
    prev_best = math.inf
    if args.resume:
        path = args.resume
        state = load_checkpoint(path)
        rcfg, _, _, params = _split_meta(
            {k: v for k, v in state.items() if not k.startswith(("opt.", "meta."))}, path)
        differ = next((f.name for f in dataclasses.fields(ModelConfig)
                       if getattr(rcfg, f.name) != getattr(mcfg, f.name)), None)
        if differ is not None:
            raise ConfigError(f"{path}: resume checkpoint was built with {differ} = "
                              f"{getattr(rcfg, differ)!r}, this run's model "
                              f"configuration has {getattr(mcfg, differ)!r}")
        model.load_state_dict(params)
        optimizer_state = {k: v for k, v in state.items() if k.startswith("opt.")}
        # train's Adam.load_state_dict runs this check again; running it here
        # too puts the checkpoint path in front of its errors, at the cost of
        # one more pass over the moments (about 3 ms at width 128)
        try:
            check_optimizer_state(model.store, optimizer_state)
        except DataError as e:
            raise DataError(f"{path}: resume checkpoint {e}") from e
        for key in ("meta.epoch", "meta.best_val", "meta.alpha"):
            if key not in state or state[key].shape != (1,):
                raise DataError(f"{path}: resume checkpoint lacks the one-number "
                                f"record {key}")
        start_epoch = float(state["meta.epoch"][0])
        if not start_epoch.is_integer() or start_epoch < 0:
            raise DataError(f"{path}: resume checkpoint epoch {start_epoch:g} "
                            "is not a count")
        start_epoch = int(start_epoch)
        prev_best = float(state["meta.best_val"][0])
        if not prev_best >= 0:      # an ADE, or +inf before any validation
            raise DataError(f"{path}: resume checkpoint record meta.best_val is "
                            f"{prev_best:g}, not an ADE")
        alpha = float(state["meta.alpha"][0])
        if not 0 < alpha < math.inf:
            raise DataError(f"{path}: resume checkpoint record meta.alpha is "
                            f"{alpha:g}, not positive and finite")
        mix_state = MixState(alpha)

    out = Path(args.out)
    log_path = out / "train_log.csv"
    fresh = not (args.resume and log_path.exists())

    def log_fn(row):
        # the first row creates --out and the log, so a resume whose
        # optimizer records fail to load leaves no output behind
        nonlocal fresh
        _out_dir(out)
        with open(log_path, "w" if fresh else "a") as log_file:
            # str of a float is its repr: the values round-trip exactly
            log_file.write((LOG_HEADER + "\n" if fresh else "") + ",".join(
                str(row[name]) for name in LOG_HEADER.split(",")) + "\n")
        fresh = False

    result = train(model, tcfg, train_scenes, val_scenes,
                   start_epoch=start_epoch, optimizer_state=optimizer_state,
                   mix_state=mix_state, log_fn=log_fn)

    # best-of-run checkpoint (kept from the previous run segment if better)
    if result.best_val_ade <= prev_best:
        save_checkpoint(out / "model.ckpt", {
            **_model_state_with_config(model, tcfg.strategy, tcfg.gamma),
            **result.best_state})
    resume_state = _model_state_with_config(model, tcfg.strategy, tcfg.gamma)
    resume_state.update(result.optimizer_state)
    resume_state["meta.epoch"] = np.array([float(result.epochs_done)])
    resume_state["meta.alpha"] = np.array([float(result.mix_state.alpha)])
    resume_state["meta.best_val"] = np.array(
        [float(min(result.best_val_ade, prev_best))])
    save_checkpoint(out / "last.ckpt", resume_state)
    print(f"trained {tcfg.epochs} epochs ({tcfg.strategy}); "
          f"best val ADE {result.best_val_ade:.6f}; artifacts in {out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config, {("eval", "samples"): args.samples,
                                    ("eval", "split"): args.split,
                                    ("eval", "seed"): args.seed})
    model, strategy, gamma = load_model(args.checkpoint)
    scenes, norm = _load_split(args.data, cfg["eval"]["split"], model.cfg)
    rollouts, graphs = eval_rollouts(model, scenes, cfg["eval"]["samples"],
                                     cfg["eval"]["seed"])
    record = rollout_metrics(scenes, rollouts, graphs, norm, model.cfg.t_history)
    out = _out_dir(args.out)
    dataset = Path(args.data).name
    main_row, cat_rows = metrics_csv_rows(record, dataset, strategy, gamma)
    with atomic_open(out / "metrics.csv") as f:
        f.write(METRICS_HEADER + "\n" + main_row + "\n")
    with atomic_open(out / "metrics_by_category.csv") as f:
        f.write(CATEGORY_HEADER + "\n" + "\n".join(cat_rows) + "\n")
    if args.export_trajectories:
        _export_trajectories(scenes, rollouts, norm, model.cfg.t_history,
                             out / "trajectories.csv")
    print(f"min ADE {record.min_ade:.4f}, mean ADE {record.mean_ade:.4f}, "
          f"min FDE {record.min_fde:.4f}, mean FDE {record.mean_fde:.4f}")
    return EXIT_OK


def _export_trajectories(scenes: list[Scene], rollouts: list[np.ndarray],
                         norm: Normalizer, t_hist: int, path):
    """Write the (K, N, T, 2) rollouts of each scene, future steps only."""
    lines = ["scene_id,sample_id,agent_id,t,x,y"]
    for scene, out in zip(scenes, rollouts):
        pred = norm.denormalize(out[:, :, t_hist:])                # (K, N, T_f, 2)
        lines.extend(f"{scene.scene_id},{k},{a},{t_hist + t},{x!r},{y!r}"
                     for (k, a, t), (x, y) in zip(np.ndindex(pred.shape[:3]),
                                                  pred.reshape(-1, 2).tolist()))
    with atomic_open(path) as f:
        f.write("\n".join(lines) + "\n")


def cmd_verify_theory(args) -> int:
    checks = args.checks.split(",")
    unknown = set(checks) - {"entropy", "bounds", "majorization"}
    if unknown:
        raise ConfigError(f"unknown theory checks: {sorted(unknown)}")
    _at_least(args.max_nodes, 2, "--max-nodes")
    _at_least(args.trials, 1, "--trials")
    check_seed(args.seed, "--seed")
    ok = True

    if "entropy" in checks:
        print("graph entropy minimizer: closed form vs brute force")
        print(f"{'N':>3} {'|E|':>4} {'closed':>12} {'brute':>12} match")
        for n in range(2, args.max_nodes + 1):
            for e in range(0, n * (n - 1) + 1):
                closed = min_graph_entropy(n, e)
                brute = _brute_force_min_entropy(n, e)
                match = abs(closed - brute) <= 1e-12
                ok = ok and match
                print(f"{n:>3} {e:>4} {closed:>12.8f} {brute:>12.8f} "
                      f"{'yes' if match else 'NO'}")
        # monotonicity in |E| for each N
        for n in range(2, args.max_nodes + 1):
            values = [min_graph_entropy(n, e) for e in range(n * (n - 1) + 1)]
            mono = all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
            ok = ok and mono
            print(f"monotone in |E| for N={n}: {'yes' if mono else 'NO'}")

    if "majorization" in checks:
        rng = RngStream(args.seed).child(STREAM_THEORY, 1)
        violations = 0
        for _ in range(args.trials):
            x, y = random_majorizing_pair(rng, int(rng.integers(3, 9)))
            if not verify_hlp(x, y):
                violations += 1
        print(f"majorization inequality: {args.trials} constructed pairs, "
              f"{violations} violations")
        ok = ok and violations == 0

    if "bounds" in checks:
        report = verify_bounds(seed=args.seed, trials=args.trials)
        print(f"error bounds: {report.trials} trials; violations: "
              f"pathwise {report.violations_pathwise}, "
              f"mixed {report.violations_mixed}, "
              f"imitation {report.violations_imitation}, "
              f"ordering {report.violations_ordering}")
        ok = ok and report.passed

    print("overall:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_THEORY


def _brute_force_min_entropy(n_nodes: int, n_edges: int) -> float:
    """Exhaustive minimum over in-degree vectors (the CLI's oracle route)."""
    profiles = []

    def rec(remaining, max_part, degrees):
        slots = n_nodes - len(degrees)
        if slots == 0:
            if remaining == 0:
                profiles.append(degrees)
            return
        if remaining > max_part * slots:
            return
        for d in range(min(max_part, remaining), -1, -1):
            rec(remaining - d, d, degrees + [d])

    rec(n_edges, n_nodes - 1, [])
    return float(degree_entropy(np.array(profiles, dtype=np.float64)).min())


def cmd_analyze_graphs(args) -> int:
    cfg = load_config(args.config, {("eval", "samples"): args.samples,
                                    ("eval", "split"): args.split,
                                    ("eval", "seed"): args.seed})
    samples = _at_least(cfg["eval"]["samples"], 1, "--samples / [eval] samples")
    _at_least(args.quality_scenes, 0, "--quality-scenes")
    _at_least(args.svg_scenes, 0, "--svg-scenes")
    model, _, _ = load_model(args.checkpoint)
    scenes, norm = _load_split(args.data, cfg["eval"]["split"], model.cfg)
    out = _out_dir(args.out)
    seed = cfg["eval"]["seed"]
    root = RngStream(seed).child(STREAM_EVAL, 31)
    probe = ModelGraphProbe(model, n_rollouts=samples)

    # per-scene per-window hard-graph statistics (MAP inference)
    lines = ["scene_id,window,n_edges,density,entropy"]
    for si, scene in enumerate(scenes):
        z = np.stack([g.z.data[0] for g in probe.infer_graphs(scene, root.child(si))])
        stats = zip(z.sum(axis=(1, 2)), r_density(z).tolist(), graph_entropy(z).tolist())
        lines.extend(f"{scene.scene_id},{w},{int(e)},{den!r},{ent!r}"
                     for w, (e, den, ent) in enumerate(stats))
    with atomic_open(out / "graph_stats.csv") as f:
        f.write("\n".join(lines) + "\n")

    # edge quality audit on a capped number of scenes
    report = graph_quality(probe, scenes[:args.quality_scenes], seed=seed)
    q_lines = [
        "metric,value",
        f"scenes,{report.n_scenes}",
        f"skipped,{report.n_skipped}",
        f"edges,{report.n_edges}",
        f"redundant,{report.n_redundant}",
        f"missing,{report.n_missing}",
        f"redundant_rate,{report.redundant_rate!r}",
        f"missing_rate,{report.missing_rate!r}",
    ]
    with atomic_open(out / "quality.csv") as f:
        f.write("\n".join(q_lines) + "\n")

    if args.svg:
        t_hist = model.cfg.t_history
        for si, scene in enumerate(scenes[:args.svg_scenes]):
            (pred,), _ = model.sample_scenes(
                [scene], lambda *_: [root.child(9000 + si, k)
                                     for k in range(min(samples, 10))])
            trajectory_svg(norm.denormalize(scene.positions),
                           list(norm.denormalize(pred[:, :, t_hist:])),
                           t_hist, out / f"{scene.scene_id}.svg")
    print(f"graph analysis written to {out} (redundant rate "
          f"{report.redundant_rate:.4f}, missing rate {report.missing_rate:.4f})")
    return EXIT_OK


def cmd_sweep_gamma(args) -> int:
    cfg = load_config(args.config, {("train", "seed"): args.seed,
                                    ("train", "strategy"): args.strategy})
    try:
        gammas = [float(g) for g in args.gammas.split(",")]
    except ValueError as e:
        raise ConfigError("--gammas expects comma-separated numbers") from e
    mcfg = _model_config(cfg)
    tcfg = _train_config(cfg)
    if tcfg.strategy not in GAMMA_STRATEGIES:
        tcfg = dataclasses.replace(tcfg, strategy="GE")
    run_cfgs = [dataclasses.replace(tcfg, gamma=gamma) for gamma in gammas]
    train_scenes, _ = _load_split(args.data, "train", mcfg)
    val_scenes, _ = _load_split(args.data, "val", mcfg)
    test_scenes, norm = _load_split(args.data, "test", mcfg)
    if not test_scenes:   # every gamma is scored on it
        raise DataError(f"the test split {Path(args.data) / 'test.csv'} holds no scenes")
    out = _out_dir(args.out)
    rows = ["gamma,mean_ade,min_ade,mean_fde,min_fde,avg_entropy,avg_density,"
            "final_train_loss"]
    for run_cfg in run_cfgs:
        model = TrajectoryModel(mcfg, seed=run_cfg.seed)
        result = train(model, run_cfg, train_scenes, val_scenes)
        model.load_state_dict(result.best_state)
        record = sampled_metrics(model, test_scenes, norm,
                                 n_samples=cfg["eval"]["samples"],
                                 seed=cfg["eval"]["seed"])
        rows.append(",".join(repr(v) for v in [
            run_cfg.gamma, record.mean_ade, record.min_ade, record.mean_fde,
            record.min_fde, record.avg_entropy, record.avg_density,
            result.history[-1]["train_loss"]]))
        print(f"gamma={run_cfg.gamma} ({run_cfg.strategy}): mean ADE "
              f"{record.mean_ade:.4f}, density {record.avg_density:.4f}")
    with atomic_open(out / "sweep.csv") as f:
        f.write("\n".join(rows) + "\n")
    return EXIT_OK


# -------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajgraph",
        description="Heterogeneous multi-agent trajectory forecasting with "
                    "latent interaction graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="sectioned key=value file")
        p.add_argument("--seed", type=int, default=None, help="override seed")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    common(p)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a model")
    common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--strategy", choices=STRATEGIES, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--resume", default=None, help="resume from last.ckpt")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="compute displacement metrics")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default=None, choices=SPLITS)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--export-trajectories", action="store_true")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("verify-theory", help="run the theory checkers")
    p.add_argument("--checks", default="entropy,bounds,majorization")
    p.add_argument("--max-nodes", type=int, default=6)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify_theory)

    p = sub.add_parser("analyze-graphs", help="graph statistics and quality")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default=None, choices=SPLITS)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--quality-scenes", type=int, default=4)
    p.add_argument("--svg", action="store_true")
    p.add_argument("--svg-scenes", type=int, default=4)
    p.set_defaults(fn=cmd_analyze_graphs)

    p = sub.add_parser("sweep-gamma", help="trade-off table over gamma values")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--strategy", choices=GAMMA_STRATEGIES, default=None,
                   help="a [train] strategy other than these runs GE")
    p.add_argument("--gammas", default="0,0.1,1,10")
    p.set_defaults(fn=cmd_sweep_gamma)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, GenerationError, ShapeError, ContractError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
