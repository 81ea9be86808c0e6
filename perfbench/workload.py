"""One benchmark workload, run in its own process by ``run.py``.

The process expects the BLAS pool size pinned in its environment before
numpy loads (``run.py`` does that). It sets up several times and keeps the
median, runs measured cycles for the requested seconds, runs the fixed-seed
reference pass whose outputs are compared with ``reference.json``, and
prints one JSON object as the last line of its standard output.

A cycle is one training epoch, one ``sampled_metrics`` call and the
``graph_quality`` audit on the train_* workloads, and the last two only on
infer. With ``--trace 1`` a fixed number of cycles runs untraced, then as
many traced, so the per-layer counts repeat exactly between runs; the
difference between the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import tracing

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = Path.cwd() / ".bench_out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

# README quick-start training setup; the batch size is the reference 128.
STRATEGY = "GE_mixup"
GAMMA = 0.02
LEARNING_RATE = 3e-3
# Fixed-seed reference pass: rtol admits reordered float sums that
# training amplifies; discrete outputs (audit counts) must match exactly.
REFERENCE_SEED = 0
RTOL = 1e-9
ATOL = 1e-12


@dataclasses.dataclass(frozen=True)
class Spec:
    """Sizes of one workload. Each scene set is a tuple of agent counts N,
    so every seed gives the same shapes and only the trajectories change."""

    width: int
    train: tuple            # measured training set (empty: no training cycles)
    val: tuple
    ckpt: tuple             # set-up trains a checkpoint on these (infer)
    ckpt_epochs: int
    eval: tuple
    samples: int            # K of sampled_metrics
    audit: tuple            # audit candidates, one graph_quality call each
    audits: int             # candidates audited per cycle, skipped ones aside
    rollouts: int           # n_rollouts per audit probe
    setups: int = 3
    min_cycles: int = 3
    trace_cycles: int = 2   # untraced, then traced; fixed so counts repeat


ALL_N = (4, 5, 6, 7, 8)
WORKLOADS = {
    "train_h32": Spec(width=32, train=ALL_N * 20, val=ALL_N * 2, ckpt=(),
                      ckpt_epochs=0, eval=ALL_N, samples=20, audit=(4,) * 6,
                      audits=2, rollouts=20),
    "train_h128": Spec(width=128, train=ALL_N * 6, val=ALL_N * 2, ckpt=(),
                       ckpt_epochs=0, eval=ALL_N, samples=20, audit=(4,) * 6,
                       audits=2, rollouts=20),
    "infer": Spec(width=128, train=(), val=(4, 6, 8), ckpt=ALL_N, ckpt_epochs=1,
                  eval=ALL_N, samples=20, audit=(4,) * 6, audits=2, rollouts=20),
}

# Tiny sizes for the benchmark's own smoke tests.
SMOKE = dict(val=(4,), eval=(4,), samples=2, audit=(4, 4), audits=1, rollouts=4,
             setups=1, min_cycles=1, trace_cycles=1)

# The reference pass: the workloads' code path at a fixed seed, small.
REFERENCE = dict(train=(4, 4, 4, 4), val=(4,), eval=(5,), samples=4, audit=(4,),
                 rollouts=4, epochs=3)

END_TO_END = ("setup_s", "train.epoch_s", "train.val_ade", "eval.scene_samples_per_s",
              "eval.mean_ade", "audit.probes_per_s", "peak_rss_mb")


def _import_trajgraph():
    global autodiff, checkpoint, cli, data, evaluation, model_mod, rng, training
    from trajgraph import (autodiff, checkpoint, cli, data, evaluation, rng,
                           training)
    from trajgraph import model as model_mod


# ------------------------------------------------------------------ inputs

@dataclasses.dataclass
class Inputs:
    train: list
    val: list
    ckpt: list
    eval: list
    audit: list
    normalizer: object


def make_inputs(seed: int, train=(), val=(), ckpt=(), eval=(), audit=()) -> Inputs:
    """Scenes from ``generate_synthetic`` picked by agent count: the seed
    chooses the trajectories, the tuples fix each set's shapes."""
    sets = {"train": train, "val": val, "ckpt": ckpt, "eval": eval, "audit": audit}
    need = {n: sum(t.count(n) for t in sets.values()) for n in ALL_N}
    pool = 8 * max(need.values())
    while True:
        scenes, norm = data.generate_synthetic(
            data.SyntheticConfig(n_scenes=pool, seed=seed))
        by_n = {n: [s for s in scenes if s.n_agents == n] for n in ALL_N}
        if all(len(by_n[n]) >= need[n] for n in ALL_N):
            break
        pool *= 2
    picked = {}
    for key, agents in sets.items():
        picked[key] = [by_n[n].pop(0) for n in agents]
    return Inputs(normalizer=norm, **picked)


def model_config(width: int):
    return model_mod.ModelConfig(hidden_dim=width, edge_dim=width, attn_dim=width)


def train_config(epochs: int):
    return training.TrainConfig(epochs=epochs, learning_rate=LEARNING_RATE,
                                gamma=GAMMA, strategy=STRATEGY)


def pool_threads() -> int:
    """The evaluate command's thread count with an empty config."""
    return cli._threads(cli.load_config(None), None)


def updates_per_epoch(agents: tuple) -> int:
    """Optimizer steps per epoch over scenes with these agent counts:
    batches of same-N scenes, two steps per batch under mixup."""
    batch = train_config(1).batch_size
    return 2 * sum(math.ceil(agents.count(n) / batch) for n in set(agents))


def save_and_load(model, path: Path):
    """Round trip through the checkpoint format the train command writes."""
    state = cli._model_state_with_config(model, STRATEGY, GAMMA)
    checkpoint.save_checkpoint(path, state)
    try:
        loaded, _, _ = cli.load_model(path)
    finally:
        path.unlink()
    restored = loaded.state_dict()
    for key, value in model.state_dict().items():
        if not np.array_equal(restored[key], value):
            raise AssertionError(f"checkpoint round trip changed {key}")
    return loaded


# ------------------------------------------------------------------- set-up

class Workload:
    def __init__(self, name: str, spec: Spec, seed: int):
        self.name = name
        self.spec = spec
        self.seed = seed
        self.threads = pool_threads()
        self.model = None
        self.inputs = None
        self.setup_epoch_s: list[float] = []
        self.opt_state = None
        self.mix_state = None
        self.epoch = 0

    def setup(self) -> float:
        """Inputs, model or checkpoint, and warm-up; returns its seconds."""
        spec = self.spec
        t0 = time.perf_counter()
        inputs = make_inputs(self.seed, spec.train, spec.val, spec.ckpt,
                             spec.eval, spec.audit)
        model = model_mod.TrajectoryModel(model_config(spec.width), seed=0)
        if spec.ckpt_epochs:
            marks = [time.perf_counter()]
            result = training.train(model, train_config(spec.ckpt_epochs),
                                    inputs.ckpt, inputs.val,
                                    log_fn=lambda row: marks.append(time.perf_counter()))
            self.setup_epoch_s.extend(np.diff(marks).tolist())
            model.load_state_dict(result.best_state)
            OUT_DIR.mkdir(exist_ok=True)
            model = save_and_load(model, OUT_DIR / f"{self.name}-{os.getpid()}.ckpt")
        else:
            # A first epoch runs 1.2-1.4x slower than later ones; one update
            # pair on the largest batch warms the allocator, then the
            # initial weights and batch-norm buffers are restored.
            initial = model.state_dict()
            largest = max(s.n_agents for s in inputs.train)
            training.train(model, train_config(1),
                           [s for s in inputs.train if s.n_agents == largest], [])
            model.load_state_dict(initial)
        # Warm the no-grad paths at every evaluated shape and one audit probe.
        probe = evaluation.ModelGraphProbe(model, n_rollouts=spec.rollouts)
        evaluation.sampled_metrics(model, inputs.eval, inputs.normalizer,
                                   n_samples=1, seed=0, threads=self.threads)
        scene = inputs.audit[0]
        probe.rollout_ades(scene, probe.infer_graphs(scene, rng.RngStream(0)),
                           rng.RngStream(1))
        elapsed = time.perf_counter() - t0
        self.model, self.inputs, self.probe = model, inputs, probe
        return elapsed

    # --------------------------------------------------------------- cycles
    def cycle(self) -> dict:
        """One measured cycle; returns times, operation counts and checks."""
        spec, inputs = self.spec, self.inputs
        out = {"ops": 0, "failed": 0, "errors": []}
        if spec.train:
            marks = []
            t0 = time.perf_counter()
            result = training.train(
                self.model, train_config(1), inputs.train, inputs.val,
                start_epoch=self.epoch, optimizer_state=self.opt_state,
                mix_state=self.mix_state,
                log_fn=lambda row: marks.append(time.perf_counter()))
            out["epoch_s"] = marks[0] - t0
            self.opt_state, self.mix_state = result.optimizer_state, result.mix_state
            self.epoch += 1
            ops = updates_per_epoch(spec.train)
            row = result.history[0]
            bad = [k for k, v in row.items()
                   if isinstance(v, float) and not math.isfinite(v)]
            out["ops"] += ops
            if bad:
                out["failed"] += ops
                out["errors"].append(f"epoch {row['epoch']}: non-finite {bad}")

        t0 = time.perf_counter()
        record = evaluation.sampled_metrics(
            self.model, inputs.eval, inputs.normalizer, n_samples=spec.samples,
            seed=0, threads=self.threads)
        out["eval_s"] = time.perf_counter() - t0
        scene_samples = len(inputs.eval) * spec.samples
        out["scene_samples"] = scene_samples
        out["ops"] += scene_samples
        values = [record.min_ade, record.min_fde, record.mean_ade, record.mean_fde,
                  record.avg_entropy, record.avg_density]
        out["record"] = values
        if not all(math.isfinite(v) for v in values) or record.n_scenes != len(inputs.eval):
            out["failed"] += scene_samples
            out["errors"].append(f"evaluate: bad record {values}")

        # Training can empty a scene's MAP graph, and the audit skips such
        # scenes; the next candidate is audited instead. Each audited scene
        # is one throughput sample, charged with the skipped ones before it.
        probes = audited = 0
        reports, rates = [], []
        t0 = last = time.perf_counter()
        for scene in inputs.audit:
            if audited == spec.audits:
                break
            report = evaluation.graph_quality(self.probe, [scene], seed=0)
            reports.append(report)
            if not report.n_skipped:
                now = time.perf_counter()
                pairs = scene.n_agents * (scene.n_agents - 1)
                rates.append(pairs / (now - last))
                probes += pairs
                audited += 1
                last = now
        out["audit_s"] = time.perf_counter() - t0
        out["audit_rates"] = rates
        out["probes"] = probes
        out["audit"] = [[r.n_edges, r.n_redundant, r.n_missing, r.n_skipped]
                        for r in reports]
        out["ops"] += probes
        for scene, r in zip(inputs.audit, reports):
            pairs = scene.n_agents * (scene.n_agents - 1)
            if not (0 <= r.n_redundant <= r.n_edges <= pairs
                    and 0 <= r.n_missing <= pairs - r.n_edges
                    and r.n_skipped in (0, 1)):
                out["failed"] += pairs
                out["errors"].append(f"audit: inconsistent counts {out['audit']}")
        return out


    def planned_ops(self) -> int:
        spec = self.spec
        return (updates_per_epoch(spec.train)
                + len(self.inputs.eval) * spec.samples
                + sum(n * (n - 1) for n in spec.audit[:spec.audits]))


def run_cycles(work: Workload, seconds: float, min_cycles: int) -> list[dict]:
    """Measured cycles; a cycle that raises fails all its operations and
    ends the measurement."""
    cycles = []
    t0 = time.perf_counter()
    while len(cycles) < min_cycles or time.perf_counter() - t0 < seconds:
        try:
            cycles.append(work.cycle())
        except Exception as exc:
            traceback.print_exc()
            ops = work.planned_ops()
            cycles.append({"ops": ops, "failed": ops, "errors": [f"cycle raised {exc!r}"]})
            break
    return cycles


# ----------------------------------------------------------- reference pass

def reference_pass(width: int, threads: int) -> dict:
    """Fixed-seed train -> checkpoint -> evaluate -> audit, small sizes.

    Its outputs are the values ``reference.json`` records: the training
    history, the validation ADE after the last epoch, the metrics.csv row
    and the audit counts.
    """
    ref = REFERENCE
    inputs = make_inputs(REFERENCE_SEED, ref["train"], ref["val"], (),
                         ref["eval"], ref["audit"])
    model = model_mod.TrajectoryModel(model_config(width), seed=0)
    cfg = train_config(ref["epochs"])
    result = training.train(model, cfg, inputs.train, inputs.val)
    val_loss, val_ade = training.validation_scores(
        model, inputs.val, cfg.val_samples,
        rng.RngStream(cfg.seed).child(rng.STREAM_EVAL, ref["epochs"] - 1))
    OUT_DIR.mkdir(exist_ok=True)
    loaded = save_and_load(model, OUT_DIR / f"reference-{width}-{os.getpid()}.ckpt")
    record = evaluation.sampled_metrics(loaded, inputs.eval, inputs.normalizer,
                                        n_samples=ref["samples"], seed=0,
                                        threads=threads)
    main_row, category_rows = evaluation.metrics_csv_rows(
        record, "synthetic", STRATEGY, GAMMA)
    probe = evaluation.ModelGraphProbe(loaded, n_rollouts=ref["rollouts"])
    report = evaluation.graph_quality(probe, inputs.audit, seed=0)
    history = [[row[k] for k in ("train_loss", "val_loss", "L1", "L2", "entropy",
                                 "density", "alpha", "gamma")]
               for row in result.history]
    return {
        "history": history,
        "val_loss_recomputed": val_loss,
        "val_ade": val_ade,
        "metrics_csv": [float(v) for v in main_row.split(",")[3:]],
        "metrics_by_category_csv": [[float(v) for v in r.split(",")[3:]]
                                    for r in category_rows],
        "audit": {"edges": report.n_edges, "redundant": report.n_redundant,
                  "missing": report.n_missing, "skipped": report.n_skipped},
    }


def reference_ops() -> int:
    ref = REFERENCE
    return (ref["epochs"] * updates_per_epoch(ref["train"])
            + len(ref["eval"]) * ref["samples"]
            + sum(n * (n - 1) for n in ref["audit"]))


def compare_reference(got: dict, want: dict) -> list[str]:
    """Mismatches between a reference pass and the recorded values."""
    errors = []

    def close(path, a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if a.shape != b.shape or not np.allclose(a, b, rtol=RTOL, atol=ATOL):
            errors.append(f"{path}: got {a.tolist()}, recorded {b.tolist()}")

    for key in ("history", "val_ade", "metrics_csv", "metrics_by_category_csv"):
        close(key, got[key], want[key])
    close("val_loss_recomputed", got["val_loss_recomputed"], got["history"][-1][1])
    if got["audit"] != want["audit"]:
        errors.append(f"audit: got {got['audit']}, recorded {want['audit']}")
    return errors


# -------------------------------------------------------------- environment

def _openblas():
    """(version string, runtime thread count) of numpy's OpenBLAS."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    if not libs:
        return None, None
    lib = ctypes.CDLL(libs[0])
    get_config = getattr(lib, "scipy_openblas_get_config64_", None)
    get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if get_config is None or get_threads is None:
        return None, None
    get_config.restype = ctypes.c_char_p
    get_threads.restype = ctypes.c_int
    return get_config().decode(), get_threads()


def environment(threads: int) -> dict:
    config, blas_threads = _openblas()
    ram_kb = None
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                ram_kb = int(line.split()[1])
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": config,
        "blas_threads": blas_threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "eval_pool_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mb": ram_kb // 1024 if ram_kb else None,
    }


# --------------------------------------------------------------------- main

def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    spec = WORKLOADS[name]
    if smoke:
        spec = dataclasses.replace(spec, **SMOKE, train=(4, 5) if spec.train else (),
                                   ckpt=(4, 5) if spec.ckpt else ())
    work = Workload(name, spec, seed)
    tracer = tracing.Tracer(run_id=f"{name}-seed{seed}-pid{os.getpid()}")
    if trace:
        tracer.install(model_config(spec.width).n_categories)

    result = {"workload": name, "seed": seed, "trace": trace, "errors": []}
    setup_s = [work.setup() for _ in range(spec.setups)]
    setup_wall = sum(setup_s)
    tracer.remove()

    if trace:
        base = run_cycles(work, 0, spec.trace_cycles)
        tracer.phase = "measure"
        tracer.install(model_config(spec.width).n_categories)
        t0 = time.perf_counter()
        try:
            cycles = run_cycles(work, 0, spec.trace_cycles)
        finally:
            tracer.remove()
        measure_wall = time.perf_counter() - t0
    else:
        base, cycles = [], run_cycles(work, seconds, spec.min_cycles)

    recorded = json.loads(REFERENCE_PATH.read_text())["widths"].get(str(spec.width))
    try:
        reference = reference_pass(spec.width, work.threads)
        ref_errors = (compare_reference(reference, recorded) if recorded
                      else [f"no reference recorded for width {spec.width}"])
    except Exception as exc:
        traceback.print_exc()
        reference = {"val_ade": math.nan, "metrics_csv": [math.nan] * 6, "audit": None}
        ref_errors = [f"reference pass raised {exc!r}"]

    attempted = sum(c["ops"] for c in base + cycles) + reference_ops()
    failed = sum(c["failed"] for c in base + cycles)
    for c in base + cycles:
        result["errors"].extend(c["errors"])
    if ref_errors:
        failed += reference_ops()
        result["errors"].extend(ref_errors)
    done = [c for c in base + cycles if "eval_s" in c]
    if name == "infer":
        # The checkpoint is fixed, so every cycle must repeat the first.
        for c in done:
            if c["record"] != done[0]["record"] or c["audit"] != done[0]["audit"]:
                failed += c["ops"]
                result["errors"].append("infer: cycle outputs differ between cycles")
    cycles = [c for c in cycles if "eval_s" in c]

    epochs = [c["epoch_s"] for c in cycles if "epoch_s" in c] or work.setup_epoch_s
    stats = {
        "setup_s": _quartiles(setup_s),
        "train.epoch_s": _quartiles(epochs),
        "eval.scene_samples_per_s":
            _quartiles([c["scene_samples"] / c["eval_s"] for c in cycles]),
        "audit.probes_per_s": _quartiles([r for c in cycles for r in c["audit_rates"]]),
    }
    metrics = {k: v["median"] for k, v in stats.items()}
    metrics["train.val_ade"] = reference["val_ade"]
    metrics["eval.mean_ade"] = reference["metrics_csv"][2]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result.update({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "end_to_end": {k: metrics[k] for k in END_TO_END},
        "quartiles": stats,
        "reference": {k: reference[k] for k in ("val_ade", "metrics_csv", "audit")},
        "environment": environment(work.threads),
        "sizes": dataclasses.asdict(spec),
        "cycles": len(cycles),
        "cycle_detail": [{k: c[k] for k in ("epoch_s", "eval_s", "audit_s", "probes",
                                            "audit") if k in c} for c in done],
    })
    if trace:
        layers = tracing.layer_metrics(tracer, len(cycles), spec.setups)
        untraced = sum(c_total(c) for c in base) / len(base)
        traced = sum(c_total(c) for c in cycles) / len(cycles)
        layers["trace.overhead_share"] = traced / untraced - 1.0
        result["per_layer"] = layers
        result["overhead"] = {
            "untraced_cycle_s": untraced, "traced_cycle_s": traced,
            "untraced_cycles": len(base), "traced_cycles": len(cycles)}
        result["layer_table"] = (tracing.layer_table(tracer, "setup", setup_wall)
                                 + tracing.layer_table(tracer, "measure", measure_wall))
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{tracer.run_id}-spans.jsonl"
        with open(spans_path, "w") as f:
            for sid, span, t0, t1, parent, phase in tracer.spans:
                f.write(json.dumps({"run": tracer.run_id, "id": sid, "name": span,
                                    "start": t0, "end": t1, "parent": parent,
                                    "phase": phase}) + "\n")
        result["spans_file"] = str(spans_path.relative_to(Path.cwd()))
    return result


def c_total(c: dict) -> float:
    return c.get("epoch_s", 0.0) + c["eval_s"] + c["audit_s"]


def record_reference() -> dict:
    """Reference values at the pinned BLAS thread count, per model width."""
    threads = pool_threads()
    widths = sorted({spec.width for spec in WORKLOADS.values()})
    out = {"seed": REFERENCE_SEED, "sizes": REFERENCE, "rtol": RTOL, "atol": ATOL,
           "environment": environment(threads), "widths": {}}
    for width in widths:
        out["widths"][str(width)] = reference_pass(width, threads)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite reference.json from this build")
    args = p.parse_args(argv)
    _import_trajgraph()
    if args.record_reference:
        REFERENCE_PATH.write_text(json.dumps(record_reference(), indent=1) + "\n")
        print(json.dumps({"recorded": str(REFERENCE_PATH.name)}))
        return 0
    if args.workload is None:
        p.error("--workload is required")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.smoke)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
