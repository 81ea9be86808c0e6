"""Benchmark launcher: runs each workload in its own process.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The launcher pins the BLAS pool to one
thread in the workload process's environment (outputs and speed both
depend on it), prints the environment record and a report, and prints one
JSON object as its last line: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``. Full results and spans go to ``.bench_out/``.
It exits non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BLAS_THREADS = "1"
TIMEOUT_S = 175.0


def _benchmark_spec() -> dict:
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _git_commit(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(args: list[str], deadline: float) -> dict | None:
    """Run one workload process; returns its result or None on failure."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(BENCH_DIR / "workload.py"), *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"{args}: timed out", file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{args}: workload process exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _fmt(v: float) -> str:
    return f"{v:.6g}" if isinstance(v, (int, float)) else str(v)


def report(result: dict, spec: dict, trace: int):
    """Human-readable lines: environment, metrics with units, checks."""
    name = result["workload"]
    print(f"== {name} (seed {result['seed']}, trace {trace}, "
          f"{result['cycles']} measured cycles)")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print(f"failed_share {result['failed_share']:.6g} "
          f"(failed {result['failed']} of {result['attempted']} operations)")
    for err in result["errors"]:
        print(f"  check failed: {err}")
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(f"{'phase':8} {'layer':30} {'calls':>8} {'busy s':>10} {'self s':>10} share")
        for row in result["layer_table"]:
            print(f"{row['phase']:8} {row['layer']:30} {row['calls']:8d} "
                  f"{row['busy_s']:10.4f} {row['self_s']:10.4f} {row['share']:.3f}")
        layers = result["per_layer"]
        for metric, value in layers.items():
            print(f"  {metric} = {_fmt(value)} {units.get(metric, '')}")
        pairs = (("encoder.useful_pair_share", "encoder.pairs_used", "encoder.pairs_computed"),
                 ("decoder.useful_row_share", "decoder.rows_kept", "decoder.rows_computed"),
                 ("evaluation.pool_busy_share", "evaluation.pool_rollout_s",
                  "evaluation.pool_capacity_s"))
        for ratio, num, den in pairs:
            print(f"  ratio {ratio} = {_fmt(layers[ratio])} "
                  f"({num} {_fmt(layers[num])} / {den} {_fmt(layers[den])} per cycle)")
        o = result["overhead"]
        print(f"  tracing overhead {layers['trace.overhead_share']:+.3f}: traced cycle "
              f"{o['traced_cycle_s']:.4f} s ({o['traced_cycles']}) vs untraced "
              f"{o['untraced_cycle_s']:.4f} s ({o['untraced_cycles']})")
        print(f"  spans written to {result['spans_file']}")
    else:
        for m in spec["end_to_end"]:
            q = result["quartiles"].get(m["name"])
            spread = (f" (q1 {_fmt(q['q1'])}, q3 {_fmt(q['q3'])}, n {q['n']})"
                      if q else "")
            print(f"  {m['name']} = {_fmt(result['end_to_end'][m['name']])} "
                  f"{m['unit']}, {m['better']} is better{spread}")


def metrics_of(result: dict, spec: dict, trace: int) -> dict:
    if trace:
        return {m["name"]: {"value": result["per_layer"][m["name"]], "unit": m["unit"]}
                for m in spec["per_layer"]}
    return {m["name"]: {"value": result["end_to_end"][m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def main(argv=None) -> int:
    spec = _benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description="Run the trajgraph benchmark.")
    p.add_argument("--workload", default="all", choices=names + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite perfbench/reference.json from this build")
    args = p.parse_args(argv)

    if not (Path.cwd() / "src" / "trajgraph" / "__init__.py").is_file():
        print("run from the root of a trajgraph checkout (src/trajgraph missing)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    if args.record_reference:
        return 0 if run_workload(["--record-reference"], deadline) else 1

    commit = _git_commit(Path.cwd())
    selected = names if args.workload == "all" else [args.workload]
    results = []
    for name in selected:
        result = run_workload(["--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)]
                              + (["--smoke"] if args.smoke else []), deadline)
        if result is None:
            return 1
        result["environment"]["git_commit"] = commit
        out_dir = Path.cwd() / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1) + "\n")
        report(result, spec, args.trace)
        results.append(result)

    if len(results) == 1:
        metrics = metrics_of(results[0], spec, args.trace)
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results
                   for k, v in metrics_of(r, spec, args.trace).items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
