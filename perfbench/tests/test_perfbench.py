"""Tests of the benchmark itself: smoke runs of every workload through the
launcher, metric names, wrapper removal and hand-computed layer counts."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workload  # noqa: E402

workload._import_trajgraph()

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _launch(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module", params=[0, 1], ids=["untraced", "traced"])
def smoke(request):
    trace = request.param
    out = _launch("--workload", "all", "--smoke", "--seconds", "0", "--seed", "5",
                  "--trace", str(trace))
    assert out.returncode == 0, out.stderr[-3000:]
    return trace, out.stdout


def test_smoke_run_of_every_workload(smoke):
    trace, stdout = smoke
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    for name in WORKLOADS:
        assert f"== {name} " in stdout


def test_printed_metric_names_are_in_benchmark_json(smoke):
    trace, stdout = smoke
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    metrics = json.loads(stdout.strip().splitlines()[-1])["metrics"]
    seen = set()
    for full, value in metrics.items():
        workload_name, name = full.split("/", 1)
        assert workload_name in WORKLOADS
        assert declared[name] == value["unit"]
        assert f"  {name} = " in stdout
        seen.add(name)
    assert seen == set(declared)
    if not trace:
        assert all(metrics[f"{w}/{m}"]["value"] > 0 for w in WORKLOADS for m in declared)


def test_declared_metrics_match_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_METRICS
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(workload.END_TO_END)
    assert WORKLOADS == list(workload.WORKLOADS)


def test_traced_counts_repeat_between_runs():
    runs = []
    for _ in range(2):
        out = _launch("--workload", "train_h32", "--smoke", "--seconds", "0",
                      "--seed", "7", "--trace", "1")
        assert out.returncode == 0, out.stderr[-3000:]
        runs.append(json.loads(out.stdout.strip().splitlines()[-1])["metrics"])
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] in ("count", "GFLOP") or m["name"].endswith("_share")
              and m["name"] not in ("evaluation.pool_busy_share", "trace.overhead_share")]
    assert {k: runs[0][k] for k in counts} == {k: runs[1][k] for k in counts}


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _launch("--workload", "infer", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def _attributes():
    """Every attribute of every trajgraph module and class, plus the scipy
    function the audit calls."""
    from scipy import stats as sps
    found = {("scipy.stats", "mannwhitneyu"): sps.mannwhitneyu}
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("trajgraph"):
            continue
        for key, value in vars(mod).items():
            found[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    found[(f"{mod.__name__}.{key}", attr)] = member
    return found


def test_untraced_run_uses_the_original_objects():
    before = _attributes()
    tracer = tracing.Tracer("test")
    tracer.install(n_categories=3)
    patched = _attributes()
    changed = {k for k in before if patched.get(k) is not before[k]}
    assert ("trajgraph.training", "gradients") in changed
    assert ("trajgraph.decoder.DecoderRun", "step") in changed
    assert ("scipy.stats", "mannwhitneyu") in changed
    tracer.remove()
    after = _attributes()
    assert all(after[k] is v for k, v in before.items())
    assert tracer._patches == []


def test_tape_walk_on_a_hand_built_expression():
    from trajgraph import autodiff as ad
    x = ad.DArray(np.ones((2, 3)))
    w = ad.DArray(np.ones((3, 4)), requires_grad=True)
    b = ad.DArray(np.zeros(4), requires_grad=True)
    loss = ((x @ w) + b).sum()
    # matmul, add, sum; one (2, 3) @ (3, 4) GEMM is 2 * 2 * 4 * 3 FLOPs
    assert tracing.walk_tape(loss) == (3, 1, 48.0)


def test_layer_counts_on_one_small_scene():
    """One GE_mixup batch and one audit on a single N = 4 scene, width 8."""
    inputs = workload.make_inputs(0, train=(4,), audit=(4,))
    model = workload.model_mod.TrajectoryModel(
        workload.model_mod.ModelConfig(hidden_dim=8, edge_dim=8, attn_dim=8), seed=0)
    tracer = tracing.Tracer("test")
    tracer.install(n_categories=model.cfg.n_categories)
    tracer.phase = "measure"
    try:
        workload.training.train(model, workload.train_config(1), inputs.train, [])
        probe = workload.evaluation.ModelGraphProbe(model, n_rollouts=2)
        report = workload.evaluation.graph_quality(probe, inputs.audit, seed=0)
    finally:
        tracer.remove()
    m = tracing.layer_metrics(tracer, cycles=1, setups=1)
    n, steps, c, layers = 4, 14, 3, 2
    # two mixup updates each encode all 3 windows; the audit's graph
    # inference encodes the 2 windows the decoder reads
    windows = 2 * 3 + 2
    assert m["autodiff.updates"] == 2
    assert m["encoder.pairs_used"] == windows * n * (n - 1)
    assert m["encoder.pairs_computed"] == windows * n * n
    # GRU region: 6 GEMMs per layer on C stacked copies of the N rows, for
    # 3 training rollouts plus the audit's rollouts (base + one per probe,
    # 2 samples each) and the audit's graph-inference rollout (1 row)
    assert report.n_skipped == 0
    probes = n * (n - 1)
    assert m["evaluation.audit_probes"] == probes
    rows = steps * layers * 6 * n * (3 + (1 + probes) * 2 + 1)
    assert m["decoder.rows_kept"] == rows
    assert m["decoder.rows_computed"] == c * rows
    assert m["decoder.useful_row_share"] == pytest.approx(1 / c)
    assert m["model.rollout_calls"] == 3 + 1 + probes
    assert m["model.predict_batch_calls"] == 1
    assert m["autodiff.tape_nodes_per_update"] > 0
    assert m["autodiff.matmul_calls_per_update"] > 0
