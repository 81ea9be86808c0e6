"""Spans and counters recorded around calls into trajgraph's public
functions and methods.

The wrappers are installed on the package from outside (module attributes,
class attributes and the names other trajgraph modules imported) and are
removed again by :meth:`Tracer.remove`, so an untraced run executes the
package's original objects. Spans stay in memory; the workload writes them
out when the run ends.

A span is ``(span_id, name, start, end, parent_id, phase)``. Every span of
one process shares the tracer's ``run_id``. A layer's self time is its
duration minus the union of the intervals its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# Per-layer metrics, in the order the report prints them: name -> unit.
# Times ending in ``_s`` are seconds per measured cycle (one training epoch
# plus one evaluate call plus the audit on train_*, one evaluate call plus
# the audit on infer); data/checkpoint times are seconds per set-up.
LAYER_METRICS = {
    "autodiff.backward_s": "s",
    "autodiff.updates": "count",
    "autodiff.tape_nodes_per_update": "count",
    "autodiff.matmul_calls_per_update": "count",
    "autodiff.matmul_gflop_per_update": "GFLOP",
    "encoder.embed_s": "s",
    "encoder.gnn_s": "s",
    "encoder.edge_gru_s": "s",
    "encoder.sample_s": "s",
    "encoder.useful_pair_share": "share",
    "encoder.pairs_used": "count",
    "encoder.pairs_computed": "count",
    "decoder.attend_s": "s",
    "decoder.gru_s": "s",
    "decoder.head_s": "s",
    "decoder.run_init_s": "s",
    "decoder.useful_row_share": "share",
    "decoder.rows_kept": "count",
    "decoder.rows_computed": "count",
    "model.rollout_calls": "count",
    "model.rollout_s": "s",
    "model.predict_batch_calls": "count",
    "model.predict_batch_rows_per_call": "count",
    "training.update_s.p50": "s",
    "training.update_s.p90": "s",
    "training.validation_s": "s",
    "optim.adam_s": "s",
    "graph_complexity.penalty_s": "s",
    "evaluation.pool_threads": "count",
    "evaluation.pool_busy_share": "share",
    "evaluation.pool_rollout_s": "s",
    "evaluation.pool_capacity_s": "s",
    "evaluation.aggregate_s": "s",
    "evaluation.audit_probes": "count",
    "evaluation.audit_skipped_scenes": "count",
    "evaluation.audit_rollout_s": "s",
    "evaluation.audit_test_s": "s",
    "rng.child_calls": "count",
    "rng.child_s": "s",
    "data.generate_s": "s",
    "checkpoint.save_s": "s",
    "checkpoint.load_s": "s",
    "trace.overhead_share": "share",
}


def walk_tape(loss) -> tuple[int, int, float]:
    """(tape nodes, matmul nodes, matmul FLOPs) reachable from ``loss``.

    A tape node is an array carrying a backward closure. Matmul FLOPs are
    computed from operand shapes: 2 * output size * inner dimension.
    """
    seen: set[int] = set()
    stack = [loss]
    nodes = matmuls = 0
    flops = 0.0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        bw = node._bw
        if bw is not None:
            nodes += 1
            if bw.__qualname__.split(".")[0] == "matmul":
                matmuls += 1
                cells = dict(zip(bw.__code__.co_freevars, bw.__closure__))
                inner = cells["a"].cell_contents.shape[-1]
                flops += 2.0 * node.data.size * inner
        stack.extend(node._parents)
    return nodes, matmuls, flops


class Tracer:
    """Records spans and counters; installs and removes the wrappers."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.phase = "setup"
        self.n_categories = 1
        self._ids = itertools.count(1)
        self._main_stack: list[tuple[int, str]] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> list[tuple[int, str]]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def innermost(self) -> str | None:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def count(self, name: str, value: float = 1.0):
        self.counts[(self.phase, name)] += value

    def record(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span. A worker thread's first span is a
        child of the main thread's innermost open span."""
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        else:
            main = self._main_stack
            parent = main[-1][0] if main and stack is not main else 0
        sid = next(self._ids)
        stack.append((sid, name))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self.phase))

    # ------------------------------------------------------------- patching
    def _replace(self, owner, attr: str, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_function(self, module, attr: str, make_wrapper):
        """Replace a module-level function everywhere trajgraph bound it."""
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("trajgraph"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, wrapper)

    def patch_method(self, cls, attr: str, make_wrapper):
        self._replace(cls, attr, make_wrapper(cls.__dict__[attr]))

    def spanned(self, name: str, after=None):
        """Wrapper factory: a span named ``name`` around every call, then
        ``after(args, kwargs, result)`` for counters."""
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                out = self.record(name, original, *args, **kwargs)
                if after is not None:
                    after(args, kwargs, out)
                return out
            return wrapper
        return make

    def install(self, n_categories: int):
        """Wrap the layer boundaries of every trajgraph module."""
        from scipy import stats as sps
        from trajgraph import (autodiff, checkpoint, data, decoder, encoder,
                               evaluation, graph_complexity, model, nn, optim,
                               rng, training)

        self.n_categories = n_categories
        spanned = self.spanned

        def count_pairs(args, kwargs, out):
            v = args[1]
            b, n = v.shape[0], v.shape[1]
            edges = out[1]
            self.count("encoder.pairs_used", b * n * (n - 1))
            self.count("encoder.pairs_computed", int(np.prod(edges.shape[:-1])))

        def count_rows(args, kwargs, out):
            self.count("model.predict_batch_rows", args[1].shape[0])

        def count_skipped(args, kwargs, out):
            self.count("evaluation.audit_skipped_scenes", out.n_skipped)

        def count_threads(args, kwargs, out):
            threads = kwargs.get("threads", args[5] if len(args) > 5 else 1)
            self.count("evaluation.pool_calls")
            self.count("evaluation.pool_threads_sum", threads)

        def head(original):
            @functools.wraps(original)
            def wrapper(mlp, *args, **kwargs):
                if getattr(mlp, "prefix", None) == "dec.fout":
                    return self.record("decoder.head", original, mlp, *args, **kwargs)
                return original(mlp, *args, **kwargs)
            return wrapper

        def gradients(original):
            @functools.wraps(original)
            def wrapper(loss, store):
                nodes, matmuls, flops = self.record("trace.tape_walk", walk_tape, loss)
                self.count("autodiff.updates")
                self.count("autodiff.tape_nodes", nodes)
                self.count("autodiff.matmul_calls", matmuls)
                self.count("autodiff.matmul_flops", flops)
                return original(loss, store)
            return wrapper

        def matmul(original):
            # GEMM rows in the decoder's GRU region (DecoderRun.step self
            # time). A right operand stacked over categories computes every
            # row once per category; each row is kept for one of them.
            @functools.wraps(original)
            def wrapper(a, b):
                out = original(a, b)
                if self.innermost() == "decoder.step":
                    rows = out.data.size // out.data.shape[-1]
                    shape = np.shape(getattr(b, "data", b))
                    stacked = len(shape) == 3 and shape[0] == self.n_categories
                    self.count("decoder.rows_computed", rows)
                    self.count("decoder.rows_kept",
                               rows // self.n_categories if stacked else rows)
                return out
            return wrapper

        self.patch_function(autodiff, "matmul", matmul)
        self.patch_method(autodiff.DArray, "backward", spanned("autodiff.backward"))
        self.patch_function(nn, "gradients", gradients)
        self.patch_method(nn.MLP, "__call__", head)
        self.patch_method(encoder.GraphEncoder, "embed_window", spanned("encoder.embed"))
        self.patch_method(encoder.GraphEncoder, "gnn_pass",
                          spanned("encoder.gnn", after=count_pairs))
        self.patch_method(encoder.GraphEncoder, "update_relations",
                          spanned("encoder.edge_gru"))
        self.patch_method(encoder.GraphEncoder, "sample_edge_features",
                          spanned("encoder.sample"))
        self.patch_method(encoder.GraphEncoder, "sample_relations",
                          spanned("encoder.sample"))
        self.patch_method(decoder.DecoderRun, "__init__", spanned("decoder.run_init"))
        self.patch_method(decoder.DecoderRun, "step", spanned("decoder.step"))
        self.patch_method(decoder.DecoderRun, "attend", spanned("decoder.attend"))
        self.patch_method(model.TrajectoryModel, "rollout", spanned("model.rollout"))
        self.patch_method(model.TrajectoryModel, "predict_batch",
                          spanned("model.predict_batch", after=count_rows))
        self.patch_function(training, "_strategy_losses", spanned("training.batch"))
        self.patch_function(training, "validation_scores", spanned("training.validation"))
        self.patch_method(optim.Adam, "step", spanned("optim.adam"))
        self.patch_function(graph_complexity, "regularized_loss",
                            spanned("graph_complexity.penalty"))
        self.patch_function(evaluation, "sampled_metrics",
                            spanned("evaluation.sampled_metrics", after=count_threads))
        self.patch_function(evaluation, "graph_quality",
                            spanned("evaluation.audit", after=count_skipped))
        self.patch_method(evaluation.ModelGraphProbe, "rollout_ades",
                          spanned("evaluation.audit_rollout"))
        self._replace(sps, "mannwhitneyu",
                      spanned("evaluation.audit_test")(sps.mannwhitneyu))
        self.patch_method(rng.RngStream, "child", spanned("rng.child"))
        self.patch_function(data, "generate_synthetic", spanned("data.generate"))
        self.patch_function(checkpoint, "save_checkpoint", spanned("checkpoint.save"))
        self.patch_function(checkpoint, "load_checkpoint", spanned("checkpoint.load"))

    def remove(self):
        """Restore every patched attribute to the original object."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------- analysis

def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def span_stats(spans: list[tuple], phase: str) -> dict[str, dict[str, float]]:
    """Per span name in ``phase``: calls, busy seconds, self seconds."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, name, t0, t1, parent, ph in spans:
        children[parent].append((t0, t1))
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for sid, name, t0, t1, parent, ph in spans:
        if ph != phase:
            continue
        inner = [(max(lo, t0), min(hi, t1)) for lo, hi in children.get(sid, ())
                 if hi > t0 and lo < t1]
        s = stats[name]
        s["calls"] += 1
        s["busy_s"] += t1 - t0
        s["self_s"] += (t1 - t0) - _union_length(inner)
    return dict(stats)


def update_durations(spans: list[tuple], phase: str) -> list[float]:
    """Seconds per training update: from the batch start or the previous
    optimizer step's end to the end of the next optimizer step, less the
    tracer's own tape walks."""
    batches = sorted((t0, t1) for _, name, t0, t1, _, ph in spans
                     if ph == phase and name == "training.batch")
    steps = sorted(t1 for _, name, t0, t1, _, ph in spans
                   if ph == phase and name == "optim.adam")
    walks = [(t0, t1) for _, name, t0, t1, _, ph in spans
             if ph == phase and name == "trace.tape_walk"]
    out = []
    for b0, b1 in batches:
        start = b0
        for end in (s for s in steps if b0 <= s <= b1):
            walked = sum(w1 - w0 for w0, w1 in walks if start <= w0 and w1 <= end)
            out.append(end - start - walked)
            start = end
    return out


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, cycles: int, setups: int) -> dict[str, float]:
    """Per-layer metrics of the "measure" phase, per cycle or per update."""
    st = span_stats(tracer.spans, "measure")
    setup = span_stats(tracer.spans, "setup")

    def busy(name, stats=st):
        return stats.get(name, {}).get("busy_s", 0.0)

    def self_s(name):
        return st.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return st.get(name, {}).get("calls", 0)

    def count(name):
        return tracer.counts.get(("measure", name), 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    per = 1.0 / max(cycles, 1)
    updates = count("autodiff.updates")
    sampled = [s for s in tracer.spans
               if s[5] == "measure" and s[1] == "evaluation.sampled_metrics"]
    sampled_ids = {s[0] for s in sampled}
    pool_rollout = sum(t1 - t0 for _, name, t0, t1, parent, ph in tracer.spans
                       if ph == "measure" and name == "model.predict_batch"
                       and parent in sampled_ids)
    pool_calls = count("evaluation.pool_calls")
    threads = ratio(count("evaluation.pool_threads_sum"), pool_calls)
    capacity = sum(t1 - t0 for _, _, t0, t1, _, _ in sampled) * threads
    upd = update_durations(tracer.spans, "measure")
    return {
        "autodiff.backward_s": busy("autodiff.backward") * per,
        "autodiff.updates": updates * per,
        "autodiff.tape_nodes_per_update": ratio(count("autodiff.tape_nodes"), updates),
        "autodiff.matmul_calls_per_update": ratio(count("autodiff.matmul_calls"), updates),
        "autodiff.matmul_gflop_per_update":
            ratio(count("autodiff.matmul_flops"), updates) / 1e9,
        "encoder.embed_s": self_s("encoder.embed") * per,
        "encoder.gnn_s": self_s("encoder.gnn") * per,
        "encoder.edge_gru_s": self_s("encoder.edge_gru") * per,
        "encoder.sample_s": self_s("encoder.sample") * per,
        "encoder.useful_pair_share":
            ratio(count("encoder.pairs_used"), count("encoder.pairs_computed")),
        "encoder.pairs_used": count("encoder.pairs_used") * per,
        "encoder.pairs_computed": count("encoder.pairs_computed") * per,
        "decoder.attend_s": self_s("decoder.attend") * per,
        "decoder.gru_s": self_s("decoder.step") * per,
        "decoder.head_s": self_s("decoder.head") * per,
        "decoder.run_init_s": busy("decoder.run_init") * per,
        "decoder.useful_row_share":
            ratio(count("decoder.rows_kept"), count("decoder.rows_computed")),
        "decoder.rows_kept": count("decoder.rows_kept") * per,
        "decoder.rows_computed": count("decoder.rows_computed") * per,
        "model.rollout_calls": calls("model.rollout") * per,
        "model.rollout_s": busy("model.rollout") * per,
        "model.predict_batch_calls": calls("model.predict_batch") * per,
        "model.predict_batch_rows_per_call":
            ratio(count("model.predict_batch_rows"), calls("model.predict_batch")),
        "training.update_s.p50": _percentile(upd, 50),
        "training.update_s.p90": _percentile(upd, 90),
        "training.validation_s": busy("training.validation") * per,
        "optim.adam_s": busy("optim.adam") * per,
        "graph_complexity.penalty_s": busy("graph_complexity.penalty") * per,
        "evaluation.pool_threads": threads,
        "evaluation.pool_busy_share": ratio(pool_rollout, capacity),
        "evaluation.pool_rollout_s": pool_rollout * per,
        "evaluation.pool_capacity_s": capacity * per,
        "evaluation.aggregate_s": self_s("evaluation.sampled_metrics") * per,
        "evaluation.audit_probes": calls("evaluation.audit_test") * per,
        "evaluation.audit_skipped_scenes":
            count("evaluation.audit_skipped_scenes") * per,
        "evaluation.audit_rollout_s": busy("evaluation.audit_rollout") * per,
        "evaluation.audit_test_s": busy("evaluation.audit_test") * per,
        "rng.child_calls": calls("rng.child") * per,
        "rng.child_s": busy("rng.child") * per,
        "data.generate_s": busy("data.generate", setup) / max(setups, 1),
        "checkpoint.save_s": busy("checkpoint.save", setup) / max(setups, 1),
        "checkpoint.load_s": busy("checkpoint.load", setup) / max(setups, 1),
    }


def layer_table(tracer: Tracer, phase: str, phase_wall_s: float) -> list[dict]:
    """Rows of the per-layer table: calls, busy s, self s, share of phase."""
    rows = []
    for name, s in sorted(span_stats(tracer.spans, phase).items(),
                          key=lambda kv: -kv[1]["self_s"]):
        rows.append({"phase": phase, "layer": name, "calls": int(s["calls"]),
                     "busy_s": s["busy_s"], "self_s": s["self_s"],
                     "share": s["self_s"] / phase_wall_s if phase_wall_s else 0.0})
    return rows
