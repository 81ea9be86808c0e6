"""Differential check of fixed-seed outputs between two builds of `src/`.

    python tests/equivalence.py <rev>

exports `<rev>`'s `src/` with `git archive` into a temporary directory,
computes one fixed fingerprint set under that build and under the working
tree's `src/`, each build in its own process with OpenBLAS pinned to one
thread, and prints one line per fingerprint: `identical`, or the largest
absolute and relative difference and the first index where they differ.
A difference is relative to the largest magnitude in `<rev>`'s values of
the fingerprint. A fingerprint whose largest magnitude is below
`ROUND_OFF` times that of its family (`family`: one update's gradients,
one Adam step's parameters) is zero up to round-off, and its difference is
relative to the family's largest magnitude instead. It exits 0 when every
fingerprint is identical and 1 otherwise.

The fingerprint set, at hidden widths 32 and 128 (prefix `w32.`, `w128.`):

- one GE_mixup update pair, `training.train` for one epoch on one batch of
  six 4-agent scenes: the three rollouts (`rollout.1` the first update's,
  `rollout.2` the free run, `rollout.3` the no-grad target), both losses
  (`loss.1`, `loss.2`), every gradient by checkpoint name
  (`grad.<update>.<name>`) and every parameter after each Adam step
  (`param.<update>.<name>`);
- `TrajectoryModel.predict_batch` of the updated model on that batch and
  a `StackedStream` of K = 3 streams, in sample mode
  (`sample_rollouts.preds`, `.z`) and in map mode
  (`sample_rollouts_map.preds`, `.z`): the predictions, reshaped to
  (K, B, N, T, 2), and the edge weights;
- on that batch too, a teacher-forced `rollout` on graphs inferred from
  the truth (`rollout_teacher`), and the edge audit's `predict_batch`:
  map mode on one stream (`predict_map.preds`, `.z`);
- the same update pair on one batch of twelve 8-agent scenes, prefixed
  `agents8.`: its rows outweigh every C-stacked weight at width 32, so
  each weight-gradient term is formed on its own;
- `evaluation.eval_rollouts` of that model on a split of six 4- to
  8-agent scenes, K = 3: each scene's rollouts and sampled graphs
  (`eval_rollouts.<scene>.preds`, `.z`);
- `evaluation.graph_quality` of that model on the split's first two
  scenes, two rollouts per probe: the report's counts
  (`graph_quality.counts`) and every probe's rollout ADEs in call order
  (`graph_quality.ades.<call>`). At width 32 that model's MAP graphs hold
  no edge, so both scenes are skipped and only the counts compare.

A MAP graph has noise-free edge features. A build whose `predict_batch`
still takes `edge_noise_scale` (its map mode kept the edge noise) is
asked for a scale of 0 in map mode, so both builds compute one quantity.

Once, at the `tests/test_cli.py` smoke config (prefix `cli.`): the bytes
of every file that each step of its command-line run writes, as
`cli.<step>.<file>`: gen-data, train (`model.ckpt`, `last.ckpt`, the
log), train --resume from that `last.ckpt` into the same directory,
evaluate with --export-trajectories, and analyze-graphs with --svg.

After the fingerprints the report names the equivalence class: identical
(bit for bit), within 1e-12 relative, or beyond, with the largest relative
difference and its fingerprint.

`compare(src_a, src_b)` runs the check between two source directories
without git; `tests/test_equivalence.py` runs the working tree against
itself.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
WIDTHS = (32, 128)
FAMILY = re.compile(r"(.*?\b(?:grad|param)\.\d+)\.")
ROUND_OFF = 1e-12


@contextlib.contextmanager
def _recorded_update(out: dict, prefix: str):
    """Record, under `prefix`, the rollouts, losses, gradients and Adam
    steps of the training run inside the block."""
    from trajgraph import training
    from trajgraph.model import TrajectoryModel

    counts = {"rollout": 0, "update": 0, "step": 0}
    rollout, gradients, adam_step = (TrajectoryModel.rollout, training.gradients,
                                     training.Adam.step)

    def recorded_rollout(self, *args, **kwargs):
        preds = rollout(self, *args, **kwargs)
        counts["rollout"] += 1
        out[f"{prefix}rollout.{counts['rollout']}"] = preds.data.copy()
        return preds

    def recorded_gradients(loss, store):
        grads = gradients(loss, store)
        counts["update"] += 1
        n = counts["update"]
        out[f"{prefix}loss.{n}"] = loss.data.copy()
        out.update({f"{prefix}grad.{n}.{k}": g.copy() for k, g in grads.items()})
        return grads

    def recorded_step(self, grads):
        adam_step(self, grads)
        counts["step"] += 1
        out.update({f"{prefix}param.{counts['step']}.{k}": p.data.copy()
                    for k, p in self.store.trainable_items()})

    TrajectoryModel.rollout, training.gradients = recorded_rollout, recorded_gradients
    training.Adam.step = recorded_step
    try:
        yield
    finally:
        TrajectoryModel.rollout, training.gradients = rollout, gradients
        training.Adam.step = adam_step


def fingerprints(width: int) -> dict[str, np.ndarray]:
    """The fingerprint set at one width, from whichever `trajgraph` is
    importable."""
    from trajgraph import training
    from trajgraph.data import SyntheticConfig, generate_synthetic
    from trajgraph.evaluation import ModelGraphProbe, eval_rollouts, graph_quality
    from trajgraph.model import ModelConfig, TrajectoryModel
    from trajgraph.rng import RngStream, StackedStream

    out: dict[str, np.ndarray] = {}
    mcfg = ModelConfig(hidden_dim=width, edge_dim=width, attn_dim=width)

    def update_pair(n_scenes, n_agents, prefix):
        scenes, _ = generate_synthetic(SyntheticConfig(
            n_scenes=n_scenes, n_agents_min=n_agents, n_agents_max=n_agents, seed=0))
        model = TrajectoryModel(mcfg, seed=0)
        cfg = training.TrainConfig(epochs=1, batch_size=len(scenes), strategy="GE_mixup",
                                   gamma=0.02, learning_rate=3e-3, seed=0)
        with _recorded_update(out, prefix):
            training.train(model, cfg, scenes, [])
        return model, scenes

    model, scenes = update_pair(6, 4, "")
    pos, cats, _ = next(TrajectoryModel.batch_scenes(scenes))
    map_kw = ({"edge_noise_scale": 0.0}
              if "edge_noise_scale" in inspect.signature(model.predict_batch).parameters
              else {})
    for name, seed, mode, kw in (("sample_rollouts", 0, "sample", {}),
                                 ("sample_rollouts_map", 2, "map", map_kw)):
        streams = StackedStream([RngStream(seed).child(k) for k in range(3)])
        preds, graphs = model.predict_batch(pos, cats, streams, sample_mode=mode, **kw)
        out[f"{name}.preds"] = preds.reshape((3,) + pos.shape)
        out[f"{name}.z"] = np.stack([g.z.data for g in graphs])
    graphs = model.infer_graphs_from_truth(pos, RngStream(1).child(0))
    out["rollout_teacher"] = model.rollout(pos, cats, graphs, RngStream(1).child(1),
                                           input_mode="teacher").data
    preds, graphs = model.predict_batch(pos, cats, RngStream(1).child(2),
                                        sample_mode="map", **map_kw)
    out["predict_map.preds"] = preds
    out["predict_map.z"] = np.stack([g.z.data for g in graphs])

    model, _ = update_pair(12, 8, "agents8.")
    split, _ = generate_synthetic(SyntheticConfig(n_scenes=6, n_agents_min=4,
                                                  n_agents_max=8, seed=1))
    for scene, preds, z in zip(split, *eval_rollouts(model, split, 3, seed=0)):
        out[f"eval_rollouts.{scene.scene_id}.preds"] = preds
        out[f"eval_rollouts.{scene.scene_id}.z"] = z

    probe = ModelGraphProbe(model, n_rollouts=2)
    rollout_ades, ades = probe.rollout_ades, []

    def recorded_ades(*args):
        ades.append(rollout_ades(*args))
        return ades[-1]

    probe.rollout_ades = recorded_ades
    report = graph_quality(probe, split[:2], seed=0)
    out.update({f"graph_quality.ades.{i}": a for i, a in enumerate(ades)})
    out["graph_quality.counts"] = np.array([report.n_edges, report.n_redundant,
                                            report.n_missing, report.n_scenes,
                                            report.n_skipped])
    return {f"w{width}.{k}": v for k, v in out.items()}


def cli_fingerprints() -> dict[str, np.ndarray]:
    """The bytes of every file the command-line smoke run writes, step by
    step, from whichever `trajgraph` is importable."""
    from test_cli import SMOKE_INI
    from trajgraph.cli import main

    out: dict[str, np.ndarray] = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        root = Path(tmp)
        cfg, data, run = root / "cfg.ini", root / "data", root / "run"
        cfg.write_text(SMOKE_INI)
        data_arg, model = ["--data", str(data)], ["--checkpoint", str(run / "model.ckpt")]
        steps = [("gen-data", "gen-data", data, []),
                 ("train", "train", run, data_arg),
                 ("resume", "train", run, [*data_arg, "--resume", str(run / "last.ckpt")]),
                 ("evaluate", "evaluate", root / "eval",
                  [*data_arg, *model, "--export-trajectories"]),
                 ("analyze-graphs", "analyze-graphs", root / "graphs",
                  [*data_arg, *model, "--svg"])]
        for step, cmd, written, extra in steps:
            if main([cmd, "--config", str(cfg), "--out", str(written), *extra]) != 0:
                raise RuntimeError(f"command-line step {step} failed")
            out.update({f"cli.{step}.{f.name}": np.frombuffer(f.read_bytes(), np.uint8)
                        for f in sorted(written.iterdir())})
    return out


def family(name: str) -> str:
    """The family whose largest reference magnitude scales a round-off
    difference in fingerprint `name`: `<prefix>grad.<n>` for one update's gradients,
    `<prefix>param.<n>` for one step's parameters, else `name` alone."""
    match = FAMILY.match(name)
    return match.group(1) if match else name


def relative(a: np.ndarray, b: np.ndarray, scale: float | None = None) -> float:
    """The largest |a - b| over `scale` (default: the largest |b|): 0 when
    a and b are identical, inf when their shapes differ, the scale is 0 or
    a NaN sits in one only."""
    if a.shape != b.shape:
        return np.inf
    if np.array_equal(a, b, equal_nan=True):
        return 0.0
    scale = np.abs(b).max() if scale is None else scale
    rel = _abs_diff(a, b).max() / scale if scale > 0 else np.inf
    return float(rel) if rel == rel else np.inf


def _abs_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| in float64, so file bytes (uint8) do not wrap."""
    return np.abs(a.astype(np.float64) - b)


def difference(a: np.ndarray, b: np.ndarray, scale: float | None = None) -> str:
    """`identical`, or how `a` differs from the reference `b`; `scale` as
    in `relative`."""
    if a.shape != b.shape:
        return f"shape {a.shape} against {b.shape}"
    rel = relative(a, b, scale)
    if rel == 0:
        return "identical"
    first = tuple(int(i) for i in np.argwhere(a != b)[0])
    return f"max abs {_abs_diff(a, b).max():.3g}, rel {rel:.3g}, first at {first}"


def equivalence_class(rels: dict[str, float]) -> str:
    """The line that names the class of a comparison from each
    fingerprint's `relative` difference."""
    worst = max(rels, key=rels.get)
    if rels[worst] == 0:
        return "class: identical, bit for bit"
    kind = "within 1e-12 relative" if rels[worst] <= 1e-12 else "beyond 1e-12 relative"
    return f"class: {kind}; largest difference rel {rels[worst]:.3g} in {worst}"


def _run_builds(srcs: list[Path], tmp: Path) -> list[dict[str, np.ndarray]]:
    """The fingerprint set of every build, each in its own process."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    jobs = []
    for i, src in enumerate(srcs):
        path = tmp / f"build{i}.npz"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--fingerprint", str(path)]
        jobs.append((path, subprocess.Popen(
            cmd, env=dict(env, PYTHONPATH=str(src)), stderr=subprocess.PIPE, text=True)))
    errors = [proc.communicate()[1] for _, proc in jobs]
    results = []
    for (path, proc), err in zip(jobs, errors):
        if proc.returncode != 0:
            raise RuntimeError(f"fingerprint run failed:\n{err}")
        with np.load(path) as f:
            results.append(dict(f))
    return results


def compare_sets(new: dict[str, np.ndarray], ref: dict[str, np.ndarray]
                 ) -> tuple[dict[str, str], str]:
    """`difference` of every fingerprint in `new` from `ref`, scaled by its
    own largest magnitude in `ref`, or by its family's when its own is
    round-off (`ROUND_OFF`); a fingerprint only one set has reported so,
    and the comparison's `equivalence_class` line."""
    own = {k: float(np.abs(v).max(initial=0.0)) for k, v in ref.items()}
    families: dict[str, float] = {}
    for k, m in own.items():
        families[family(k)] = max(families.get(family(k), 0.0), m)
    scales = {k: m if m >= ROUND_OFF * families[family(k)] else families[family(k)]
              for k, m in own.items()}
    report = {k: difference(new[k], ref[k], scales[k]) for k in ref if k in new}
    report.update({k: "only in the reference build" for k in ref if k not in new})
    report.update({k: "only in the compared build" for k in new if k not in ref})
    rels = {k: relative(new[k], ref[k], scales[k])
            if k in new and k in ref else np.inf for k in report}
    return report, equivalence_class(rels)


def compare(src: Path, ref_src: Path) -> tuple[dict[str, str], str]:
    """`compare_sets` of the fingerprints of the build in `src` and of the
    build in `ref_src`."""
    with tempfile.TemporaryDirectory() as tmp:
        new, ref = _run_builds([Path(src), Path(ref_src)], Path(tmp))
    return compare_sets(new, ref)


def export_src(rev: str, dest: Path) -> Path:
    """`rev`'s `src/` under `dest`, from `git archive`."""
    tar = subprocess.run(["git", "-C", str(REPO), "archive", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")
    return dest / "src"


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--fingerprint":
        np.savez(argv[1], **{k: v for w in WIDTHS for k, v in fingerprints(w).items()},
                 **cli_fingerprints())
        return 0
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        try:
            ref_src = export_src(argv[0], Path(tmp))
        except subprocess.CalledProcessError as e:
            print(f"cannot export {argv[0]}: {e.stderr.decode().strip()}", file=sys.stderr)
            return 2
        report, summary = compare(REPO / "src", ref_src)
    width = max(map(len, report))
    for name, verdict in report.items():
        print(f"{name:<{width}}  {verdict}")
    same = sum(v == "identical" for v in report.values())
    print(f"{same} of {len(report)} fingerprints identical against {argv[0]}")
    print(summary)
    return 0 if same == len(report) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
