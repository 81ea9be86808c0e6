import ast
import dataclasses
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from trajgraph import cli
from trajgraph.autodiff import DArray
from trajgraph.checkpoint import load_checkpoint, save_checkpoint
from trajgraph.cli import main
from trajgraph.config import load_config
from trajgraph.data import SyntheticConfig, load_csv
from trajgraph.model import ModelConfig, TrajectoryModel
from trajgraph.nn import ParamStore
from trajgraph.training import TrainConfig

SMOKE_INI = """
[data]
n_scenes = 14
n_agents_min = 3
n_agents_max = 4
seed = 5

[model]
hidden_dim = 10
edge_dim = 10
attn_dim = 10

[train]
epochs = 2
batch_size = 8
strategy = GE_mixup
gamma = 0.1
learning_rate = 0.003
val_samples = 2

[eval]
samples = 3
threads = 1
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.ini"
    cfg.write_text(SMOKE_INI)
    data = root / "data"
    assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    run = root / "run"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(run)]) == 0
    return root, cfg, data, run


def test_gen_data_outputs_parse(workspace):
    _, _, data, _ = workspace
    for split in ("train", "val", "test"):
        scenes = load_csv(data / f"{split}.csv")
        assert scenes
    assert (data / "normalization.txt").exists()


def test_gen_data_deterministic(workspace, tmp_path):
    root, cfg, data, _ = workspace
    other = tmp_path / "data2"
    assert main(["gen-data", "--config", str(cfg), "--out", str(other)]) == 0
    for name in ("train.csv", "val.csv", "test.csv", "normalization.txt"):
        assert (other / name).read_bytes() == (data / name).read_bytes()


def test_gen_data_bad_ratios_exit_code(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[data]\nsplit_train = 0.5\nsplit_val = 0.1\n"
                   "split_test = 0.2\n")
    assert main(["gen-data", "--config", str(cfg),
                 "--out", str(tmp_path / "d")]) == 1


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "typo.ini"
    cfg.write_text("[train]\nepochz = 3\n")
    assert main(["gen-data", "--config", str(cfg),
                 "--out", str(tmp_path / "d")]) == 1


def test_empty_config_gives_the_dataclass_defaults(tmp_path):
    empty = tmp_path / "empty.ini"
    empty.write_text("")
    cfg = load_config(empty)
    assert cli._model_config(cfg) == ModelConfig()
    assert cli._train_config(cfg) == TrainConfig()
    synthetic, reference = cli._synthetic_config(cfg), SyntheticConfig()
    for f in dataclasses.fields(SyntheticConfig):
        np.testing.assert_array_equal(getattr(synthetic, f.name),
                                      getattr(reference, f.name))
        assert type(getattr(synthetic, f.name)) is type(getattr(reference, f.name))


def test_train_writes_log_with_gamma_column(workspace):
    _, _, _, run = workspace
    lines = (run / "train_log.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["epoch", "strategy", "train_loss", "val_loss", "L1",
                      "L2", "entropy", "density", "alpha", "gamma"]
    row = dict(zip(header, lines[1].split(",")))
    assert row["strategy"] == "GE_mixup"
    assert float(row["gamma"]) == 0.1
    assert (run / "model.ckpt").exists() and (run / "last.ckpt").exists()


def test_train_deterministic_checkpoints(workspace, tmp_path):
    root, cfg, data, run = workspace
    rerun = tmp_path / "rerun"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(rerun)]) == 0
    assert (rerun / "model.ckpt").read_bytes() == (run / "model.ckpt").read_bytes()
    assert (rerun / "train_log.csv").read_bytes() == \
        (run / "train_log.csv").read_bytes()


def test_train_non_finite_gradient_exit_code(workspace, tmp_path, capsys,
                                            monkeypatch):
    """NaN planted in two parameters' gradients after every backward: train
    exits 3 and names the first of them in store order."""
    root, cfg, data, _ = workspace
    names = ("dec.fout.0.W", "dec.fout.2.b")
    planted = []
    add, backward = ParamStore.add, DArray.backward

    def recording_add(store, name, value, trainable=True):
        arr = add(store, name, value, trainable)
        if name in names:
            planted.append(arr)
        return arr

    def nan_backward(loss):
        backward(loss)
        for p in planted:
            p.grad.flat[0] = np.nan

    monkeypatch.setattr(ParamStore, "add", recording_add)
    monkeypatch.setattr(DArray, "backward", nan_backward)
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(tmp_path / "nan")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert names[0] in err and names[1] not in err


def test_resume_continues_epoch_numbering(workspace, tmp_path):
    root, cfg, data, _ = workspace
    out = tmp_path / "resumable"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(out)]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(out), "--resume", str(out / "last.ckpt")]) == 0
    lines = (out / "train_log.csv").read_text().strip().splitlines()[1:]
    epochs = [int(line.split(",")[0]) for line in lines]
    assert epochs == [0, 1, 2, 3]


def test_resume_with_missing_records_exit_code(workspace, tmp_path, capsys):
    root, cfg, data, _ = workspace
    out = tmp_path / "resumable"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(out)]) == 0
    state = load_checkpoint(out / "last.ckpt")
    one_moment = next(k for k in state if k.startswith("opt.m."))
    for dropped in ({k for k in state if k.startswith("meta.")}, {one_moment}):
        cut = tmp_path / "cut.ckpt"
        save_checkpoint(cut, {k: v for k, v in state.items() if k not in dropped})
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(out), "--resume", str(cut)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {cut}: ") and any(k in err for k in dropped)


def test_resume_with_another_model_config_names_the_field(workspace, tmp_path, capsys):
    root, cfg, data, run = workspace
    other = tmp_path / "cfg.ini"
    other.write_text(SMOKE_INI.replace("attn_dim = 10", "attn_dim = 12"))
    capsys.readouterr()
    assert main(["train", "--config", str(other), "--data", str(data),
                 "--out", str(tmp_path / "out"), "--resume", str(run / "last.ckpt")]) == 1
    assert capsys.readouterr().err == (
        f"config error: {run / 'last.ckpt'}: resume checkpoint was built with "
        "attn_dim = 10, this run's model configuration has 12\n")


@pytest.mark.parametrize("prefix, value", [
    ("meta.best_val", np.nan),
    ("meta.alpha", np.nan),
    ("meta.alpha", 0.0),
    ("opt.m.", np.nan),
], ids=["best_val_nan", "alpha_nan", "alpha_zero", "adam_moment_nan"])
def test_resume_non_finite_record_exit_code(workspace, tmp_path, capsys, prefix, value):
    """A resume record out of its range is a data error naming the record,
    and no checkpoint is written."""
    root, cfg, data, run = workspace
    state = load_checkpoint(run / "last.ckpt")
    key = next(k for k in state if k.startswith(prefix))
    state[key] = state[key].copy()
    state[key].reshape(-1)[0] = value
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, state)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(out), "--resume", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bad}: ") and key in err
    assert not (out / "model.ckpt").exists() and not (out / "last.ckpt").exists()
    assert not out.exists()


def test_evaluate_metrics_format_and_determinism(workspace, tmp_path):
    root, cfg, data, run = workspace
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    for out in (out1, out2):
        assert main(["evaluate", "--config", str(cfg),
                     "--checkpoint", str(run / "model.ckpt"),
                     "--data", str(data), "--out", str(out),
                     "--export-trajectories"]) == 0
    metrics = (out1 / "metrics.csv").read_text().splitlines()
    assert metrics[0] == ("dataset,strategy,gamma,min_ade,min_fde,mean_ade,"
                          "mean_fde,avg_entropy,avg_density")
    values = metrics[1].split(",")
    assert values[1] == "GE_mixup"
    assert float(values[3]) <= float(values[5])   # min <= mean ADE
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    cat_lines = (out1 / "metrics_by_category.csv").read_text().splitlines()
    assert cat_lines[0].startswith("dataset,strategy,gamma,category")
    traj = (out1 / "trajectories.csv").read_text().splitlines()
    assert traj[0] == "scene_id,sample_id,agent_id,t,x,y"
    assert len(traj) > 1


def test_evaluate_draws_each_sample_once_for_metrics_and_export(
        workspace, tmp_path, monkeypatch):
    """metrics.csv and trajectories.csv come from one draw: one batched
    sampler call per group of same-size scenes."""
    root, cfg, data, run = workspace
    sizes, predict_batch = [], TrajectoryModel.predict_batch

    def counted(model, positions, *args, **kwargs):
        sizes.append(positions.shape[1])
        return predict_batch(model, positions, *args, **kwargs)

    monkeypatch.setattr(TrajectoryModel, "predict_batch", counted)
    assert main(["evaluate", "--config", str(cfg),
                 "--checkpoint", str(run / "model.ckpt"), "--data", str(data),
                 "--out", str(tmp_path / "e"), "--export-trajectories"]) == 0
    assert sizes == sorted({s.n_agents for s in load_csv(data / "test.csv")})


def test_evaluate_missing_data_exit_code(workspace, tmp_path):
    root, cfg, data, run = workspace
    assert main(["evaluate", "--config", str(cfg),
                 "--checkpoint", str(run / "model.ckpt"),
                 "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "e")]) == 2


def test_evaluate_corrupt_checkpoint_exit_code(workspace, tmp_path, capsys):
    root, cfg, data, run = workspace
    raw = (run / "model.ckpt").read_bytes()
    bad = tmp_path / "bad.ckpt"
    index_out_of_range = load_checkpoint(run / "model.ckpt")
    index_out_of_range["cfg.strategy_index"] = np.array([-1.0])
    save_checkpoint(tmp_path / "index.ckpt", index_out_of_range)
    cases = [raw[:size] for size in (6, 10, 30, len(raw) // 2, len(raw) - 3)]
    cases.append((tmp_path / "index.ckpt").read_bytes())
    for content in cases:
        bad.write_bytes(content)
        assert main(["evaluate", "--config", str(cfg), "--checkpoint", str(bad),
                     "--data", str(data), "--out", str(tmp_path / "e")]) == 2
        assert capsys.readouterr().err.startswith("data error: ")


@pytest.mark.parametrize("key, value, named", [
    ("dec.gru.0.l0.W_ih", np.nan, "dec.gru.0.l0.W_ih"),
    ("cfg.hidden_dim", 8.5, "cfg.hidden_dim"),
    ("cfg.homogeneous", 2.0, "cfg.homogeneous"),
    ("cfg.step_noise", None, "cfg.step_noise"),   # None: the record is missing
    ("cfg.temperature", 0.0, "temperature"),
    ("cfg.tau", 9.0, "tau"),
    ("cfg.n_categories", 0.0, "n_categories"),
    ("enc.emb.0.bn.run_var", -1.0, "enc.emb.0.bn.run_var"),
], ids=["non_finite_parameter", "non_integral_int_field", "bool_field_not_0_or_1",
        "missing_step_noise", "zero_temperature", "tau_past_history", "no_category",
        "negative_bn_variance"])
def test_checkpoint_record_out_of_contract_exit_code(workspace, tmp_path, capsys,
                                                     key, value, named):
    """evaluate, analyze-graphs and a resumed train reject the checkpoint
    with exit code 2, naming the file and the record or field, and write
    no output."""
    root, cfg, data, run = workspace
    for cmd, flag, source in (("evaluate", "--checkpoint", "model.ckpt"),
                              ("analyze-graphs", "--checkpoint", "model.ckpt"),
                              ("train", "--resume", "last.ckpt")):
        state = load_checkpoint(run / source)
        if value is None:
            del state[key]
        else:
            state[key] = state[key].copy()
            state[key].reshape(-1)[0] = value
        bad = tmp_path / f"bad_{source}"
        save_checkpoint(bad, state)
        capsys.readouterr()
        out = tmp_path / f"out_{cmd}"
        assert main([cmd, "--config", str(cfg), flag, str(bad), "--data", str(data),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and named in err and str(bad) in err
        assert not out.exists()


@pytest.mark.parametrize("cmd, flag, name", [
    ("evaluate", "--checkpoint", "nope.ckpt"),
    ("analyze-graphs", "--checkpoint", "nope.ckpt"),
    ("train", "--resume", "nope.ckpt"),
    ("evaluate", "--checkpoint", ""),     # the directory itself
], ids=["evaluate_missing", "analyze_graphs_missing", "resume_missing",
        "evaluate_directory"])
def test_unreadable_checkpoint_exit_code(workspace, tmp_path, capsys, cmd, flag, name):
    root, cfg, data, run = workspace
    path = tmp_path / name
    assert main([cmd, "--config", str(cfg), flag, str(path), "--data", str(data),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(path) in err
    assert not (tmp_path / "out").exists()


def _first_x(value):
    def corrupt(text):
        rows = [line.split(",") for line in text.splitlines(keepends=True)]
        rows[1][4] = value
        return "".join(",".join(r) for r in rows)
    return corrupt


_nan_first_x = _first_x("nan")


def _set_bound(key, value):
    return lambda text: re.sub(rf"^{key} = .*$", f"{key} = {value}", text,
                               flags=re.M)


def _drop_last_step(text):
    """Drop the last step of the first scene, leaving it one step short."""
    lines = text.splitlines(keepends=True)
    rows = [line.split(",") for line in lines[1:]]
    sid = rows[0][0]
    last = max(int(r[3]) for r in rows if r[0] == sid)
    return lines[0] + "".join(line for line, r in zip(lines[1:], rows)
                              if not (r[0] == sid and int(r[3]) == last))


@pytest.mark.parametrize("name, corrupt", [
    ("test.csv", _nan_first_x),
    ("normalization.txt", _set_bound("min_x", "nan")),
    ("normalization.txt", _set_bound("max_x", "inf")),
    ("normalization.txt", _set_bound("min_x", "1e9")),
    ("test.csv", _drop_last_step),
], ids=["csv_nan_x", "min_x_nan", "max_x_inf", "min_x_above_max", "csv_short_scene"])
def test_evaluate_bad_data_values_exit_code(workspace, tmp_path, capsys,
                                            name, corrupt):
    root, cfg, data, run = workspace
    bad = tmp_path / "data"
    bad.mkdir()
    for f in ("test.csv", "normalization.txt"):
        (bad / f).write_text((data / f).read_text())
    (bad / name).write_text(corrupt((data / name).read_text()))
    assert (bad / name).read_text() != (data / name).read_text()
    assert main(["evaluate", "--config", str(cfg),
                 "--checkpoint", str(run / "model.ckpt"),
                 "--data", str(bad), "--out", str(tmp_path / "e")]) == 2
    assert capsys.readouterr().err.startswith("data error: ")
    assert not (tmp_path / "e").exists()


def test_train_short_validation_scene_exit_code(workspace, tmp_path, capsys):
    root, cfg, data, run = workspace
    bad = tmp_path / "data"
    bad.mkdir()
    for f in ("train.csv", "val.csv", "test.csv", "normalization.txt"):
        (bad / f).write_text((data / f).read_text())
    # the training scenes as validation split, one of them a step short
    (bad / "val.csv").write_text(_drop_last_step((data / "train.csv").read_text()))
    short = load_csv(bad / "val.csv")[0]
    assert main(["train", "--config", str(cfg), "--data", str(bad),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert f"scene {short.scene_id} has {short.n_steps} steps" in err
    assert not (tmp_path / "out").exists()


def _drop_every_last_step(text):
    """Drop the last step of every scene, leaving the whole split one step short."""
    lines = text.splitlines(keepends=True)
    rows = [line.split(",") for line in lines[1:]]
    last = {}
    for r in rows:
        last[r[0]] = max(last.get(r[0], 0), int(r[3]))
    return lines[0] + "".join(line for line, r in zip(lines[1:], rows)
                              if int(r[3]) != last[r[0]])


def _first_agent_category(value):
    """Relabel the first agent of the first scene, in all its rows."""
    def corrupt(text):
        rows = [line.split(",") for line in text.splitlines(keepends=True)]
        for r in rows[1:]:
            if r[:2] == rows[1][:2]:
                r[2] = value
        return "".join(",".join(r) for r in rows)
    return corrupt


@pytest.mark.parametrize("cmd, split, corrupt, code, message", [
    ("train", "val", _drop_last_step, 2, "scene {} has 14 steps, model expects 15"),
    ("sweep-gamma", "val", _drop_last_step, 2, "scene {} has 14 steps"),
    ("analyze-graphs", "test", _drop_last_step, 2, "scene {} has 14 steps"),
    ("evaluate", "test", _drop_every_last_step, 2, "scene {} has 14 steps"),
    ("train", "train", _first_agent_category("3"), 1,
     "scene {}: category 3 out of range [0, 3)"),
    ("evaluate", "test", _first_x("1.5"), 2, "scene {}: coordinates outside [-1, 1]"),
], ids=["train_short_val_scene", "sweep_gamma_short_val_scene",
        "analyze_graphs_short_test_scene", "evaluate_all_short", "category_3",
        "coordinate_1_5"])
def test_scene_check_comes_before_any_work(workspace, tmp_path, capsys, monkeypatch,
                                           cmd, split, corrupt, code, message):
    """A scene the model cannot read stops every command before it creates
    --out or runs an epoch, with an error naming the scene."""
    root, cfg, data, run = workspace
    bad = tmp_path / "data"
    bad.mkdir()
    for f in ("train.csv", "val.csv", "test.csv", "normalization.txt"):
        (bad / f).write_text((data / f).read_text())
    # a validation split of the training scenes, so that one of many is short
    source = (data / ("train.csv" if split == "val" else f"{split}.csv")).read_text()
    (bad / f"{split}.csv").write_text(corrupt(source))

    def no_epoch(*args, **kwargs):
        raise AssertionError("an epoch ran before the scene check")

    monkeypatch.setattr(cli, "train", no_epoch)
    out = tmp_path / "out"
    argv = [cmd, "--config", str(cfg), "--data", str(bad), "--out", str(out)]
    if cmd in ("evaluate", "analyze-graphs"):
        argv += ["--checkpoint", str(run / "model.ckpt")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("config error: " if code == 1 else "data error: ")
    assert message.format(source.splitlines()[1].split(",")[0]) in err
    assert not out.exists()


def test_sweep_gamma_rejects_an_empty_test_split(workspace, tmp_path, capsys, monkeypatch):
    """Every gamma is scored on the test split, so an empty one stops
    sweep-gamma before the first gamma trains and before --out exists."""
    _, cfg, data, _ = workspace
    bad = tmp_path / "data"
    bad.mkdir()
    for f in ("train.csv", "val.csv", "normalization.txt"):
        (bad / f).write_text((data / f).read_text())
    (bad / "test.csv").write_text((data / "test.csv").read_text().splitlines()[0] + "\n")

    def no_epoch(*args, **kwargs):
        raise AssertionError("a gamma trained before the test split was checked")

    monkeypatch.setattr(cli, "train", no_epoch)
    out = tmp_path / "out"
    assert main(["sweep-gamma", "--config", str(cfg), "--data", str(bad),
                 "--out", str(out), "--gammas", "0,0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "test.csv holds no scenes" in err
    assert not out.exists()


def test_cli_reads_scene_files_only_in_load_split():
    """`_load_split` checks each split against the model, so no command may
    call `load_csv` anywhere else."""
    tree = ast.parse(Path(cli.__file__).read_text())
    load_split = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                      and node.name == "_load_split")

    def uses(root):
        return sum(getattr(node, "id", getattr(node, "attr", None)) == "load_csv"
                   for node in ast.walk(root))

    assert uses(tree) == uses(load_split) >= 1


def test_verify_theory_passes(capsys):
    assert main(["verify-theory", "--max-nodes", "4", "--trials", "120"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert "match" in out   # the entropy table header


def _train_ini(lines):
    return SMOKE_INI.replace("val_samples = 2", "val_samples = 2\n" + lines)


@pytest.mark.parametrize("argv, ini", [
    (["analyze-graphs", "--samples", "0", "--svg"], None),
    (["analyze-graphs"], "[eval]\nsamples = 0\n"),
    (["analyze-graphs"], "[eval]\nsplit = bogus\n"),
    (["analyze-graphs", "--samples", "-2"], None),
    (["analyze-graphs", "--quality-scenes", "-1"], None),
    (["analyze-graphs", "--svg", "--svg-scenes", "-1"], None),
    (["verify-theory", "--trials", "-5"], None),
    (["verify-theory", "--max-nodes", "1"], None),
    (["gen-data"], "[data]\nn_scenes = 14\nsplit_train = 1.5\n"
                   "split_val = -0.5\nsplit_test = 0.0\n"),
    (["gen-data"], "[data]\ninit_vel = -1\n"),
    (["gen-data"], "[data]\ninit_vel = nan\n"),
    (["train"], SMOKE_INI.replace("learning_rate = 0.003", "learning_rate = -1")),
    (["train"], SMOKE_INI.replace("learning_rate = 0.003", "learning_rate = nan")),
    (["train"], SMOKE_INI.replace("gamma = 0.1", "gamma = nan")),
    (["train"], SMOKE_INI.replace("attn_dim = 10", "attn_dim = 10\ntemperature = nan")),
    (["sweep-gamma", "--gammas", "nan"], None),
    (["train"], SMOKE_INI.replace("gamma = 0.1", "gamma = inf")),
    (["train"], _train_ini("alpha_decay_interval = 0")),
    (["train"], _train_ini("alpha_init = nan")),
    (["train"], _train_ini("alpha_init = inf")),
    (["train"], _train_ini("alpha_floor = 0\nalpha_decay_factor = 0")),
    (["train"], _train_ini("alpha_decay_factor = nan")),
    (["train"], SMOKE_INI.replace("attn_dim = 10", "attn_dim = 10\nedge_noise_scale = -1")),
    (["train"], SMOKE_INI.replace("attn_dim = 10", "attn_dim = 10\nedge_noise_scale = nan")),
    (["train"], SMOKE_INI.replace("attn_dim = 10", "attn_dim = 10\nedge_noise_scale = inf")),
    (["gen-data"], "[data]\nt_future = 0\n"),
    (["gen-data"], "[data]\nt_future = -1\n"),
    (["gen-data"], "[data]\nt_history = 0\n"),
    (["train"], SMOKE_INI.replace("seed = 5", "seed = 5\nt_future = 0")),
    (["gen-data"], "[data]\ninit_box = -1\n"),
    (["gen-data"], "[data]\ninit_box = nan\n"),
    (["gen-data"], "[data]\ndt = nan\n"),
    (["gen-data"], "[data]\ndt = inf\n"),
    (["gen-data"], "[data]\ncoupling = nan,1,1,1,1,1,1,1,1\n"),
    (["gen-data"], "[data]\ndamping = 0.1,inf,0.5\n"),
], ids=["samples_0", "eval_samples_0", "eval_split_bogus", "samples_negative",
        "quality_scenes_negative", "svg_scenes_negative", "trials_negative",
        "max_nodes_1", "split_out_of_range", "init_vel_negative", "init_vel_nan",
        "learning_rate_negative", "learning_rate_nan", "gamma_nan", "temperature_nan",
        "sweep_gamma_nan", "gamma_inf", "alpha_decay_interval_0", "alpha_init_nan",
        "alpha_init_inf", "alpha_floor_0", "alpha_decay_factor_nan",
        "edge_noise_scale_negative", "edge_noise_scale_nan", "edge_noise_scale_inf",
        "t_future_0", "t_future_negative", "t_history_0", "train_t_future_0",
        "init_box_negative", "init_box_nan", "dt_nan", "dt_inf", "coupling_nan",
        "damping_inf"])
def test_hostile_counts_are_config_errors(workspace, tmp_path, capsys, argv, ini):
    root, cfg, data, run = workspace
    if ini is not None:
        cfg = tmp_path / "hostile.ini"
        cfg.write_text(ini)
    if argv[0] == "analyze-graphs":
        argv = argv + ["--checkpoint", str(run / "model.ckpt")]
    if argv[0] in ("analyze-graphs", "train", "sweep-gamma"):
        argv = argv + ["--data", str(data)]
    if argv[0] != "verify-theory":
        argv = argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.err.startswith("config error: ") and "PASS" not in out.out
    if "nan" in argv or "= nan" in (ini or ""):
        assert "got nan" in out.err   # the message names the value
    for name in ("t_history", "t_future", "init_box", "dt", "coupling", "damping"):
        if f"{name} = " in (ini or ""):
            assert name in out.err   # the message names the field
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cmd, section", [
    ("gen-data", "data"), ("train", "train"), ("evaluate", "eval"),
    ("analyze-graphs", "eval"), ("sweep-gamma", "train"), ("verify-theory", None)])
def test_negative_seed_is_a_config_error(workspace, tmp_path, capsys, cmd, section):
    root, cfg, data, run = workspace
    argv = [cmd]
    if cmd in ("evaluate", "analyze-graphs"):
        argv += ["--checkpoint", str(run / "model.ckpt")]
    if cmd not in ("gen-data", "verify-theory"):
        argv += ["--data", str(data)]
    if cmd == "verify-theory":
        tries = [argv + ["--seed", "-1"]]
    else:
        ini = tmp_path / "seed.ini"
        ini.write_text(SMOKE_INI.replace(f"[{section}]\n", f"[{section}]\nseed = -1\n")
                       .replace("seed = 5\n", ""))
        out = ["--out", str(tmp_path / "out")]
        tries = [argv + ["--config", str(cfg), "--seed", "-1"] + out,
                 argv + ["--config", str(ini)] + out]
    for try_argv in tries:
        assert main(try_argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "got -1" in err
        assert not (tmp_path / "out").exists()


def test_verify_theory_takes_no_config():
    with pytest.raises(SystemExit) as exc:
        main(["verify-theory", "--config", "run.ini"])
    assert exc.value.code == 2   # an argparse usage error


def test_analyze_graphs_outputs(workspace, tmp_path):
    root, cfg, data, run = workspace
    out = tmp_path / "analysis"
    assert main(["analyze-graphs", "--config", str(cfg),
                 "--checkpoint", str(run / "model.ckpt"),
                 "--data", str(data), "--out", str(out),
                 "--quality-scenes", "1", "--svg", "--svg-scenes", "2"]) == 0
    stats = (out / "graph_stats.csv").read_text().splitlines()
    assert stats[0] == "scene_id,window,n_edges,density,entropy"
    for line in stats[1:]:
        parts = line.split(",")
        assert 0.0 <= float(parts[3]) <= 1.0
        assert 0.0 <= float(parts[4]) <= 1.0
    quality = dict(line.split(",") for line in
                   (out / "quality.csv").read_text().splitlines()[1:])
    for key in ("redundant_rate", "missing_rate"):
        rate = float(quality[key])
        assert rate >= 0.0
    svgs = list(out.glob("*.svg"))
    assert svgs
    for svg in svgs:
        tree = ET.parse(svg)   # well-formed XML
        assert tree.getroot().tag.endswith("svg")


def test_sweep_gamma_writes_table(workspace, tmp_path):
    root, cfg, data, _ = workspace
    out = tmp_path / "sweep"
    assert main(["sweep-gamma", "--config", str(cfg), "--data", str(data),
                 "--out", str(out), "--gammas", "0,0.5"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("gamma,mean_ade,min_ade")
    assert len(lines) == 3
