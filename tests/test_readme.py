"""The README's library quick start runs as written."""

from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The first python block in the README's `## Library quick start`."""
    section = README.read_text().split("\n## Library quick start\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_quick_start_runs(capsys):
    names = {"__name__": "quick_start"}
    exec(compile(quick_start(), str(README), "exec"), names)
    assert capsys.readouterr().out.startswith("min ADE: ")
    model, scene, future = names["model"], names["test_set"][0], names["future"]
    assert future.shape == (20, scene.n_agents, model.cfg.t_future, 2)
    metrics = names["metrics"]
    assert np.isfinite(metrics.mean_ade) and 0 <= metrics.min_ade <= metrics.mean_ade
