import numpy as np

import equivalence


def test_working_tree_matches_itself():
    """Two processes of one build give identical fingerprints: the check
    itself is deterministic, so any difference it reports is the code's."""
    src = equivalence.REPO / "src"
    report, summary = equivalence.compare(src, src)
    assert {k.split(".")[0] for k in report} == {"w32", "w128", "cli"}
    for prefix in ("w128.grad.2.dec.gru.", "w32.agents8.grad.2.dec.gru.",
                   "w32.eval_rollouts.", "w128.graph_quality.ades.",
                   "w32.graph_quality.counts", "w32.rollout_teacher",
                   "w128.predict_map.z", "cli.gen-data.train.csv",
                   "cli.train.model.ckpt", "cli.resume.last.ckpt",
                   "cli.evaluate.trajectories.csv", "cli.analyze-graphs.quality.csv"):
        assert any(k.startswith(prefix) for k in report), prefix
    assert {k: v for k, v in report.items() if v != "identical"} == {}
    assert summary == "class: identical, bit for bit"


def test_difference_reports_size_and_first_index():
    ref = np.arange(12.0).reshape(3, 4)
    other = ref.copy()
    other[1, 2] += 1e-9
    other[2, 3] -= 3e-9
    assert equivalence.difference(ref.copy(), ref) == "identical"
    assert equivalence.difference(other, ref) == "max abs 3e-09, rel 2.73e-10, first at (1, 2)"
    assert equivalence.difference(ref[:2], ref).startswith("shape (2, 4)")


def test_equivalence_class_names_the_largest_difference():
    rels = {"a": 0.0, "b": 3e-16, "c": 2e-13}
    assert equivalence.equivalence_class({"a": 0.0}) == "class: identical, bit for bit"
    assert equivalence.equivalence_class(rels) == (
        "class: within 1e-12 relative; largest difference rel 2e-13 in c")
    rels["d"] = equivalence.relative(np.array([1.0, np.nan]), np.array([1.0, 2.0]))
    assert equivalence.equivalence_class(rels) == (
        "class: beyond 1e-12 relative; largest difference rel inf in d")


def test_a_near_zero_fingerprint_is_scaled_by_its_family():
    """A batch-norm beta gradient of about 1e-20 that moves by round-off
    of its update's gradients is within 1e-12, not beyond."""
    ref = {"w32.grad.1.enc.W": np.array([1.0, -2.0]),
           "w32.grad.1.enc.bn.beta": np.array([1e-20, -3e-20]),
           "w32.grad.2.enc.bn.beta": np.array([1e-20, -3e-20]),
           "w32.loss.1": np.array(0.5)}
    new = dict(ref, **{"w32.grad.1.enc.bn.beta": np.array([1e-20, -3e-20 + 4e-28])})
    report, summary = equivalence.compare_sets(new, ref)
    assert report["w32.grad.1.enc.bn.beta"] == "max abs 4e-28, rel 2e-28, first at (1,)"
    assert summary == ("class: within 1e-12 relative; largest difference rel 2e-28 "
                       "in w32.grad.1.enc.bn.beta")
    assert equivalence.family("w32.agents8.param.2.dec.gru.0.l0.W_ih") == "w32.agents8.param.2"
    assert equivalence.family("w32.loss.1") == "w32.loss.1"
    new["w32.grad.2.enc.bn.beta"] = np.array([1e-20, -2e-20])   # its family is itself
    assert equivalence.compare_sets(new, ref)[1].startswith("class: beyond 1e-12")


def test_a_small_fingerprint_above_round_off_keeps_its_own_scale():
    """A gradient of 1e-3 in a family of 1e3 that is off by 1e-10 is a
    1e-7 difference on its own scale, beyond 1e-12, not 1e-13."""
    ref = {"w32.grad.1.enc.W": np.array([1e3, -2.0]),
           "w32.grad.1.dec.b": np.array([1e-3, 5e-4])}
    new = dict(ref, **{"w32.grad.1.dec.b": np.array([1e-3 + 1e-10, 5e-4])})
    report, summary = equivalence.compare_sets(new, ref)
    assert report["w32.grad.1.dec.b"].endswith(", first at (0,)")
    assert summary.startswith("class: beyond 1e-12 relative; largest difference rel 1e-07 ")
