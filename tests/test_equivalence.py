import numpy as np

import equivalence


def test_working_tree_matches_itself():
    """Two processes of one build give identical fingerprints: the check
    itself is deterministic, so any difference it reports is the code's."""
    src = equivalence.REPO / "src"
    report, summary = equivalence.compare(src, src)
    assert {k.split(".")[0] for k in report} == {"w32", "w128"}
    for prefix in ("w128.grad.2.dec.gru.", "w32.agents8.grad.2.dec.gru.",
                   "w32.eval_rollouts.", "w128.graph_quality.ades.",
                   "w32.graph_quality.counts"):
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
