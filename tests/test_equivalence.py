import numpy as np

import equivalence


def test_working_tree_matches_itself():
    """Two processes of one build give identical fingerprints: the check
    itself is deterministic, so any difference it reports is the code's."""
    src = equivalence.REPO / "src"
    report = equivalence.compare(src, src)
    assert {k.split(".")[0] for k in report} == {"w32", "w128"}
    assert any(k.startswith("w128.grad.2.dec.gru.") for k in report)
    assert {k: v for k, v in report.items() if v != "identical"} == {}


def test_difference_reports_size_and_first_index():
    ref = np.arange(12.0).reshape(3, 4)
    other = ref.copy()
    other[1, 2] += 1e-9
    other[2, 3] -= 3e-9
    assert equivalence.difference(ref.copy(), ref) == "identical"
    assert equivalence.difference(other, ref) == "max abs 3e-09, rel 2.73e-10, first at (1, 2)"
    assert equivalence.difference(ref[:2], ref).startswith("shape (2, 4)")
