import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajgraph.autodiff import DArray
from trajgraph.errors import ContractError
from trajgraph.graph_complexity import (entropy_sum, graph_entropy, majorizes,
                                        min_entropy_degree_profile,
                                        min_graph_entropy, r_degree, r_density,
                                        random_majorizing_pair,
                                        regularized_loss, verify_hlp)
from trajgraph.rng import RngStream

from oracles import (brute_force_min_entropy, enumerate_degree_vectors,
                     entropy_of_degrees, fd_probe_check, hard_entropy,
                     tape_arrays)

rng_np = np.random.default_rng(31)


def _graph_from_degrees(degrees):
    """Any concrete simple digraph realizing the given in-degree vector."""
    n = len(degrees)
    z = np.zeros((n, n))
    for j, d in enumerate(degrees):
        sources = [i for i in range(n) if i != j][: int(d)]
        z[sources, j] = 1.0
    return z


# ------------------------------------------------------------------- entropy

def test_uniform_in_degrees_give_exactly_one():
    for n in [2, 3, 4, 5]:
        z = np.ones((n, n)) - np.eye(n)
        assert graph_entropy(z) == 1.0


def test_single_hub_gives_exactly_zero():
    for n in range(2, 7):
        for e in range(0, n):  # |E| <= N-1
            z = np.zeros((n, n))
            z[1:e + 1, 0] = 1.0
            assert graph_entropy(z) == 0.0


def test_three_node_example_value():
    # edges 0->1 and 0->2: p = (0, 1/2, 1/2) -> H = ln2/ln3
    z = np.zeros((3, 3))
    z[0, 1] = z[0, 2] = 1.0
    assert graph_entropy(z) == pytest.approx(math.log(2) / math.log(3), abs=1e-15)


def test_entropy_rejects_tiny_or_dirty_graphs():
    with pytest.raises(ContractError):
        graph_entropy(np.zeros((1, 1)))
    bad = np.zeros((3, 3))
    bad[0, 0] = 1.0
    with pytest.raises(ContractError):
        graph_entropy(bad)
    with pytest.raises(ContractError):
        graph_entropy(np.full((3, 3), -1.0) + np.eye(3))


def test_entropy_invariant_under_relabeling():
    z = (rng_np.uniform(size=(6, 6)) < 0.4).astype(float)
    np.fill_diagonal(z, 0.0)
    h = graph_entropy(z)
    for _ in range(10):
        perm = rng_np.permutation(6)
        assert graph_entropy(z[np.ix_(perm, perm)]) == pytest.approx(h, abs=1e-12)


def test_relaxed_entropy_matches_hard_on_binary_graphs():
    z = (rng_np.uniform(size=(5, 5)) < 0.5).astype(float)
    np.fill_diagonal(z, 0.0)
    assert graph_entropy(DArray(z)).item() == pytest.approx(hard_entropy(z), abs=1e-9)


def test_relaxed_entropy_empty_graph_is_zero():
    assert graph_entropy(DArray(np.zeros((4, 4)))).item() == 0.0


def test_relaxed_entropy_batched_shape():
    z = rng_np.uniform(0.01, 0.99, size=(3, 4, 4))
    for i in range(3):
        np.fill_diagonal(z[i], 0.0)
    out = graph_entropy(DArray(z))
    assert out.shape == (3,)


def test_entropy_boundary_values_are_exact_on_both_inputs():
    n = 4
    hub = np.zeros((n, n))
    hub[1:, 0] = 1.0
    z = np.stack([np.zeros((n, n)), np.ones((n, n)) - np.eye(n), hub,
                  rng_np.uniform(0.05, 0.95, size=(n, n)) * (1 - np.eye(n))])
    plain = graph_entropy(z)
    assert isinstance(plain, np.ndarray) and plain.tolist()[:3] == [0.0, 1.0, 0.0]
    zd = DArray(z, requires_grad=True)
    out = graph_entropy(zd)
    np.testing.assert_array_equal(out.data, plain)
    out.sum().backward()
    # the empty and the uniform graph pass no gradient; the relaxed one does
    assert (zd.grad[:2] == 0).all() and (zd.grad[3] != 0).any()


def test_entropy_boundary_rows_alone_add_tape_nodes():
    z = rng_np.uniform(0.05, 0.95, size=(2, 4, 4)) * (1 - np.eye(4))
    relaxed = len(tape_arrays(graph_entropy(DArray(z, requires_grad=True)))[0])
    z[1] = 0.0
    assert len(tape_arrays(graph_entropy(DArray(z, requires_grad=True)))[0]) == relaxed + 2


def test_batched_hard_entropy_matches_oracle():
    """One call over stacked hard graphs against the per-graph reference,
    which sums the positive in-degrees only."""
    worst = 0.0
    for n in range(2, 15):
        z = (rng_np.uniform(size=(400, n, n)) < rng_np.uniform(size=(400, 1, 1)))
        z = z * (1 - np.eye(n))
        got = graph_entropy(z)
        assert got.shape == (400,)
        worst = max(worst, max(abs(g - hard_entropy(zi)) for g, zi in zip(got, z)))
    assert worst <= 1e-15
    assert isinstance(graph_entropy(z[0]), float) and isinstance(r_density(z[0]), float)


def test_relaxed_entropy_gradient_matches_fd():
    z = rng_np.uniform(0.05, 0.95, size=(4, 4))
    np.fill_diagonal(z, 0.0)
    zd = DArray(z, requires_grad=True)
    fd_probe_check(lambda: graph_entropy(zd), [zd], rng_np,
                   n_probes=16, rtol=1e-5, atol=1e-8)


# ------------------------------------------------------------- minimum value

def test_min_entropy_boundary_case():
    assert min_graph_entropy(4, 3) == 0.0


def test_min_entropy_worked_example():
    expected = ((3 / 5) * math.log(5 / 3) - (2 / 5) * math.log(2 / 5)) / math.log(4)
    assert min_graph_entropy(4, 5) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.48548, abs=5e-6)


def test_min_entropy_full_graph_is_one():
    assert min_graph_entropy(4, 12) == pytest.approx(1.0, abs=1e-15)


def test_min_entropy_range_checks():
    with pytest.raises(ContractError):
        min_graph_entropy(4, 13)
    with pytest.raises(ContractError):
        min_graph_entropy(4, -1)


def test_min_entropy_matches_brute_force_small():
    for n in range(2, 6):
        for e in range(0, n * (n - 1) + 1):
            brute = brute_force_min_entropy(n, e)
            assert min_graph_entropy(n, e) == pytest.approx(brute, abs=1e-12), (n, e)


def test_min_entropy_profile_attains_minimum():
    for n, e in [(4, 5), (5, 9), (6, 17)]:
        profile = min_entropy_degree_profile(n, e)
        assert profile.sum() == e
        z = _graph_from_degrees(profile)
        assert graph_entropy(z) == pytest.approx(min_graph_entropy(n, e), abs=1e-12)


def test_min_entropy_nondecreasing_in_edges():
    for n in range(2, 9):
        values = [min_graph_entropy(n, e) for e in range(n * (n - 1) + 1)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_entropy_bounds_exhaustive_small_graphs():
    for n in range(2, 6):
        for e in range(0, n * (n - 1) + 1):
            lo = min_graph_entropy(n, e)
            for vec in enumerate_degree_vectors(n, e):
                h = entropy_of_degrees(vec, n)
                assert lo - 1e-12 <= h <= 1.0 + 1e-12


# ---------------------------------------------------------------- majorization

def test_majorizes_reflexive():
    for _ in range(20):
        x = rng_np.uniform(size=5)
        x /= x.sum()
        assert majorizes(x, x)


def test_majorizes_hand_checked_pair():
    assert majorizes([0.7, 0.2, 0.1], [0.5, 0.3, 0.2])
    assert not majorizes([0.5, 0.3, 0.2], [0.7, 0.2, 0.1])


def test_majorizes_incomparable_pair():
    a, b = [0.5, 0.5, 0.0], [0.6, 0.2, 0.2]
    assert not majorizes(a, b)
    assert not majorizes(b, a)


def test_majorizes_requires_equal_sums():
    with pytest.raises(ContractError):
        majorizes([0.5, 0.5], [0.5, 0.6])


def test_majorizes_transitive_on_random_triples():
    rng = RngStream(17).child(0)
    checked = 0
    while checked < 200:
        x, y = random_majorizing_pair(rng, 6)
        _, z = random_majorizing_pair(rng, 6)
        # rebuild z as a robin-hood image of y so x > y > z
        y2 = y.copy()
        for _ in range(4):
            i, j = rng.integers(0, 6, size=2)
            if y2[i] == y2[j]:
                continue
            if y2[i] < y2[j]:
                i, j = j, i
            d = 0.5 * rng.uniform() * (y2[i] - y2[j])
            y2[i] -= d
            y2[j] += d
        assert majorizes(x, y) and majorizes(y, y2)
        assert majorizes(x, y2)
        checked += 1


def test_hlp_extreme_elements():
    for _ in range(20):
        y = rng_np.uniform(size=6)
        y /= y.sum()
        point = np.zeros(6)
        point[0] = 1.0
        assert verify_hlp(point, y)          # entropy(point) = 0 <= entropy(y)
        uniform = np.full(6, 1 / 6)
        assert verify_hlp(y, uniform)        # entropy(y) <= ln 6
        assert entropy_sum(uniform) == pytest.approx(math.log(6), abs=1e-12)


def test_hlp_random_constructed_pairs():
    rng = RngStream(29).child(0)
    for _ in range(1000):
        x, y = random_majorizing_pair(rng, int(rng.integers(3, 9)))
        assert verify_hlp(x, y)


def test_hlp_precondition_enforced():
    with pytest.raises(ContractError):
        verify_hlp([0.5, 0.3, 0.2], [0.7, 0.2, 0.1])


# ------------------------------------------------------------------ penalties

def test_penalties_on_empty_and_full_graphs():
    n = 5
    empty = np.zeros((n, n))
    full = np.ones((n, n)) - np.eye(n)
    assert r_density(empty) == 0.0 and r_degree(empty) == 0.0
    assert r_density(full) == 1.0
    assert r_degree(full) == pytest.approx((n - 1) / n)


def test_penalties_worked_example():
    # in-degrees (3, 1, 0, 0): density 4/12, degree 3/4
    z = np.zeros((4, 4))
    z[[1, 2, 3], 0] = 1.0
    z[0, 1] = 1.0
    assert r_density(z) == pytest.approx(1 / 3)
    assert r_degree(z) == pytest.approx(3 / 4)


def test_penalty_gradients_match_fd():
    z = rng_np.uniform(0.05, 0.95, size=(4, 4))
    np.fill_diagonal(z, 0.0)
    zd = DArray(z, requires_grad=True)
    fd_probe_check(lambda: r_density(zd), [zd], rng_np, n_probes=8, rtol=1e-5)
    # keep probes away from max ties
    fd_probe_check(lambda: r_degree(zd), [zd], rng_np, n_probes=8, rtol=1e-5)


def test_regularized_loss_gamma_zero_is_identity_object():
    recon = DArray(np.array(1.25), requires_grad=True)
    z = DArray(rng_np.uniform(size=(3, 3)))
    out = regularized_loss(recon, [z], gamma=0.0, penalty="entropy")
    assert out is recon


def test_regularized_loss_arithmetic():
    recon = DArray(np.array(1.0))
    z = np.zeros((4, 4))
    z[0, 1] = z[0, 2] = z[0, 3] = 1.0  # wait: edges into 1,2,3 from 0
    # build a graph with known entropy 0.5 instead: use two hub columns
    # simpler: check formula with entropy computed on the fly
    zd = DArray(z)
    h = graph_entropy(zd).item()
    out = regularized_loss(recon, [zd], gamma=10.0, penalty="entropy")
    assert out.item() == pytest.approx(1.0 + 10.0 * h, abs=1e-12)


def test_regularized_loss_gradient_matches_fd():
    z1 = rng_np.uniform(0.05, 0.95, size=(4, 4))
    z2 = rng_np.uniform(0.05, 0.95, size=(4, 4))
    for z in (z1, z2):
        np.fill_diagonal(z, 0.0)
    zd1 = DArray(z1, requires_grad=True)
    zd2 = DArray(z2, requires_grad=True)
    recon = DArray(np.array(0.5), requires_grad=True)
    fd_probe_check(
        lambda: regularized_loss(recon, [zd1, zd2], gamma=3.0, penalty="entropy"),
        [zd1, zd2, recon], rng_np, n_probes=20, rtol=1e-4, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.floats(0.0, 1.0))
def test_relaxed_entropy_in_unit_interval(n, fill):
    z = np.full((n, n), fill)
    np.fill_diagonal(z, 0.0)
    h = graph_entropy(DArray(z)).item()
    assert -1e-12 <= h <= 1.0 + 1e-12
