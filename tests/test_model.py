"""Tests for the dyad-independent null model and strategic-formation simulator.

Oracles: the log-likelihood is recounted with explicit per-pair loops, the
gradient is checked against central finite differences in the full parameter
layout, and the MLE against the moment-matching conditions it must satisfy.
"""

import math
import random

import numpy as np
import pytest
from scipy import stats as sps

import netformtest as nt
from netformtest.graphs import cross_link_matrix, degree_sequence
from netformtest.model import _null_gradient, logistic_pdf

from _fixtures import random_delta, random_digraph, random_groups


def logit(p):
    return math.log(p / (1.0 - p))


def make_Z(g):
    Z = np.zeros((g.n_nodes, g.n_groups))
    Z[np.arange(g.n_nodes), np.asarray(g.codes)] = 1.0
    return Z


def fitted_probabilities(delta, g):
    mu = nt.systematic_utility(delta, g)
    P = nt.logistic_cdf(np.where(np.isnan(mu), 0.0, mu))
    np.fill_diagonal(P, 0.0)
    return P


def interior_digraph(n, K, p, seed):
    """A random digraph/grouping pair whose margins are all strictly interior."""
    rng = random.Random(seed)
    while True:
        d = random_digraph(n, p, rng)
        g = random_groups(n, K, rng)
        degs = d.out_degrees() + d.in_degrees()
        if any(x in (0, n - 1) for x in degs):
            continue
        m = cross_link_matrix(d, g).as_array()
        sizes = np.bincount(np.asarray(g.codes), minlength=K)
        caps = sizes[:, None] * sizes[None, :] - np.diag(sizes)
        if ((m == 0) & (caps > 0)).any() or (m == caps).any():
            continue
        return d, g


# -- logistic building blocks ---------------------------------------------------


def test_logistic_cdf_matches_reference_distribution():
    x = np.linspace(-30, 30, 201)
    assert np.allclose(nt.logistic_cdf(x), sps.logistic.cdf(x), atol=1e-14)
    assert nt.logistic_cdf(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-15)


def test_logistic_cdf_is_overflow_safe():
    # exp underflowing to zero is the intended safe path; only real trouble
    # (overflow, invalid operations, division) should be impossible
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        vals = nt.logistic_cdf(np.array([-800.0, 800.0]))
    assert vals.tolist() == [0.0, 1.0]


def test_logistic_cdf_symmetry():
    x = np.linspace(-8, 8, 33)
    assert np.allclose(nt.logistic_cdf(x) + nt.logistic_cdf(-x), 1.0, atol=1e-15)


def test_logistic_pdf_matches_reference_density():
    x = np.linspace(-10, 10, 81)
    assert np.allclose(logistic_pdf(x), sps.logistic.pdf(x), atol=1e-14)
    assert logistic_pdf(np.array([0.0]))[0] == pytest.approx(0.25, abs=1e-15)


# -- parameters and systematic utility --------------------------------------------


def test_nuisance_params_validation():
    with pytest.raises(ValueError, match="equal-length"):
        nt.NuisanceParams(np.zeros(3), np.zeros(4), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="square"):
        nt.NuisanceParams(np.zeros(3), np.zeros(3), np.zeros((1, 2)))
    delta = nt.NuisanceParams(np.zeros(5), np.zeros(5), np.zeros((2, 2)))
    assert delta.n_nodes == 5
    assert delta.n_groups == 2


def test_systematic_utility_hand_example():
    delta = nt.NuisanceParams(
        np.array([0.5, -1.0, 2.0]),
        np.array([0.25, 0.75, -0.5]),
        np.array([[0.0, 3.0], [-3.0, 1.0]]),
    )
    g = nt.GroupAssignment((0, 1, 0), 2)
    mu = nt.systematic_utility(delta, g)
    assert mu[0, 1] == pytest.approx(0.5 + 0.75 + 3.0)
    assert mu[1, 0] == pytest.approx(-1.0 + 0.25 + (-3.0))
    assert mu[2, 1] == pytest.approx(2.0 + 0.75 + 3.0)
    assert mu[0, 2] == pytest.approx(0.5 + (-0.5) + 0.0)
    assert np.isnan(np.diag(mu)).all()


def test_systematic_utility_shape_mismatches():
    delta = nt.NuisanceParams(np.zeros(3), np.zeros(3), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="length"):
        nt.systematic_utility(delta, nt.GroupAssignment.single_group(4))
    with pytest.raises(ValueError, match="group count"):
        nt.systematic_utility(delta, nt.GroupAssignment((0, 1, 0), 2))


# -- strategic specifications ------------------------------------------------------


def test_reciprocity_counts_the_return_arc():
    spec = nt.reciprocity_spec()
    d = nt.from_edge_list([(0, 1), (1, 0), (1, 2)], 3)
    assert nt.strategic_term(d, 0, 1, spec) == 1
    assert nt.strategic_term(d, 1, 0, spec) == 1
    assert nt.strategic_term(d, 1, 2, spec) == 0
    assert nt.strategic_term(d, 2, 1, spec) == 1


def test_transitivity_counts_two_paths():
    spec = nt.transitivity_spec(4)
    d = nt.from_edge_list([(0, 1), (1, 2), (0, 3), (3, 2)], 4)
    assert nt.strategic_term(d, 0, 2, spec) == 2  # via 1 and via 3
    assert nt.strategic_term(d, 0, 1, spec) == 0
    assert nt.strategic_term(d, 1, 3, spec) == 0
    n = 5
    complete = nt.from_edge_list(
        [(i, j) for i in range(n) for j in range(n) if i != j], n
    )
    spec5 = nt.transitivity_spec(n)
    assert all(
        nt.strategic_term(complete, i, j, spec5) == n - 2
        for i in range(n)
        for j in range(n)
        if i != j
    )


def test_customer_product_multiplies_out_degrees():
    # sender 0 keeps 2 other arcs, target 1 sends 2, so s_01 = 2 * 2
    spec = nt.customer_product_spec(6)
    d = nt.from_edge_list([(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)], 6)
    assert nt.strategic_term(d, 0, 1, spec) == 4
    assert nt.strategic_term(d, 1, 0, spec) == 2 * 3
    assert nt.strategic_term(d, 2, 3, spec) == 0
    assert nt.strategic_term(d, 0, 4, spec) == 3 * 0


def test_pair_and_matrix_forms_agree():
    rng = random.Random(61)
    for _ in range(25):
        n = rng.randrange(3, 9)
        d = random_digraph(n, 0.4, rng)
        a = d.to_array()
        for kind in ("reciprocity", "transitivity", "customer_product"):
            spec = nt.strategic_spec(kind, n)
            s = spec.matrix_fn(a)
            for i in range(n):
                for j in range(n):
                    if i != j:
                        assert s[i, j] == spec.pair_fn(d, i, j)
    # The complete digraph at n = 200 has the largest two-path counts; the
    # float64 products must equal the int64 product exactly.
    n = 200
    a = 1 - np.eye(n, dtype=np.uint8)
    a64 = a.astype(np.int64)
    two_paths = a64 @ a64
    s = nt.strategic_spec("transitivity", n).matrix_fn(a)
    assert np.array_equal(s, two_paths)
    n_paths = int(two_paths.sum() - np.trace(two_paths))
    n_closed = int((two_paths * a64).sum())
    d = nt.AdjacencyMatrix.from_dense(a)
    assert nt.transitivity_index(d) == n_closed / n_paths


def test_own_arc_never_enters_the_strategic_term():
    rng = random.Random(67)
    for _ in range(25):
        n = rng.randrange(3, 8)
        d = random_digraph(n, 0.5, rng)
        for kind in ("reciprocity", "transitivity", "customer_product"):
            spec = nt.strategic_spec(kind, n)
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    before = spec.pair_fn(d, i, j)
                    d.set_arc(i, j, not d.has_arc(i, j))
                    assert spec.pair_fn(d, i, j) == before
                    d.set_arc(i, j, not d.has_arc(i, j))


def test_strategic_terms_respect_declared_bounds():
    rng = random.Random(71)
    for _ in range(20):
        n = rng.randrange(3, 8)
        d = random_digraph(n, 0.5, rng)
        for kind in ("reciprocity", "transitivity", "customer_product"):
            spec = nt.strategic_spec(kind, n)
            assert spec.monotone
            s = spec.matrix_fn(d.to_array())
            off = ~np.eye(n, dtype=bool)
            assert s[off].min() >= spec.s_min
            assert s[off].max() <= spec.s_max


def test_strategic_spec_lookup():
    assert nt.strategic_spec("reciprocity", 9).kind == "reciprocity"
    assert nt.strategic_spec("transitivity", 9).s_max == 7
    assert nt.strategic_spec("customer_product", 9).kind == "customer_product"
    with pytest.raises(ValueError, match="reciprocity"):
        nt.strategic_spec("nonsense", 9)


def test_strategic_term_rejects_the_diagonal():
    d = nt.from_edge_list([(0, 1)], 3)
    with pytest.raises(ValueError, match="distinct"):
        nt.strategic_term(d, 1, 1, nt.reciprocity_spec())


# -- null log-likelihood ------------------------------------------------------------


def test_zero_parameters_give_coin_flip_likelihood():
    rng = random.Random(73)
    for n in (3, 6, 10):
        d = random_digraph(n, 0.5, rng)
        delta = nt.NuisanceParams(np.zeros(n), np.zeros(n), np.zeros((1, 1)))
        g = nt.GroupAssignment.single_group(n)
        assert nt.null_log_likelihood(d, delta, g) == pytest.approx(
            n * (n - 1) * math.log(0.5), rel=1e-14
        )


def test_single_dyad_likelihood_hand_value():
    delta = nt.NuisanceParams(
        np.array([logit(0.9), 0.0]), np.zeros(2), np.zeros((1, 1))
    )
    g = nt.GroupAssignment.single_group(2)
    d = nt.from_edge_list([(0, 1)], 2)
    expected = math.log(0.9) + math.log(0.5)
    assert nt.null_log_likelihood(d, delta, g) == pytest.approx(expected, abs=1e-12)


def test_log_likelihood_matches_per_pair_recount():
    rng = random.Random(79)
    for _ in range(15):
        n = rng.randrange(3, 9)
        K = rng.choice([1, 2, 3])
        d = random_digraph(n, 0.45, rng)
        g = random_groups(n, K, rng)
        delta = random_delta(n, K, rng)
        mu = nt.systematic_utility(delta, g)
        expected = 0.0
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                p = 1.0 / (1.0 + math.exp(-mu[i, j]))
                expected += math.log(p) if d.has_arc(i, j) else math.log(1.0 - p)
        assert nt.null_log_likelihood(d, delta, g) == pytest.approx(expected, rel=1e-10)


def test_gradient_matches_central_finite_differences():
    rng = random.Random(83)
    for _ in range(6):
        n = rng.randrange(4, 8)
        K = rng.choice([1, 2])
        d = random_digraph(n, 0.45, rng)
        g = random_groups(n, K, rng)
        delta = random_delta(n, K, rng, scale=0.6)
        a = d.to_array().astype(float)
        P = fitted_probabilities(delta, g)
        ga, gb, glam = _null_gradient(a, P, make_Z(g))
        analytic = np.concatenate([ga, gb, glam.ravel()])

        def ll_at(vec):
            dl = nt.NuisanceParams(
                vec[:n], vec[n : 2 * n], vec[2 * n :].reshape(K, K)
            )
            return nt.null_log_likelihood(d, dl, g)

        x0 = np.concatenate([delta.sender, delta.receiver, delta.mixing.ravel()])
        h = 1e-6
        for c in range(x0.size):
            up, down = x0.copy(), x0.copy()
            up[c] += h
            down[c] -= h
            fd = (ll_at(up) - ll_at(down)) / (2 * h)
            assert fd == pytest.approx(analytic[c], rel=1e-5, abs=1e-7)


# -- null MLE -------------------------------------------------------------------------


def test_mle_reproduces_all_sufficient_statistics():
    d, g = interior_digraph(30, 2, 0.35, seed=5)
    delta = nt.mle_null(d, g)
    a = d.to_array().astype(float)
    P = fitted_probabilities(delta, g)
    Z = make_Z(g)
    assert np.abs(a.sum(axis=1) - P.sum(axis=1)).max() < 1e-6
    assert np.abs(a.sum(axis=0) - P.sum(axis=0)).max() < 1e-6
    assert np.abs(Z.T @ (a - P) @ Z).max() < 1e-6


def test_mle_reports_the_normalized_representative():
    d, g = interior_digraph(20, 3, 0.4, seed=8)
    delta = nt.mle_null(d, g)
    assert np.abs(delta.mixing[0, :]).max() == 0.0
    assert np.abs(delta.mixing[:, 0]).max() == 0.0
    assert abs(delta.receiver.mean()) < 1e-9


def test_mle_is_a_likelihood_maximum():
    d, g = interior_digraph(15, 2, 0.4, seed=13)
    delta = nt.mle_null(d, g)
    best = nt.null_log_likelihood(d, delta, g)
    rng = np.random.default_rng(3)
    for _ in range(25):
        wobble = nt.NuisanceParams(
            delta.sender + 0.1 * rng.standard_normal(d.n),
            delta.receiver + 0.1 * rng.standard_normal(d.n),
            delta.mixing + 0.1 * rng.standard_normal(delta.mixing.shape),
        )
        assert nt.null_log_likelihood(d, wobble, g) <= best + 1e-10


def test_likelihood_is_invariant_to_reparameterization():
    rng = random.Random(91)
    d = random_digraph(8, 0.4, rng)
    g = random_groups(8, 2, rng)
    delta = random_delta(8, 2, rng)
    base = nt.null_log_likelihood(d, delta, g)
    # shift every sender up and every receiver down by the same constant
    shifted = nt.NuisanceParams(delta.sender + 1.7, delta.receiver - 1.7, delta.mixing)
    assert nt.null_log_likelihood(d, shifted, g) == pytest.approx(base, abs=1e-10)
    # move a constant from the mixing matrix into the sender effects
    codes = np.asarray(g.codes)
    shifted2 = nt.NuisanceParams(
        delta.sender + np.where(codes == 0, 0.9, 0.0),
        delta.receiver,
        delta.mixing - 0.9 * np.array([[1.0, 1.0], [0.0, 0.0]]),
    )
    assert nt.null_log_likelihood(d, shifted2, g) == pytest.approx(base, abs=1e-10)


def test_mle_on_a_node_symmetric_graph_is_uniform():
    n = 6
    d = nt.from_edge_list([(i, (i + 1) % n) for i in range(n)], n)
    g = nt.GroupAssignment.single_group(n)
    delta = nt.mle_null(d, g)
    P = fitted_probabilities(delta, g)
    off = ~np.eye(n, dtype=bool)
    assert np.abs(P[off] - 1.0 / (n - 1)).max() < 1e-7
    assert np.abs(delta.sender - delta.sender[0]).max() < 1e-7
    assert np.abs(delta.receiver).max() < 1e-7


def test_mle_detects_full_out_degree_separation():
    # node 0 links to everyone, so its sender effect runs to +infinity
    d = nt.from_edge_list(
        [(0, 1), (0, 2), (0, 3), (1, 0), (2, 1), (3, 2), (1, 3)], 4
    )
    with pytest.raises(nt.SeparationError, match="linking to everyone"):
        nt.mle_null(d, nt.GroupAssignment.single_group(4))


def test_mle_detects_isolated_receiver_separation():
    d = nt.from_edge_list([(0, 1), (1, 2), (2, 0), (1, 0), (2, 1)], 4)
    with pytest.raises(nt.SeparationError, match="no incoming arcs|no outgoing arcs"):
        nt.mle_null(d, nt.GroupAssignment.single_group(4))


def test_mle_detects_empty_group_cell_separation():
    # interior degrees, but no arcs at all among the first group's members
    arcs = [(0, 3), (1, 4), (2, 3), (3, 0), (3, 1), (4, 2), (4, 0)]
    d = nt.from_edge_list(arcs, 5)
    g = nt.GroupAssignment((0, 0, 0, 1, 1), 2)
    with pytest.raises(nt.SeparationError, match="no arcs at all from group"):
        nt.mle_null(d, g)


def test_mle_detects_saturated_group_cell_separation():
    # both arcs inside group 0 are present, so that cell's parameter diverges
    arcs = [(0, 1), (1, 0), (0, 2), (1, 3), (2, 3), (3, 2), (3, 0), (2, 1)]
    d = nt.from_edge_list(arcs, 4)
    g = nt.GroupAssignment((0, 0, 1, 1), 2)
    with pytest.raises(nt.SeparationError, match="every possible arc from group"):
        nt.mle_null(d, g)


def test_mle_validates_group_shape():
    d = nt.from_edge_list([(0, 1)], 3)
    with pytest.raises(ValueError, match="does not match"):
        nt.mle_null(d, nt.GroupAssignment.single_group(4))


# -- shocks and simulation --------------------------------------------------------------


def test_logistic_shocks_follow_the_logistic_law():
    rng = np.random.default_rng(17)
    shocks = nt.draw_logistic_shocks(rng, 200)
    assert shocks.shape == (200, 200)
    assert sps.kstest(shocks.ravel(), "logistic").pvalue > 0.01


def test_simulate_null_thresholds_shocks_against_utilities():
    delta = nt.NuisanceParams(
        np.array([1.0, -1.0, 0.0]), np.array([0.5, 0.0, -0.5]), np.zeros((1, 1))
    )
    g = nt.GroupAssignment.single_group(3)
    mu = nt.systematic_utility(delta, g)
    shocks = np.array(
        [[0.0, 0.9, 0.6], [-0.4, 0.0, -2.0], [0.7, -0.1, 0.0]]
    )
    d = nt.simulate_null(delta, g, shocks=shocks)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert d.has_arc(i, j) == (mu[i, j] >= shocks[i, j])
            else:
                assert not d.has_arc(i, j)


def test_simulate_null_needs_a_randomness_source():
    delta = nt.NuisanceParams(np.zeros(3), np.zeros(3), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="rng"):
        nt.simulate_null(delta, nt.GroupAssignment.single_group(3))


def test_zero_utility_networks_have_half_density():
    n = 40
    delta = nt.NuisanceParams(np.zeros(n), np.zeros(n), np.zeros((1, 1)))
    g = nt.GroupAssignment.single_group(n)
    d = nt.simulate_null(delta, g, rng=np.random.default_rng(19))
    pairs = n * (n - 1)
    band = 4 * math.sqrt(pairs * 0.25)
    assert abs(d.arc_count() - pairs / 2) < band


def test_zero_interaction_reproduces_the_null_simulator_exactly():
    rng = random.Random(97)
    for trial in range(10):
        n = rng.randrange(4, 12)
        K = rng.choice([1, 2])
        g = random_groups(n, K, rng)
        delta = random_delta(n, K, rng)
        shocks = nt.draw_logistic_shocks(np.random.default_rng(trial), n)
        base = nt.simulate_null(delta, g, shocks=shocks)
        for kind in ("reciprocity", "transitivity", "customer_product"):
            spec = nt.strategic_spec(kind, n)
            alt = nt.simulate_alternative(delta, 0.0, spec, g, shocks=shocks)
            assert alt.key() == base.key()


def test_positive_interaction_output_is_an_equilibrium_superset_of_null():
    rng = random.Random(101)
    for trial in range(12):
        n = rng.randrange(4, 12)
        K = rng.choice([1, 2])
        g = random_groups(n, K, rng)
        delta = random_delta(n, K, rng)
        gamma = rng.choice([0.1, 0.5, 2.0])
        kind = rng.choice(["reciprocity", "transitivity", "customer_product"])
        spec = nt.strategic_spec(kind, n)
        shocks = nt.draw_logistic_shocks(np.random.default_rng(100 + trial), n)
        d = nt.simulate_alternative(delta, gamma, spec, g, shocks=shocks)
        assert nt.is_equilibrium(d, delta, gamma, spec, g, shocks)
        base = set(nt.simulate_null(delta, g, shocks=shocks).arcs())
        assert base <= set(d.arcs())


def test_equilibrium_check_fails_after_tampering():
    n = 6
    g = nt.GroupAssignment.single_group(n)
    delta = nt.NuisanceParams(np.zeros(n), np.zeros(n), np.zeros((1, 1)))
    spec = nt.reciprocity_spec()
    shocks = nt.draw_logistic_shocks(np.random.default_rng(23), n)
    d = nt.simulate_alternative(delta, 0.7, spec, g, shocks=shocks)
    assert nt.is_equilibrium(d, delta, 0.7, spec, g, shocks)
    d.set_arc(0, 1, not d.has_arc(0, 1))
    assert not nt.is_equilibrium(d, delta, 0.7, spec, g, shocks)


def test_negative_interaction_can_cycle_without_an_equilibrium():
    # a two-node stand-off: each wants the arc exactly when the other
    # withholds theirs, so best responses oscillate between empty and mutual
    delta = nt.NuisanceParams(np.zeros(2), np.zeros(2), np.zeros((1, 1)))
    g = nt.GroupAssignment.single_group(2)
    shocks = np.array([[0.0, -0.5], [-0.5, 0.0]])
    with pytest.raises(ValueError, match="cycled"):
        nt.simulate_alternative(delta, -1.0, nt.reciprocity_spec(), g, shocks=shocks)


def test_negative_interaction_converges_when_a_fixed_point_exists():
    delta = nt.NuisanceParams(np.zeros(3), np.zeros(3), np.zeros((1, 1)))
    g = nt.GroupAssignment.single_group(3)
    shocks = np.array(
        [[0.0, -3.0, 4.0], [4.0, 0.0, -3.0], [4.0, 4.0, 0.0]]
    )
    # arcs 0->1 and 1->2 are on even against reciprocation, everything else off
    d = nt.simulate_alternative(delta, -1.0, nt.reciprocity_spec(), g, shocks=shocks)
    assert nt.is_equilibrium(d, delta, -1.0, nt.reciprocity_spec(), g, shocks)
    assert sorted(d.arcs()) == [(0, 1), (1, 2)]


def test_simulate_alternative_needs_a_randomness_source():
    delta = nt.NuisanceParams(np.zeros(3), np.zeros(3), np.zeros((1, 1)))
    g = nt.GroupAssignment.single_group(3)
    with pytest.raises(ValueError, match="rng"):
        nt.simulate_alternative(delta, 0.5, nt.reciprocity_spec(), g)
