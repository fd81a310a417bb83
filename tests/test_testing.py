"""Tests for the conditional testing layer.

Key oracles: an explicit per-pair recount of the score statistic, an
independently derived dyad-by-dyad equilibrium likelihood valid for either
sign of the interaction strength (used to finite-difference through zero),
and exact tail probabilities on fully enumerated reference sets.
"""

import math
import pickle
import random
import warnings

import numpy as np
import pytest

import netformtest as nt
from netformtest import model, testing
from netformtest._rng import substream_generator, substream_random
from netformtest.graphs import reciprocity_index, transitivity_index
from netformtest.model import systematic_utility
from netformtest.sampler import ChainConfig, ChainStats
from netformtest.testing import (
    _NS_PILOT,
    REFERENCES,
    TI_NOTE,
    _density_only_draw,
    decided_at,
    reference_draws,
)

from _fixtures import (
    CHAIN_FIXTURES,
    arcs_of,
    build_fixture,
    density_draw_oracle,
    dyad_likelihood_oracle,
    exact_reciprocity_likelihood,
    fittable_network,
    logistic,
    pair_term,
    random_delta,
    random_digraph,
    random_groups,
    simulate_uniform_ne_dyad,
    TERM_BOUNDS,
    theorem2_derivative,
)


def naive_locally_best(d, delta, spec, g):
    """Per-pair recount of sum (d_ij - F(mu_ij)) * s_ij(d)."""
    mu = systematic_utility(delta, g)
    total = 0.0
    for i in range(d.n):
        for j in range(d.n):
            if i == j:
                continue
            resid = (1.0 if d.has_arc(i, j) else 0.0) - logistic(mu[i, j])
            total += resid * pair_term(spec.kind, d, i, j)
    return total


def all_networks(n):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for mask in range(1 << len(pairs)):
        yield nt.from_edge_list(
            [pairs[t] for t in range(len(pairs)) if (mask >> t) & 1], n
        )


# -- score statistic ----------------------------------------------------------


def test_locally_best_statistic_matches_naive_recount():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(3, 9)
        K = rng.choice([1, 2])
        d = random_digraph(n, 0.45, rng)
        g = random_groups(n, K, rng)
        delta = random_delta(n, K, rng)
        for kind in ("reciprocity", "transitivity", "customer_product"):
            spec = nt.strategic_spec(kind)
            assert nt.score_statistic(spec, delta, g)(d) == pytest.approx(
                naive_locally_best(d, delta, spec, g), abs=1e-10
            )


def test_locally_best_equals_equilibrium_derivative_route():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(3, 10)
        K = rng.choice([1, 2, 3])
        d = random_digraph(n, 0.4, rng)
        g = random_groups(n, K, rng)
        delta = random_delta(n, K, rng)
        kind = rng.choice(["reciprocity", "transitivity", "customer_product"])
        spec = nt.strategic_spec(kind)
        lhs = nt.score_statistic(spec, delta, g)(d)
        rhs = theorem2_derivative(d, delta, spec, g)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_score_does_not_depend_on_the_term_bounds(monkeypatch):
    # The range bounds enter the two-case route only to cancel in its total:
    # widening them for every term leaves the derivative equal to the score.
    for kind in TERM_BOUNDS:
        monkeypatch.setitem(TERM_BOUNDS, kind, lambda n: (-3, 1000))
    rng = random.Random(43)
    worst = 0.0
    for _ in range(50):
        n = rng.randrange(3, 11)
        K = rng.choice([1, 2, 3])
        g = random_groups(n, K, rng)
        delta = random_delta(n, K, rng)
        d = random_digraph(n, 0.4, rng)
        spec = nt.strategic_spec(rng.choice(list(TERM_BOUNDS)))
        a = nt.score_statistic(spec, delta, g)(d)
        b = theorem2_derivative(d, delta, spec, g)
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    assert worst <= 1e-10, f"worst scaled deviation {worst:.2e}"


def test_locally_best_reciprocity_hand_value():
    d = nt.from_edge_list([(0, 1)], 2)
    delta = nt.NuisanceParams(np.zeros(2), np.zeros(2), np.zeros((1, 1)))
    g = nt.GroupAssignment.single_group(2)
    # s_01 = 0 (no return arc), s_10 = 1; only the absent arc 1->0 contributes
    assert nt.score_statistic(nt.strategic_spec("reciprocity"), delta, g)(d) == pytest.approx(-0.5, abs=1e-12)


def test_locally_best_depends_only_on_systematic_utility():
    rng = random.Random(7)
    d = random_digraph(6, 0.5, rng)
    g = random_groups(6, 2, rng)
    delta = random_delta(6, 2, rng)
    spec = nt.strategic_spec("transitivity")
    base = nt.score_statistic(spec, delta, g)(d)
    shifted = nt.NuisanceParams(delta.sender + 2.3, delta.receiver - 2.3, delta.mixing)
    assert nt.score_statistic(spec, shifted, g)(d) == pytest.approx(
        base, abs=1e-10
    )


# -- exact dyad-factorized likelihood ------------------------------------------


def test_reciprocity_likelihood_sums_to_one():
    rng = random.Random(11)
    for n in (2, 3):
        g = random_groups(n, 2, rng) if n == 3 else nt.GroupAssignment.single_group(2)
        delta = random_delta(n, g.n_groups, rng, scale=0.8)
        for gamma in (0.0, 0.3, 1.5):
            total = sum(
                exact_reciprocity_likelihood(d, g, delta, gamma)
                for d in all_networks(n)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


def test_oracle_likelihood_sums_to_one_for_negative_gamma():
    rng = random.Random(13)
    for n in (2, 3):
        g = nt.GroupAssignment.single_group(n)
        delta = random_delta(n, 1, rng, scale=0.8)
        for gamma in (-0.2, -1.0):
            total = sum(
                dyad_likelihood_oracle(d, g, delta, gamma) for d in all_networks(n)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


def test_reciprocity_likelihood_matches_independent_oracle():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.choice([2, 3])
        g = random_groups(n, rng.choice([1, 2]), rng)
        delta = random_delta(n, g.n_groups, rng)
        gamma = rng.choice([0.0, 0.4, 2.0])
        for d in all_networks(n):
            assert exact_reciprocity_likelihood(
                d, g, delta, gamma
            ) == pytest.approx(dyad_likelihood_oracle(d, g, delta, gamma), rel=1e-12)


def test_gamma_zero_likelihood_equals_null_likelihood():
    rng = random.Random(19)
    for _ in range(8):
        n = rng.choice([2, 3, 4])
        g = random_groups(n, rng.choice([1, 2]), rng)
        delta = random_delta(n, g.n_groups, rng)
        d = random_digraph(n, 0.5, rng)
        lhs = exact_reciprocity_likelihood(d, g, delta, 0.0)
        assert math.log(lhs) == pytest.approx(
            nt.null_log_likelihood(d, delta, g), rel=1e-12
        )


def test_symmetric_dyad_probabilities_hand_values():
    # mu = 0 on both directions and F(gamma) = 0.9: the middle bucket has
    # mass 0.4 per shock, so P(mutual) = .25 + 2(.5)(.4) + .5(.4)^2 = 0.73,
    # P(one-way) = .5 * .1 = 0.05 each, P(empty) = 0.17.
    delta = nt.NuisanceParams(np.zeros(2), np.zeros(2), np.zeros((1, 1)))
    g = nt.GroupAssignment.single_group(2)
    gamma = math.log(9.0)
    lik = lambda arcs: exact_reciprocity_likelihood(
        nt.from_edge_list(arcs, 2), g, delta, gamma
    )
    assert lik([(0, 1), (1, 0)]) == pytest.approx(0.73, abs=1e-12)
    assert lik([(0, 1)]) == pytest.approx(0.05, abs=1e-12)
    assert lik([(1, 0)]) == pytest.approx(0.05, abs=1e-12)
    assert lik([]) == pytest.approx(0.17, abs=1e-12)


def test_uniform_selection_simulation_matches_exact_dyad_probabilities():
    gamma = math.log(9.0)
    n_sims = 400_000
    g = nt.GroupAssignment.single_group(2)
    for mu_vec, seed in (((0.0, 0.0), 23), ((0.6, -0.8), 31)):
        delta = nt.NuisanceParams(np.array(mu_vec), np.zeros(2), np.zeros((1, 1)))
        mu = systematic_utility(delta, g)
        freqs = simulate_uniform_ne_dyad(
            mu[0, 1], mu[1, 0], gamma, n_sims, np.random.default_rng(seed)
        )
        for state, freq in freqs.items():
            d = nt.from_edge_list(
                ([(0, 1)] if state[0] else []) + ([(1, 0)] if state[1] else []), 2
            )
            p = exact_reciprocity_likelihood(d, g, delta, gamma)
            se = math.sqrt(p * (1 - p) / n_sims)
            assert abs(freq - p) < 4 * se


def test_score_is_the_likelihood_derivative_through_zero():
    rng = random.Random(29)
    h = 1e-5
    spec = nt.strategic_spec("reciprocity")
    for _ in range(8):
        n = rng.choice([2, 3])
        g = random_groups(n, rng.choice([1, 2]), rng)
        delta = random_delta(n, g.n_groups, rng, scale=0.8)
        d = random_digraph(n, 0.5, rng)
        while d.arc_count() == 0:  # an empty graph zeroes the score identically
            d = random_digraph(n, 0.5, rng)
        up = exact_reciprocity_likelihood(d, g, delta, h)
        assert up == pytest.approx(dyad_likelihood_oracle(d, g, delta, h), rel=1e-12)
        down = dyad_likelihood_oracle(d, g, delta, -h)
        p0 = exact_reciprocity_likelihood(d, g, delta, 0.0)
        derivative = (up - down) / (2 * h) / p0
        score = nt.score_statistic(spec, delta, g)(d)
        assert derivative == pytest.approx(score, rel=1e-4, abs=1e-5)


def test_reciprocity_likelihood_input_validation():
    d = nt.from_edge_list([(0, 1)], 2)
    g = nt.GroupAssignment.single_group(2)
    delta = nt.NuisanceParams(np.zeros(2), np.zeros(2), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="gamma"):
        exact_reciprocity_likelihood(d, g, delta, -0.5)


# -- statistic specifications ----------------------------------------------------


def test_statistic_spec_validation():
    with pytest.raises(ValueError, match="unknown statistic"):
        nt.TestStatisticSpec(kind="density")
    with pytest.raises(ValueError, match="strategic"):
        nt.TestStatisticSpec(kind="locally_best")
    with pytest.raises(ValueError, match="delta_source"):
        nt.TestStatisticSpec(kind="locally_best", strategic="reciprocity", delta_source="guess")
    with pytest.raises(ValueError, match="requires delta"):
        nt.TestStatisticSpec(
            kind="locally_best", strategic="reciprocity", delta_source="provided"
        )
    with pytest.raises(ValueError, match="unknown strategic specification 'bogus'"):
        nt.TestStatisticSpec(kind="locally_best", strategic="bogus")
    spec = nt.TestStatisticSpec(kind="transitivity_index")
    assert spec.delta is None
    delta = nt.NuisanceParams(np.zeros(3), np.zeros(3), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="delta_source='provided'"):
        nt.TestStatisticSpec("locally_best", "transitivity", "fitted", delta)


@pytest.mark.parametrize("kind", ["transitivity_index", "reciprocity_index"])
def test_an_index_statistic_refuses_nuisance_parameters(kind):
    delta = nt.NuisanceParams(np.zeros(3), np.zeros(3), np.zeros((1, 1)))
    for source, given in (("provided", None), ("provided", delta), ("fitted", delta)):
        with pytest.raises(ValueError, match="reads no nuisance parameters"):
            nt.TestStatisticSpec(kind, delta_source=source, delta=given)
    with pytest.raises(ValueError, match="delta_source must be"):
        nt.TestStatisticSpec(kind, delta_source="guess")


@pytest.mark.parametrize("kind", ["transitivity_index", "reciprocity_index"])
def test_an_index_statistic_refuses_a_strategic_term(kind):
    for term in ("bogus", "transitivity"):
        with pytest.raises(ValueError, match="reads no strategic term"):
            nt.TestStatisticSpec(kind, term)
    assert nt.TestStatisticSpec(kind).strategic is None


_DELTA12 = nt.NuisanceParams(
    np.linspace(-1.0, 1.0, 12),
    np.linspace(0.5, -0.5, 12),
    np.array([[0.0, -1.0], [-0.5, 0.3]]),
)
_RESOLVABLE = [
    nt.TestStatisticSpec(kind="reciprocity_index"),
    nt.TestStatisticSpec(kind="transitivity_index"),
] + [
    nt.TestStatisticSpec("locally_best", term, source, delta)
    for term in ("reciprocity", "transitivity", "customer_product")
    for source, delta in (("fitted", None), ("provided", _DELTA12))
]


@pytest.mark.parametrize(
    "stat", _RESOLVABLE, ids=[f"{s.kind}-{s.strategic}-{s.delta_source}" for s in _RESOLVABLE]
)
def test_resolved_statistics_pickle_to_the_same_function(stat):
    d, g = fittable_network()
    other = random_digraph(12, 0.4, random.Random(5))
    statistic = stat.resolve(d, g)
    clone = pickle.loads(pickle.dumps(statistic))
    for network in (d, other):
        assert clone(network) == statistic(network)
    if stat.kind == "locally_best":
        delta = stat.delta if stat.delta is not None else nt.mle_null(d, g)
        spec = nt.strategic_spec(stat.strategic)
        assert statistic(other) == pytest.approx(
            naive_locally_best(other, delta, spec, g), abs=1e-10
        )


@pytest.mark.parametrize("term", ["reciprocity", "transitivity", "customer_product"])
def test_a_resolved_score_looks_up_no_term_per_draw(monkeypatch, term):
    d, g = fittable_network()
    statistic = nt.TestStatisticSpec("locally_best", term).resolve(d, g)
    expected = naive_locally_best(d, nt.mle_null(d, g), nt.strategic_spec(term), g)

    def refuse(*args, **kwargs):
        raise AssertionError("strategic_spec called after resolve")

    monkeypatch.setattr(model, "strategic_spec", refuse)
    monkeypatch.setattr(testing, "strategic_spec", refuse)
    assert statistic(d) == pytest.approx(expected, abs=1e-10)
    draws = reference_draws(d, g, "degree_and_crosslink", 3, ChainConfig(tau=20, q=0.5), seed=7)
    values, _ = draws.values([statistic])
    assert values.shape == (3, 1) and np.isfinite(values).all()


def _built_in_statistics(n, rng):
    """Every built-in statistic for networks on n nodes, by name."""
    g = random_groups(n, min(n, 2), rng)
    delta = random_delta(n, g.n_groups, rng)
    statistics = dict(testing.INDEX_STATISTICS)
    for term in ("reciprocity", "transitivity", "customer_product"):
        statistics[term] = testing.score_statistic(nt.strategic_spec(term), delta, g)
    return statistics


def _same_float(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


@pytest.mark.parametrize("n", [1, 2, 7, 65])
def test_every_statistic_reads_a_network_and_its_array_alike(n):
    rng = random.Random(83 + n)
    for d in (random_digraph(n, 0.4, rng), nt.AdjacencyMatrix(n)):
        for name, statistic in _built_in_statistics(n, rng).items():
            on_network, on_array = statistic(d), statistic(d.to_array())
            assert type(on_network) is type(on_array) is float, name
            assert _same_float(on_network, on_array), (name, on_network, on_array)
            if d.arc_count() == 0 and name in testing.INDEX_STATISTICS:
                assert math.isnan(on_network), name


def test_density_reference_values_are_the_statistics_of_its_draws():
    d, g = fittable_network()
    statistics = list(_built_in_statistics(d.n, random.Random(89)).values())
    draws = reference_draws(d, g, "density_only", 25, seed=97)
    values, _ = draws.values(statistics)
    assert values.shape == (25, len(statistics))
    for b in range(25):
        draw = draws.draw(b, ChainStats())
        assert draw.dtype == np.uint8 and draw.sum() == d.arc_count()
        for k, statistic in enumerate(statistics):
            assert _same_float(values[b, k], statistic(draw)), (b, k)


# -- conditional p-values -----------------------------------------------------------


def test_enumerated_p_value_is_the_exact_tail():
    d, g, _ = build_fixture(CHAIN_FIXTURES[2])
    stat = nt.TestStatisticSpec(kind="reciprocity_index")
    res = nt.conditional_p_value(d, g, stat, reference="enumerated")
    members = nt.enumerate_reference_set(d, g)
    observed = reciprocity_index(d)
    others = [reciprocity_index(m) for m in members if m.key() != d.key()]
    assert res.n_draws == len(others) == len(members) - 1
    expected_p = (1 + sum(v >= observed for v in others)) / (len(others) + 1)
    assert res.p_value == pytest.approx(expected_p, abs=1e-15)
    assert res.quantile == pytest.approx(
        sum(v <= observed for v in others) / len(others), abs=1e-15
    )
    assert res.observed == pytest.approx(observed)
    assert res.tau is None and res.q is None and res.seed is None
    assert 1 / (res.n_draws + 1) <= res.p_value <= 1.0


def test_add_one_rule_recomputable_from_returned_draws():
    d, g, _ = build_fixture(CHAIN_FIXTURES[1])
    stat = nt.TestStatisticSpec(kind="transitivity_index")
    res = nt.conditional_p_value(
        d, g, stat, reference="degree_and_crosslink",
        n_draws=99, cfg=ChainConfig(tau=30, q=0.5), seed=41,
    )
    assert res.n_draws == len(res.null_draws) == 99
    manual = (1 + int((res.null_draws >= res.observed).sum())) / (res.n_draws + 1)
    assert res.p_value == pytest.approx(manual, abs=1e-15)
    assert res.tau == 30 and res.q == 0.5 and res.seed == 41
    assert 0.0 <= res.quantile <= 1.0
    assert res.diagnostics["missing_draws"] == 0
    assert 0.0 < res.diagnostics["acceptance_rate"] < 1.0
    assert res.diagnostics["per_arc_modifications"] > 0


def test_singleton_reference_set_gives_p_one():
    d = nt.from_edge_list([(0, 1), (1, 0)], 3)
    g = nt.GroupAssignment.single_group(3)
    stat = nt.TestStatisticSpec(kind="reciprocity_index")
    res = nt.conditional_p_value(d, g, stat, reference="enumerated")
    assert res.p_value == 1.0
    assert res.n_draws == 0
    assert math.isnan(res.quantile)


def test_undefined_reference_draws_are_dropped_with_warning():
    # out/in degrees all one: the reference set holds 6 directed 4-cycles
    # (two-path ratio 0) and 3 pairs of mutual dyads with no two-paths at all
    d, g, _ = build_fixture(CHAIN_FIXTURES[0])
    stat = nt.TestStatisticSpec(kind="transitivity_index")
    with pytest.warns(UserWarning, match="undefined"):
        res = nt.conditional_p_value(d, g, stat, reference="enumerated")
    assert res.diagnostics["missing_draws"] == 3
    assert res.n_draws == 5
    assert res.observed == 0.0
    assert res.p_value == 1.0
    assert res.diagnostics["statistic_note"] == TI_NOTE
    assert "two-path" in res.diagnostics["statistic_note"]


def test_undefined_observed_statistic_warns_and_returns_nan():
    d = nt.from_edge_list([(0, 1), (1, 0), (2, 3), (3, 2)], 4)
    g = nt.GroupAssignment.single_group(4)
    stat = nt.TestStatisticSpec(kind="transitivity_index")
    with pytest.warns(UserWarning) as record:
        res = nt.conditional_p_value(d, g, stat, reference="enumerated")
    messages = [str(w.message) for w in record]
    assert any("observed" in m for m in messages)
    assert any("excluded" in m for m in messages)  # the two undefined draws
    assert math.isnan(res.p_value)
    assert math.isnan(res.quantile)


def test_sampled_p_value_agrees_with_enumerated_tail():
    d, g, _ = build_fixture(CHAIN_FIXTURES[2])
    stat = nt.TestStatisticSpec(kind="reciprocity_index")
    exact = nt.conditional_p_value(d, g, stat, reference="enumerated")
    n_draws = 4000
    sampled = nt.conditional_p_value(
        d, g, stat, reference="degree_and_crosslink",
        n_draws=n_draws, cfg=ChainConfig(tau=40, q=0.5), seed=43,
    )
    se = math.sqrt(exact.p_value * (1 - exact.p_value) / n_draws)
    assert abs(sampled.p_value - exact.p_value) < 4 * se + 2 / n_draws


@pytest.mark.parametrize("reference", ["density_only", "degree_only", "degree_and_crosslink"])
@pytest.mark.parametrize(
    "stat",
    [
        nt.TestStatisticSpec(kind="reciprocity_index"),
        nt.TestStatisticSpec(kind="transitivity_index"),
        nt.TestStatisticSpec(kind="locally_best", strategic="transitivity"),
    ],
    ids=["reciprocity_index", "transitivity_index", "locally_best_fitted"],
)
def test_results_do_not_depend_on_worker_count(stat, reference):
    d, g = fittable_network()
    kwargs = dict(
        reference=reference,
        n_draws=60,
        cfg=ChainConfig(tau=20, q=0.5),
        seed=47,
    )
    serial = nt.conditional_p_value(d, g, stat, jobs=1, **kwargs)
    parallel = nt.conditional_p_value(d, g, stat, jobs=3, **kwargs)
    assert serial.n_draws == 60
    assert serial.null_draws.tolist() == parallel.null_draws.tolist()
    assert serial.p_value == parallel.p_value
    assert serial.diagnostics == parallel.diagnostics


def test_stop_rule_counts_ties_as_exceedances_and_skips_undefined_values():
    nan = float("nan")
    rows = []
    rule = decided_at(0.05, [1.0, nan], 19)
    assert not rule(rows)  # 1/20 is exactly 0.05: one more draw could still reject
    rows.append([0.5, 3.0])
    assert not rule(rows)
    rows.append([nan, 3.0])
    assert not rule(rows)  # an undefined draw is no exceedance
    rows.append([1.0, nan])
    assert rule(rows)  # a tie is: 2/20 > 0.05, and the second observed is undefined
    assert decided_at(0.05, [nan, nan], 19)([])
    assert decided_at(0.02, [1.0], 30)([])  # 1/31 > 0.02 before any draw
    assert not decided_at(0.05, [1.0], 39)([[1.0]])  # 2/40 is exactly 0.05


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("reference", ["density_only", "degree_only", "degree_and_crosslink"])
def test_curtailed_values_are_the_draws_up_to_the_decision(reference, jobs):
    # at alpha = 0.05 over 39 draws a statistic is decided at its second
    # exceedance, since (1 + 2)/40 > 0.05 = (1 + 1)/40
    d, g = fittable_network()
    statistics = [transitivity_index, reciprocity_index]
    draws = reference_draws(d, g, reference, 39, ChainConfig(tau=20, q=0.5), seed=59)
    full, full_stats = draws.values(statistics)
    # any observed values will do; the medians of the draws decide early
    observed = list(np.median(full, axis=0))
    stop = decided_at(0.05, observed, draws.n_draws)
    curtailed, stats = draws.values(statistics, jobs=jobs, stop=stop)
    exceedances = np.cumsum(full >= observed, axis=0)
    made = int(np.argmax((exceedances >= 2).all(axis=1))) + 1
    assert 0 < made < draws.n_draws
    assert np.array_equal(curtailed, full[:made])
    if draws.cfg is not None:
        assert 0 < stats.steps < full_stats.steps


def test_fitted_statistic_uses_one_mle_for_all_draws():
    rng = random.Random(53)
    while True:
        d = random_digraph(9, 0.5, rng)
        degs = d.out_degrees() + d.in_degrees()
        if all(0 < x < 8 for x in degs):
            break
    g = nt.GroupAssignment.single_group(9)
    stat = nt.TestStatisticSpec(kind="locally_best", strategic="transitivity")
    res = nt.conditional_p_value(
        d, g, stat, reference="degree_only",
        n_draws=50, cfg=ChainConfig(tau=50, q=0.5), seed=59,
    )
    delta = nt.mle_null(d, g)
    spec = nt.strategic_spec("transitivity")
    assert res.observed == pytest.approx(
        nt.score_statistic(spec, delta, g)(d), abs=1e-9
    )
    # the observed score under the fitted null is near zero only in
    # expectation; the draws must spread around something comparable
    assert res.null_draws.std() > 0


def test_provided_delta_is_used_verbatim():
    d, g, _ = build_fixture(CHAIN_FIXTURES[2])
    delta = nt.NuisanceParams(np.zeros(4), np.zeros(4), np.zeros((2, 2)))
    stat = nt.TestStatisticSpec(
        kind="locally_best",
        strategic="reciprocity",
        delta_source="provided",
        delta=delta,
    )
    res = nt.conditional_p_value(d, g, stat, reference="enumerated")
    assert res.observed == pytest.approx(
        nt.score_statistic(nt.strategic_spec("reciprocity"), delta, g)(d),
        abs=1e-12,
    )


def test_reference_and_draw_count_validation():
    d, g, _ = build_fixture(CHAIN_FIXTURES[1])
    stat = nt.TestStatisticSpec(kind="reciprocity_index")
    with pytest.raises(ValueError, match="unknown reference"):
        nt.conditional_p_value(d, g, stat, reference="bootstrap", seed=1)
    with pytest.raises(ValueError, match="seed"):
        nt.conditional_p_value(d, g, stat, reference="degree_only")
    with pytest.raises(ValueError, match="at least one"):
        nt.conditional_p_value(d, g, stat, reference="degree_only", n_draws=0, seed=1)
    assert "enumerated" in REFERENCES


@pytest.mark.parametrize("q", [0.5, 0.2])
def test_automatic_walk_length_reproduces_the_pilot_formula(q):
    d, g, _ = build_fixture(CHAIN_FIXTURES[1])
    stat = nt.TestStatisticSpec(kind="reciprocity_index")
    res = nt.conditional_p_value(
        d, g, stat, reference="degree_and_crosslink",
        n_draws=10, cfg=nt.ChainConfig(q=q, mixing_r=5.0), seed=61,
    )
    expected = nt.mixing_time_heuristic(
        d, g, r=5.0, q=q, rng=substream_random(61, _NS_PILOT)
    )
    assert res.tau == expected >= 1
    assert res.q == q


def test_density_only_reference_fixes_exactly_the_arc_count():
    rng = random.Random(67)
    d = random_digraph(8, 0.4, rng)
    saw_other_degrees = False
    for b in range(60):
        draw = nt.AdjacencyMatrix.from_dense(
            _density_only_draw(8, d.arc_count(), substream_generator(71, 0, b))
        )
        assert draw.arc_count() == d.arc_count()
        assert not any(draw.has_arc(i, i) for i in range(8))
        if draw.out_degrees() != d.out_degrees():
            saw_other_degrees = True
    assert saw_other_degrees


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 63, 64, 65, 96])
def test_density_only_draw_matches_the_arc_by_arc_oracle(n):
    n_pos = n * (n - 1)
    for n_arcs in sorted({0, min(1, n_pos), n_pos // 3, n_pos}):
        gen, oracle_gen = np.random.default_rng(n_arcs), np.random.default_rng(n_arcs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draw = nt.AdjacencyMatrix.from_dense(_density_only_draw(n, n_arcs, gen))
        expected = density_draw_oracle(n, n_arcs, oracle_gen)
        assert draw.rows == expected.rows
        assert draw.cols == expected.cols
        assert gen.bit_generator.state == oracle_gen.bit_generator.state


def test_density_only_draws_are_uniform_over_arc_placements():
    from scipy import stats as sps

    n, n_arcs, n_draws = 3, 2, 15000
    counts = {}
    for b in range(n_draws):
        draw = nt.AdjacencyMatrix.from_dense(
            _density_only_draw(n, n_arcs, substream_generator(73, 0, b))
        )
        key = tuple(sorted(arcs_of(draw)))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 15  # C(6, 2) possible placements
    expected = n_draws / 15
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert sps.chi2.sf(chi2, 14) > 0.001


def test_finer_conditioning_absorbs_homophily_induced_transitivity():
    n = 20
    g = nt.GroupAssignment(tuple(i % 2 for i in range(n)), 2)
    delta = nt.NuisanceParams(
        np.zeros(n), np.zeros(n), np.array([[1.2, -2.2], [-2.2, 1.2]])
    )
    d = nt.simulate_null(delta, g, rng=np.random.default_rng(7))
    stat = nt.TestStatisticSpec(kind="transitivity_index")
    cfg = ChainConfig(tau=1500, q=0.5)
    means, ps = {}, {}
    for ref in ("density_only", "degree_only", "degree_and_crosslink"):
        res = nt.conditional_p_value(
            d, g, stat, reference=ref, n_draws=100, seed=11, cfg=cfg
        )
        means[ref] = float(res.null_draws.mean())
        ps[ref] = res.p_value
    observed = transitivity_index(d)
    # coarse references miss the homophily and spuriously flag clustering
    assert ps["density_only"] < 0.05
    assert ps["degree_only"] < 0.05
    assert ps["degree_and_crosslink"] > 0.2
    assert means["degree_and_crosslink"] > means["density_only"] + 0.1
    assert means["degree_and_crosslink"] > means["degree_only"] + 0.1
    assert abs(means["degree_and_crosslink"] - observed) < 0.05


# -- exact randomized critical values ------------------------------------------------


def test_critical_values_make_exact_size_on_the_reference_set():
    d, g, _ = build_fixture(CHAIN_FIXTURES[2])
    members = nt.enumerate_reference_set(d, g)
    delta = nt.NuisanceParams(
        np.full(4, -0.3), np.linspace(-0.5, 0.5, 4), np.array([[0.0, 0.4], [-0.4, 0.0]])
    )
    stat = nt.TestStatisticSpec(
        kind="locally_best",
        strategic="transitivity",
        delta_source="provided",
        delta=delta,
    )
    spec = nt.strategic_spec("transitivity")
    values = [nt.score_statistic(spec, delta, g)(m) for m in members]
    for alpha in (0.05, 0.1, 1 / 3, 0.5, 0.9):
        cv = nt.exact_conditional_critical_values(d, g, stat, alpha)
        assert all(0.0 <= cv(v) <= 1.0 for v in values)
        size = sum(cv(v) for v in values) / len(values)
        assert size == pytest.approx(alpha, abs=1e-12)


def test_critical_values_handle_ties_in_the_support():
    d, g, _ = build_fixture(CHAIN_FIXTURES[0])
    stat = nt.TestStatisticSpec(kind="reciprocity_index")
    members = nt.enumerate_reference_set(d, g)
    values = [reciprocity_index(m) for m in members]  # 6 zeros and 3 ones
    for alpha in (0.1, 1 / 3, 0.75):
        cv = nt.exact_conditional_critical_values(d, g, stat, alpha)
        size = sum(cv(v) for v in values) / len(values)
        assert size == pytest.approx(alpha, abs=1e-12)
    # at alpha = 1/3 the three fully reciprocated members are rejected
    # with certainty and the six cycles never are
    cv = nt.exact_conditional_critical_values(d, g, stat, 1 / 3)
    assert cv(1.0) == pytest.approx(1.0, abs=1e-12)
    assert cv(0.0) == pytest.approx(0.0, abs=1e-12)


def test_alpha_one_rejects_everything():
    d, g, _ = build_fixture(CHAIN_FIXTURES[0])
    stat = nt.TestStatisticSpec(kind="reciprocity_index")
    cv = nt.exact_conditional_critical_values(d, g, stat, 1.0)
    assert cv(-123.0) == 1.0


def test_critical_values_validate_alpha():
    d, g, _ = build_fixture(CHAIN_FIXTURES[0])
    stat = nt.TestStatisticSpec(kind="reciprocity_index")
    for alpha in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="alpha"):
            nt.exact_conditional_critical_values(d, g, stat, alpha)


def test_critical_values_refuse_undefined_statistics():
    d, g, _ = build_fixture(CHAIN_FIXTURES[0])
    stat = nt.TestStatisticSpec(kind="transitivity_index")
    with pytest.raises(ValueError, match="undefined"):
        nt.exact_conditional_critical_values(d, g, stat, 0.25)


EXACT_ALPHAS = (0.01, 0.05, 0.1, 1 / 3, 0.5, 0.9, 1.0)


def exact_test_statistics(entry, seed):
    """The reciprocity index and the locally best score of every built-in
    term, each with its own random provided delta, as (spec, function of a
    network) pairs."""
    d, g, _ = build_fixture(entry)
    rng = random.Random(seed)
    cases = [(nt.TestStatisticSpec(kind="reciprocity_index"), reciprocity_index)]
    for term in ("reciprocity", "transitivity", "customer_product"):
        delta = random_delta(d.n, g.n_groups, rng)
        spec = nt.TestStatisticSpec(
            kind="locally_best", strategic=term, delta_source="provided", delta=delta
        )
        function = nt.score_statistic(nt.strategic_spec(term), delta, g)
        cases.append((spec, function))
    return cases


@pytest.mark.parametrize("index", range(len(CHAIN_FIXTURES)))
def test_exact_rule_has_size_alpha_is_monotone_and_randomizes_once(index):
    d, g, _ = build_fixture(CHAIN_FIXTURES[index])
    members = nt.enumerate_reference_set(d, g)
    for stat, function in exact_test_statistics(CHAIN_FIXTURES[index], 90 + index):
        values = [function(m) for m in members]
        support = sorted(set(values))
        gaps = [(a + b) / 2 for a, b in zip(support, support[1:])]
        off_support = [support[0] - 1.0, support[-1] + 1.0, -1e9, 1e9] + gaps
        grid = sorted(support + off_support)
        for alpha in EXACT_ALPHAS:
            cv = nt.exact_conditional_critical_values(d, g, stat, alpha)
            size = sum(cv(v) for v in values) / len(values)
            assert size == pytest.approx(alpha, abs=1e-12)
            profile = [cv(x) for x in grid]
            assert all(a <= b for a, b in zip(profile, profile[1:]))
            assert sum(0.0 < cv(v) < 1.0 for v in support) <= 1
            assert all(cv(x) in (0.0, 1.0) for x in off_support)
            if alpha == 1.0:
                assert all(p == 1.0 for p in profile)
            copy = pickle.loads(pickle.dumps(cv))
            assert [copy(x) for x in grid] == profile


@pytest.mark.parametrize("index", range(len(CHAIN_FIXTURES)))
def test_exact_rule_rejects_where_the_enumerated_p_value_does(index):
    """The add-one enumerated test is the non-randomized form of the exact
    rule: where its p-value is at most alpha the rule rejects surely, and
    where the rule never rejects the p-value exceeds alpha."""
    d, g, _ = build_fixture(CHAIN_FIXTURES[index])
    members = nt.enumerate_reference_set(d, g)
    for stat, function in exact_test_statistics(CHAIN_FIXTURES[index], 90 + index):
        rules = [nt.exact_conditional_critical_values(d, g, stat, a) for a in EXACT_ALPHAS]
        for m in members:
            p_value = nt.conditional_p_value(m, g, stat, reference="enumerated").p_value
            x = function(m)
            for alpha, cv in zip(EXACT_ALPHAS, rules):
                if p_value <= alpha:
                    assert cv(x) == 1.0
                if cv(x) == 0.0:
                    assert p_value > alpha
