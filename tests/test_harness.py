"""Tests for the Monte Carlo size/power experiment harness."""

import math

import numpy as np
import pytest
from scipy import stats as sps

import netformtest as nt
from netformtest import harness, testing
from netformtest.graphs import transitivity_index
from netformtest.harness import (
    STUDY_MIXING,
    PowerRow,
    PowerTable,
    study_population,
    table1_calibration,
)
from netformtest.model import logistic_cdf, simulate_null

from _fixtures import full_replication

# -- calibration table ----------------------------------------------------------


def test_calibration_rows_come_in_design_order():
    rows = table1_calibration()
    assert [(r.same_group, r.sender_level, r.receiver_level) for r in rows] == [
        (True, 1.1, 1.1),
        (True, 1.1, -1.1),
        (True, -1.1, -1.1),
        (False, 1.1, 1.1),
        (False, 1.1, -1.1),
        (False, -1.1, -1.1),
    ]


def test_calibration_utilities_sum_effect_levels_and_penalty():
    utilities = [r.utility for r in table1_calibration()]
    assert utilities == pytest.approx([2.2, 0.0, -2.2, 0.0, -2.2, -4.4])


def test_calibration_probabilities_at_printed_precision():
    rows = table1_calibration()
    for r in rows:
        assert r.link_prob == float(logistic_cdf(r.utility))
    assert [round(r.link_prob, 2) for r in rows[:5]] == [0.90, 0.50, 0.10, 0.50, 0.10]
    assert round(rows[5].link_prob, 3) == 0.012


# -- population draws -----------------------------------------------------------


def test_population_draws_types_from_the_eight_design_cells():
    rng = np.random.default_rng(5)
    delta, g = study_population(2000, rng)
    assert set(np.unique(delta.sender)) == {-1.1, 1.1}
    assert set(np.unique(delta.receiver)) == {-1.1, 1.1}
    assert np.array_equal(delta.mixing, STUDY_MIXING)
    assert g.n_groups == 2
    counts = np.zeros(8)
    for a, b, x in zip(delta.sender, delta.receiver, g.codes):
        counts[(a > 0) * 4 + (b > 0) * 2 + x] += 1
    # all eight (sender, receiver, group) cells equally likely
    assert sps.chisquare(counts).pvalue > 1e-3


def test_population_never_returns_an_empty_group():
    rng = np.random.default_rng(0)
    for _ in range(400):
        _, g = study_population(3, rng)
        assert 0 < sum(g.codes) < 3


def test_population_is_a_pure_function_of_the_generator():
    d1, g1 = study_population(50, np.random.default_rng(123))
    d2, g2 = study_population(50, np.random.default_rng(123))
    assert np.array_equal(d1.sender, d2.sender)
    assert np.array_equal(d1.receiver, d2.receiver)
    assert g1 == g2


def _design_summaries(n, reps, rng):
    dens, tis, isds = [], [], []
    for _ in range(reps):
        delta, g = study_population(n, rng)
        d = simulate_null(delta, g, rng)
        dens.append(d.arc_count() / (n * (n - 1)))
        tis.append(transitivity_index(d))
        isds.append(np.std(d.in_degrees()))
    return np.mean(dens), np.mean(tis), np.mean(isds)


def test_design_produces_dense_clustered_heterogeneous_networks():
    rng = np.random.default_rng(99)
    density, ti, in_sd = _design_summaries(48, 60, rng)
    assert 0.31 < density < 0.37
    assert 0.48 < ti < 0.60
    assert 7.3 < in_sd < 8.7
    # the type-driven spread of expected degrees scales with n: at n = 24 the
    # same design yields roughly half the cross-node in-degree deviation
    _, _, in_sd_24 = _design_summaries(24, 60, rng)
    assert 3.6 < in_sd_24 < 4.6


# -- configuration and table types ----------------------------------------------


def test_default_config_matches_the_desk_scale_protocol():
    cfg = nt.ExperimentConfig()
    assert (cfg.n_nodes, cfg.n_reps, cfg.n_draws, cfg.alpha) == (24, 200, 200, 0.05)
    assert cfg.gammas[0] == 0.0
    assert cfg.gammas == tuple(sorted(cfg.gammas))
    assert cfg.reference == "degree_and_crosslink"
    assert cfg.strategic == "transitivity"


@pytest.mark.parametrize(
    "kwargs, msg",
    [
        (dict(n_nodes=2), "at least 3"),
        (dict(n_reps=0), "positive"),
        (dict(n_draws=0), "positive"),
        (dict(alpha=0.0), "alpha"),
        (dict(alpha=1.0), "alpha"),
        (dict(gammas=(0.1, -0.2)), "non-negative"),
        (dict(statistics=("transitivity_index", "betweenness")), "unknown"),
        (dict(n_reps=1.5), "n_reps must be an integer"),
        (dict(n_nodes=True), "n_nodes must be an integer"),
        (dict(q="0.5"), "q must be a real number"),
        (dict(reference="bogus"), "unknown reference 'bogus'"),
        (dict(q=1.5), r"q must lie in \[0, 1\)"),
        (dict(mixing_r=-1), "mixing_r must be non-negative"),
        (dict(n_nodes=8, reference="enumerated"), "enumeration supports at most 30"),
        (dict(statistics=()), "must not be empty"),
        (dict(gammas=()), "must not be empty"),
        (dict(strategic="bogus"), "unknown strategic specification"),
        (dict(gammas=(0.1, float("inf"))), "gammas must be finite"),
        (dict(gammas=(float("nan"),)), "gammas must be finite"),
        (dict(mixing_r=float("inf")), "mixing_r must be finite"),
    ],
)
def test_config_rejects_invalid_settings(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        nt.ExperimentConfig(**kwargs)


def test_power_table_lookup_and_missing_key():
    row = PowerRow(0.0, "transitivity_index", 40, 2, 3, 0.075, 0.0416)
    table = PowerTable(alpha=0.05, n_reps=42, n_draws=100, rows=[row])
    assert table.rate(0.0, "transitivity_index") is row
    with pytest.raises(KeyError):
        table.rate(0.1, "transitivity_index")
    with pytest.raises(KeyError):
        table.rate(0.0, "reciprocity_index")


# -- experiment runs -------------------------------------------------------------


def test_experiment_accounting_formulas_and_reproducibility():
    cfg = nt.ExperimentConfig(
        n_nodes=16,
        n_reps=8,
        n_draws=25,
        alpha=0.5,
        gammas=(0.0, 0.3),
        statistics=("locally_best_fitted", "transitivity_index"),
    )
    table = nt.run_experiment(cfg, seed=314)
    assert (table.alpha, table.n_reps, table.n_draws) == (0.5, 8, 25)
    assert [(r.gamma, r.statistic) for r in table.rows] == [
        (0.0, "locally_best_fitted"),
        (0.0, "transitivity_index"),
        (0.3, "locally_best_fitted"),
        (0.3, "transitivity_index"),
    ]
    for row in table.rows:
        assert row.n_used + row.n_failures == cfg.n_reps
        assert row.n_used > 0
        assert 0 <= row.rejections <= row.n_used
        assert row.reject_rate == row.rejections / row.n_used
        expected_se = math.sqrt(row.reject_rate * (1 - row.reject_rate) / row.n_used)
        assert row.std_error == expected_se
    # rows at the same gamma share the replication pool, hence the failures
    for gamma in cfg.gammas:
        fitted = table.rate(gamma, "locally_best_fitted")
        ad_hoc = table.rate(gamma, "transitivity_index")
        assert fitted.n_used == ad_hoc.n_used
        assert fitted.n_failures == ad_hoc.n_failures
    # at least one replication separated and at least one test rejected,
    # so the accounting above is exercised away from the trivial corner
    assert sum(row.n_failures for row in table.rows) > 0
    assert sum(row.rejections for row in table.rows) > 0

    again = nt.run_experiment(cfg, seed=314)
    assert again.rows == table.rows
    parallel = nt.run_experiment(cfg, seed=314, jobs=3)
    assert parallel.rows == table.rows


def test_small_populations_fail_often_and_are_counted():
    cfg = nt.ExperimentConfig(
        n_nodes=8,
        n_reps=6,
        n_draws=10,
        alpha=0.2,
        gammas=(0.0,),
        statistics=("locally_best_fitted",),
    )
    table = nt.run_experiment(cfg, seed=2)
    (row,) = table.rows
    assert row.n_used + row.n_failures == 6
    assert row.n_failures > 0
    assert row.rejections <= max(row.n_used, 0)


def test_a_gamma_without_a_usable_replication_warns():
    # The customer-product term saturates at gamma = 0.13, so every fit there
    # separates; gamma = 0 keeps two of its three replications.
    cfg = nt.ExperimentConfig(
        n_nodes=24,
        n_reps=3,
        n_draws=5,
        gammas=(0.0, 0.13),
        strategic="customer_product",
        statistics=("locally_best_fitted", "transitivity_index"),
    )
    with pytest.warns(UserWarning) as caught:
        table = nt.run_experiment(cfg, seed=5)
    assert [str(w.message) for w in caught] == [
        "gamma = 0.13: all 3 replication(s) failed (separated fit or frozen chain), "
        "so the rejection rates of locally_best_fitted, transitivity_index are undefined"
    ]
    assert [row.n_used for row in table.rows] == [2, 2, 0, 0]


def test_alpha_below_the_p_value_floor_never_rejects():
    # add-one p-values are bounded below by 1/(n_draws + 1) = 1/31, so a level
    # under that floor cannot reject no matter how extreme the network is
    cfg = nt.ExperimentConfig(
        n_nodes=24,
        n_reps=3,
        n_draws=30,
        alpha=0.02,
        gammas=(0.0, 0.3),
        statistics=("transitivity_index",),
    )
    table = nt.run_experiment(cfg, seed=77)
    for row in table.rows:
        assert row.n_used == 3
        assert row.rejections == 0
        assert row.reject_rate == 0.0


def test_enumerated_reference_handles_a_network_alone_in_its_set():
    # at n = 5 some replications draw a network that is the only member of its
    # reference set; with no other member its add-one p-value is 1, so the
    # replication counts as used and does not reject
    cfg = nt.ExperimentConfig(
        n_nodes=5,
        n_reps=4,
        n_draws=5,
        alpha=0.3,
        gammas=(0.0,),
        statistics=("transitivity_index", "reciprocity_index"),
        reference="enumerated",
    )
    table = nt.run_experiment(cfg, seed=6)
    for row in table.rows:
        assert row.n_used == 4 and row.n_failures == 0
        assert 0 <= row.rejections <= row.n_used


# -- curtailed replications ------------------------------------------------------

ALL_STATISTICS = (
    "locally_best_fitted",
    "locally_best_true",
    "transitivity_index",
    "reciprocity_index",
)

CURTAILMENT_CASES = {
    # alpha on the p-value lattice: 1/20 and 2/40 equal 0.05 exactly
    "crosslink_b19": dict(n_draws=19, statistics=ALL_STATISTICS),
    "degree_only_b39": dict(n_draws=39, statistics=ALL_STATISTICS, reference="degree_only"),
    # at n = 4 many observed networks and draws have no two-path (transitivity
    # undefined) and some are empty (reciprocity undefined); at alpha = 4/20
    # some statistics reject despite undefined draws
    "density_undefined": dict(
        n_nodes=4,
        n_reps=60,
        n_draws=19,
        alpha=0.2,
        gammas=(0.0, 0.5),
        statistics=("locally_best_true", "transitivity_index", "reciprocity_index"),
        reference="density_only",
    ),
    # the enumerated reference uses the whole set, which is often larger
    # than n_draws at n = 6
    "enumerated_n6": dict(
        n_nodes=6,
        n_reps=60,
        n_draws=5,
        alpha=0.1,
        gammas=(0.0, 0.5),
        statistics=("locally_best_true", "transitivity_index", "reciprocity_index"),
        reference="enumerated",
    ),
}


def _curtailment_config(case):
    settings = dict(n_nodes=24, n_reps=8, alpha=0.05, gammas=(0.0, 0.3))
    settings.update(CURTAILMENT_CASES[case])
    return nt.ExperimentConfig(**settings)


@pytest.mark.parametrize("case", sorted(CURTAILMENT_CASES))
def test_curtailed_replications_equal_the_full_draw_replications(case):
    cfg = _curtailment_config(case)
    for gamma_index in range(len(cfg.gammas)):
        for rep in range(cfg.n_reps):
            assert harness._replication(cfg, 41, gamma_index, rep) == full_replication(
                cfg, 41, gamma_index, rep
            )


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("case", sorted(CURTAILMENT_CASES))
def test_curtailed_tables_equal_the_full_draw_tables(monkeypatch, case, jobs):
    cfg = _curtailment_config(case)
    curtailed = nt.run_experiment(cfg, seed=41, jobs=jobs)
    with monkeypatch.context() as m:
        m.setattr(harness, "_replication", full_replication)
        full = nt.run_experiment(cfg, seed=41, jobs=jobs)
    assert curtailed == full
    # some statistic rejects, so a rule that stops too early shows
    assert sum(row.rejections for row in full.rows) > 0


@pytest.fixture
def draw_counts(monkeypatch):
    """Counts of reference draws and tau pilots made while the test runs."""
    counts = {"draws": 0, "pilots": 0}
    draw = testing.ReferenceDraws.draw
    pilot = testing.mixing_time_heuristic

    def counted_draw(self, b, stats):
        counts["draws"] += 1
        return draw(self, b, stats)

    def counted_pilot(*args, **kwargs):
        counts["pilots"] += 1
        return pilot(*args, **kwargs)

    monkeypatch.setattr(testing.ReferenceDraws, "draw", counted_draw)
    monkeypatch.setattr(testing, "mixing_time_heuristic", counted_pilot)
    return counts


def test_null_replications_stop_drawing_early(draw_counts):
    cfg = nt.ExperimentConfig(
        n_nodes=16,
        n_reps=6,
        n_draws=39,
        gammas=(0.0,),
        statistics=("transitivity_index",),
    )
    (row,) = nt.run_experiment(cfg, seed=43).rows
    assert row.n_used == cfg.n_reps
    assert draw_counts["pilots"] == cfg.n_reps
    assert 0 < draw_counts["draws"] < cfg.n_reps * cfg.n_draws


def test_alpha_below_the_p_value_floor_makes_no_draws(draw_counts):
    # 1/(n_draws + 1) = 1/31 > 0.02 before any draw, yet each replication
    # still runs its pilot, so a frozen chain is still counted as a failure
    cfg = nt.ExperimentConfig(
        n_nodes=16,
        n_reps=3,
        n_draws=30,
        alpha=0.02,
        gammas=(0.0, 0.3),
        statistics=("transitivity_index",),
    )
    table = nt.run_experiment(cfg, seed=77)
    assert all(row.rejections == 0 for row in table.rows)
    assert draw_counts["pilots"] == sum(row.n_used + row.n_failures for row in table.rows)
    assert draw_counts["draws"] == 0
