"""Release acceptance battery: one test per shipped acceptance criterion.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  The battery pins, end to end, what the package promises:

 1. a million chain steps never move the conditioning statistics (exact);
 2. chain draws are uniform over exhaustively enumerated reference sets;
 3. one-step transition frequencies are symmetric between every state pair;
 4. the score statistic equals the equilibrium-derivative route to 1e-10;
 5. the reciprocity likelihood has the score as its derivative at gamma = 0
    and matches a 10^7-draw simulation with explicit equilibrium selection;
 6. study-scale null fits reproduce every conditioning moment to 1e-6;
 7. the calibration table prints the six advertised link probabilities;
 8. null simulations of the study design land in the advertised summary bands;
 9. the feasible score test has nominal size at desk scale;
10. at the top default gamma the score test beats the transitivity test,
    and both beat size, by more than three pooled standard errors;
11. every simulated alternative network is an exact pure-strategy equilibrium;
12. CLI reruns with identical inputs and seed are byte-identical.

Most tests are frozen-seed Monte Carlo runs; expected runtimes are noted on
each test (about nine minutes total on one core, dominated by the uniformity
sweep and the desk-scale power experiment).  Criteria 1, 2, 9 and 10 carry
the ``slow`` marker, so ``pytest -m "not slow"`` leaves them out of a quick
loop; a plain ``pytest`` still runs them.

Criterion 8 checks the null summaries of the study design at n = 48: the
mean density and transitivity against their advertised bands, and the mean
variance of the in-degrees against its closed form from the design
(``null_in_degree_variance`` in ``_fixtures``).  That variance grows about as
n^2, since the receiver levels spread the expected in-degrees in proportion
to n: it is about 64 at n = 48 (an SD of about 8.0) and about 16.9 at n = 24
(an SD of about 4.1).  The advertised SD band [3.7, 4.5] holds at n = 24,
and the test asserts it there on the closed form.
"""

import json
import math
import random
import time

import numpy as np
import pytest
from scipy.stats import chisquare

import netformtest as nt
from netformtest.cli import main as cli_main
from netformtest.graphs import cross_link_matrix, degree_sequence
from netformtest.model import logistic_cdf
from netformtest.sampler import (
    ChainConfig,
    enumerate_reference_set,
    markov_draw,
    markov_step,
)

from _fixtures import (
    CHAIN_FIXTURES,
    build_fixture,
    dyad_likelihood_oracle,
    null_in_degree_variance,
    random_delta,
    random_digraph,
    random_groups,
    simulate_uniform_ne_dyad,
)

SPEC_KINDS = ("reciprocity", "transitivity", "customer_product")


# -- criterion 1: exact invariance over a million steps (about 25 s) --------------


@pytest.mark.slow
def test_01_million_steps_preserve_the_conditioning_statistics():
    rng = random.Random(2026)
    n = 20
    d = random_digraph(n, 0.5, rng)
    codes = tuple(rng.randrange(2) for _ in range(n))
    if len(set(codes)) < 2:
        codes = (0, 1) + codes[2:]
    g = nt.GroupAssignment(codes, 2)
    assert d.arc_count() == 172  # frozen fixture pin

    out0 = tuple(d.out_degrees())
    in0 = tuple(d.in_degrees())
    m0 = cross_link_matrix(d, g).counts
    cfg = ChainConfig(tau=1, q=0.25)
    step_rng = random.Random(97)

    start = time.perf_counter()
    for _ in range(1_000_000):
        markov_step(d, g, cfg, step_rng)
        assert tuple(d.out_degrees()) == out0
        assert tuple(d.in_degrees()) == in0
        assert cross_link_matrix(d, g).counts == m0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"one million checked steps took {elapsed:.1f} s"


# -- criterion 2: uniformity against exhaustive enumeration (about 3 min) ---------

# Walk lengths per fixture, tuned once from the pilot heuristic and frozen.
UNIFORMITY_TAU = {
    "n4_cycle": 32,
    "n4_size6": 50,
    "n4_k2": 68,
    "n5_cycle": 38,
    "n5_k2_a": 134,
    "n5_k2_b": 88,
}


@pytest.mark.slow
def test_02_sampled_draws_are_uniform_over_enumerated_reference_sets():
    assert len(CHAIN_FIXTURES) >= 5
    n_draws = 50_000
    start = time.perf_counter()
    for entry in CHAIN_FIXTURES:
        name = entry[0]
        d, g, size = build_fixture(entry)
        assert d.n in (4, 5) and g.n_groups <= 2
        members = enumerate_reference_set(degree_sequence(d), cross_link_matrix(d, g), g)
        assert len(members) == size and 6 <= size <= 200
        index = {m.key(): t for t, m in enumerate(members)}

        cfg = ChainConfig(tau=UNIFORMITY_TAU[name], q=0.5)
        rng = random.Random(97)
        counts = np.zeros(size)
        for _ in range(n_draws):
            draw = markov_draw(d, g, cfg, rng)
            counts[index[draw.key()]] += 1  # KeyError = left the reference set

        p_value = chisquare(counts).pvalue
        assert p_value > 0.001, f"{name}: uniformity rejected, p = {p_value:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"uniformity sweep took {elapsed:.1f} s"


# -- criterion 3: one-step symmetry between state pairs (about 8 s) ---------------


def test_03_one_step_transition_frequencies_are_symmetric():
    d, g, size = build_fixture(CHAIN_FIXTURES[1])  # the six-member reference set
    members = enumerate_reference_set(degree_sequence(d), cross_link_matrix(d, g), g)
    index = {m.key(): t for t, m in enumerate(members)}

    cfg = ChainConfig(tau=1, q=0.5)
    rng = random.Random(12345)
    counts = np.zeros((size, size))
    state = index[d.key()]
    for _ in range(1_000_000):
        markov_step(d, g, cfg, rng)
        nxt = index[d.key()]
        counts[state, nxt] += 1
        state = nxt

    assert (counts.sum(axis=0) > 0).all()  # every member was visited
    for x in range(size):
        for y in range(x + 1, size):
            total = counts[x, y] + counts[y, x]
            assert total > 0
            z = abs(counts[x, y] - counts[y, x]) / math.sqrt(total)
            assert z < 4.0, f"pair ({x}, {y}): asymmetry z = {z:.2f}"


# -- criterion 4: score statistic equals the equilibrium derivative ---------------


def test_04_score_statistic_equals_the_equilibrium_derivative():
    rng = random.Random(41)
    worst = 0.0
    for _ in range(100):
        n = rng.randrange(3, 11)
        K = rng.choice([1, 2, 3])
        g = random_groups(n, K, rng)
        delta = random_delta(n, K, rng)
        d = random_digraph(n, 0.4, rng)
        spec = nt.strategic_spec(rng.choice(SPEC_KINDS), n)
        a = nt.locally_best_statistic(d, delta, spec, g)
        b = nt.theorem2_derivative(d, delta, spec, g)
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    assert worst <= 1e-10, f"worst scaled deviation {worst:.2e}"


# -- criterion 5: likelihood derivative and simulated selection (about 3 s) -------


def test_05_reciprocity_likelihood_matches_score_and_simulation():
    # Part one: the score is the derivative of the normalized likelihood at
    # gamma = 0.  The shipped likelihood covers gamma >= 0; the independent
    # oracle extends it smoothly below zero, so the central difference pairs
    # the two implementations across the origin.
    rng = random.Random(55)
    h = 1e-5
    worst = 0.0
    for n in (2, 3):
        for _ in range(20):
            K = rng.choice([1, min(2, n)])
            g = random_groups(n, K, rng)
            delta = random_delta(n, K, rng, scale=0.8)
            d = random_digraph(n, 0.5, rng)
            while d.arc_count() == 0:
                d = random_digraph(n, 0.5, rng)
            p0 = dyad_likelihood_oracle(d, g, delta, 0.0)
            up = nt.exact_reciprocity_likelihood(d, g, delta, h)
            down = dyad_likelihood_oracle(d, g, delta, -h)
            derivative = (up - down) / (2.0 * h) / p0
            score = nt.locally_best_statistic(d, delta, nt.reciprocity_spec(), g)
            worst = max(worst, abs(derivative - score) / abs(score))
    assert worst < 1e-4, f"worst relative error {worst:.2e}"

    # Part two: the two-node closed form against ten million simulated dyads
    # with explicit uniform-over-equilibria selection.
    g2 = nt.GroupAssignment.single_group(2)
    n_total, chunk = 10_000_000, 1_000_000
    hand_values = {(1, 1): 0.73, (1, 0): 0.05, (0, 1): 0.05, (0, 0): 0.17}
    for mu_vec, gamma in (((0.0, 0.0), math.log(9.0)), ((0.6, -0.8), 1.0)):
        delta = nt.NuisanceParams(np.array(mu_vec), np.zeros(2), np.zeros((1, 1)))
        mu = nt.systematic_utility(delta, g2)
        rng_np = np.random.default_rng(77)
        counts = dict.fromkeys(hand_values, 0.0)
        for _ in range(n_total // chunk):
            freqs = simulate_uniform_ne_dyad(mu[0, 1], mu[1, 0], gamma, chunk, rng_np)
            for state, freq in freqs.items():
                counts[state] += freq * chunk
        for state, count in counts.items():
            arcs = ([(0, 1)] if state[0] else []) + ([(1, 0)] if state[1] else [])
            d = nt.from_edge_list(arcs, 2)
            p = nt.exact_reciprocity_likelihood(d, g2, delta, gamma)
            if mu_vec == (0.0, 0.0):  # hand-computable symmetric case
                assert abs(p - hand_values[state]) < 1e-12
            se = math.sqrt(p * (1.0 - p) / n_total)
            z = abs(count / n_total - p) / se
            assert z < 3.0, f"mu={mu_vec}, state {state}: z = {z:.2f}"


# -- criterion 6: study-scale fits reproduce the conditioning moments -------------


def test_06_study_scale_fits_match_all_conditioning_moments():
    rng = np.random.default_rng(480)
    fits = 0
    worst = 0.0
    while fits < 3:
        delta, g = nt.study_population(48, rng)
        d = nt.simulate_null(delta, g, rng)
        start = time.perf_counter()
        try:
            fitted = nt.mle_null(d, g)
        except nt.SeparationError:
            continue
        fit_seconds = time.perf_counter() - start
        assert fit_seconds < 10.0, f"fit took {fit_seconds:.1f} s"
        fits += 1

        probs = logistic_cdf(nt.systematic_utility(fitted, g))
        np.fill_diagonal(probs, 0.0)
        worst = max(worst, np.abs(probs.sum(axis=1) - np.array(d.out_degrees())).max())
        worst = max(worst, np.abs(probs.sum(axis=0) - np.array(d.in_degrees())).max())
        observed_blocks = cross_link_matrix(d, g).counts
        codes = np.array(g.codes)
        for a in range(g.n_groups):
            for b in range(g.n_groups):
                block = probs[np.ix_(codes == a, codes == b)].sum()
                worst = max(worst, abs(block - observed_blocks[a][b]))
    assert worst < 1e-6, f"worst moment mismatch {worst:.2e}"


# -- criterion 7: the calibration table prints the advertised probabilities -------


def test_07_calibration_table_prints_the_expected_probabilities():
    rows = nt.table1_calibration()
    printed = [round(r.link_prob, 2) for r in rows[:5]] + [round(rows[5].link_prob, 3)]
    assert printed == [0.90, 0.50, 0.10, 0.50, 0.10, 0.012]


# -- criterion 8: null summaries of the study design (about 2 s) ----------------


def test_08_null_design_summaries_at_study_scale():
    n, reps = 48, 1000
    rng = np.random.default_rng(555)
    density = np.empty(reps)
    transitivity = np.empty(reps)
    in_degree_var = np.empty(reps)
    start = time.perf_counter()
    for k in range(reps):
        delta, g = nt.study_population(n, rng)
        d = nt.simulate_null(delta, g, rng)
        density[k] = d.arc_count() / (n * (n - 1))
        transitivity[k] = nt.transitivity_index(d)
        in_degree_var[k] = np.var(d.in_degrees())
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"{reps} null simulations took {elapsed:.1f} s"

    assert 0.32 <= density.mean() <= 0.36
    assert 0.50 <= transitivity.mean() <= 0.56

    # The advertised in-degree SD band is stated for n = 24.
    assert 3.7 <= math.sqrt(null_in_degree_variance(24)) <= 4.5
    expected = null_in_degree_variance(n)  # 64.02
    mc_se = float(in_degree_var.std(ddof=1)) / math.sqrt(reps)  # about 0.25
    z = (float(in_degree_var.mean()) - expected) / mc_se
    assert abs(z) < 4.0, (
        f"mean in-degree variance at n = {n} is {in_degree_var.mean():.3f} "
        f"against the closed form {expected:.3f}: z = {z:.2f}"
    )


# -- criteria 9 and 10: desk-scale size and power (about 4.5 min, shared) ---------


@pytest.fixture(scope="module")
def desk_scale_power():
    """One 200-replication size/power experiment shared by criteria 9 and 10."""
    cfg = nt.ExperimentConfig(
        n_nodes=24,
        n_reps=200,
        n_draws=200,
        alpha=0.05,
        gammas=(0.0, nt.ExperimentConfig().gammas[-1]),
        statistics=("locally_best_fitted", "transitivity_index"),
    )
    start = time.perf_counter()
    table = nt.run_experiment(cfg, seed=20260814)
    elapsed = time.perf_counter() - start
    return cfg, table, elapsed


@pytest.mark.slow
def test_09_feasible_locally_best_test_has_nominal_size(desk_scale_power):
    cfg, table, elapsed = desk_scale_power
    assert elapsed < 1800.0, f"experiment took {elapsed:.0f} s"
    row = table.rate(0.0, "locally_best_fitted")
    assert row.n_used > 0
    half_width = 3.0 * math.sqrt(cfg.alpha * (1.0 - cfg.alpha) / cfg.n_reps)  # 0.046
    assert abs(row.reject_rate - cfg.alpha) <= half_width, (
        f"size {row.reject_rate:.4f} outside {cfg.alpha} +/- {half_width:.3f}"
    )


@pytest.mark.slow
def test_10_power_separates_the_statistics_at_the_top_default_gamma(desk_scale_power):
    cfg, table, _ = desk_scale_power
    top = cfg.gammas[-1]
    assert top == nt.ExperimentConfig().gammas[-1]  # largest default-grid point

    lb_top = table.rate(top, "locally_best_fitted")
    ti_top = table.rate(top, "transitivity_index")
    lb_null = table.rate(0.0, "locally_best_fitted")
    ti_null = table.rate(0.0, "transitivity_index")

    def gap_in_pooled_ses(hi, lo):
        return (hi.reject_rate - lo.reject_rate) / math.hypot(hi.std_error, lo.std_error)

    assert gap_in_pooled_ses(lb_top, ti_top) > 3.0, "score test must beat transitivity"
    assert gap_in_pooled_ses(lb_top, lb_null) > 3.0, "score power must beat size"
    assert gap_in_pooled_ses(ti_top, ti_null) > 3.0, "transitivity power must beat size"


# -- criterion 11: simulated alternatives are exact equilibria --------------------


def test_11_simulated_alternatives_are_exact_equilibria():
    rng = random.Random(11)
    rng_np = np.random.default_rng(11)
    for _ in range(1000):
        n = rng.randrange(4, 15)
        K = rng.choice([1, 2])
        g = random_groups(n, K, rng)
        delta = random_delta(n, K, rng, scale=0.8)
        gamma = rng.random() * 1.2
        spec = nt.strategic_spec(rng.choice(SPEC_KINDS), n)
        shocks = nt.draw_logistic_shocks(rng_np, n)
        d = nt.simulate_alternative(delta, gamma, spec, g, shocks=shocks)
        assert nt.is_equilibrium(d, delta, gamma, spec, g, shocks)


# -- criterion 12: CLI reruns are byte-identical (about 20 s) ----------------------


def _write_edges(path, arcs):
    path.write_text("\n".join(["source,target"] + [f"{i},{j}" for i, j in arcs]) + "\n")


def _write_nodes(path, codes):
    lines = ["node,group"] + [f"{i},g{c}" for i, c in enumerate(codes)]
    path.write_text("\n".join(lines) + "\n")


def _fittable_network(seed=3, n=12, K=2):
    """A deterministic dense two-group network whose null MLE exists."""
    rng = np.random.default_rng(seed)
    while True:
        dense = rng.random((n, n)) < 0.45
        np.fill_diagonal(dense, False)
        codes = tuple(int(x) for x in rng.integers(0, K, size=n))
        if len(set(codes)) < K:
            continue
        d = nt.AdjacencyMatrix.from_dense(dense)
        g = nt.GroupAssignment(codes, K)
        try:
            nt.mle_null(d, g)
        except nt.SeparationError:
            continue
        return d, g


def test_12_cli_reruns_with_identical_inputs_are_byte_identical(tmp_path):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    k2_name, k2_n, k2_codes, k2_arcs, _ = CHAIN_FIXTURES[2]
    _write_edges(inputs / "k2_edges.csv", k2_arcs)
    _write_nodes(inputs / "k2_nodes.csv", k2_codes)
    net, groups = _fittable_network()
    _write_edges(inputs / "net_edges.csv", net.arcs())
    _write_nodes(inputs / "net_nodes.csv", groups.codes)

    # Upstream artifacts consumed by later subcommands are produced once, so
    # both passes see byte-identical input files at identical paths.
    assert cli_main(["fit", "--edges", str(inputs / "net_edges.csv"),
                     "--nodes", str(inputs / "net_nodes.csv"),
                     "--out", str(inputs / "fit"), "--seed", "1"]) == 0
    assert cli_main(["simulate", "--params", str(inputs / "fit" / "params.json"),
                     "--gamma", "0.3", "--spec", "transitivity",
                     "--out", str(inputs / "sim"), "--seed", "5"]) == 0

    commands = {
        "calibrate": ["calibrate", "--seed", "1"],
        "enumerate": ["enumerate", "--edges", str(inputs / "k2_edges.csv"),
                      "--nodes", str(inputs / "k2_nodes.csv"),
                      "--write-members", "--seed", "2"],
        "sample": ["sample", "--edges", str(inputs / "k2_edges.csv"),
                   "--nodes", str(inputs / "k2_nodes.csv"),
                   "--draws", "8", "--tau", "40", "--seed", "3"],
        "fit": ["fit", "--edges", str(inputs / "net_edges.csv"),
                "--nodes", str(inputs / "net_nodes.csv"), "--seed", "4"],
        "simulate": ["simulate", "--params", str(inputs / "fit" / "params.json"),
                     "--gamma", "0.3", "--spec", "transitivity", "--seed", "5"],
        "test": ["test", "--edges", str(inputs / "sim" / "edges.csv"),
                 "--nodes", str(inputs / "net_nodes.csv"),
                 "--statistic", "locally-best", "--spec", "transitivity",
                 "--delta-source", "provided",
                 "--params", str(inputs / "fit" / "params.json"),
                 "--reference", "degree-crosslink",
                 "--tau", "30", "--draws", "20", "--seed", "6"],
        "mc-experiment": ["mc-experiment", "--n-nodes", "16", "--n-reps", "2",
                          "--n-draws", "10", "--alpha", "0.2", "--gammas", "0,0.3",
                          "--statistics", "transitivity_index",
                          "--seed", "7", "--jobs", "1"],
    }

    for tree in ("one", "two"):
        for name, argv in commands.items():
            outdir = tmp_path / tree / name
            assert cli_main(argv + ["--out", str(outdir)]) == 0, f"{name} failed"

    for name in commands:
        first, second = tmp_path / "one" / name, tmp_path / "two" / name
        files = sorted(p.name for p in first.iterdir())
        assert files == sorted(p.name for p in second.iterdir())
        assert len(files) >= 2  # at least one artifact besides the manifest
        for fname in files:
            if fname == "manifest.json":
                manifests = []
                for path in (first / fname, second / fname):
                    manifest = json.loads(path.read_text())
                    manifest.pop("started_at")
                    manifest.pop("wall_clock_sec")
                    manifests.append(manifest)
                assert manifests[0] == manifests[1], f"{name}: manifest drifted"
            else:
                assert (first / fname).read_bytes() == (second / fname).read_bytes(), (
                    f"{name}/{fname}: rerun is not byte-identical"
                )
