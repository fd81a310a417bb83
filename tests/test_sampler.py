"""Tests for the cycle-switching sampler.

The probability oracles here recount every walk step's feasible set with
explicit ``has_arc`` loops and a plain set of traversed links, independently
of the bitmask arithmetic inside the sampler.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

import netformtest as nt
from netformtest.graphs import cross_link_matrix
from netformtest.sampler import (
    ChainConfig,
    ChainStats,
    FrozenChainError,
    StepInfo,
    enumerate_reference_set,
    markov_draw,
    markov_step,
    mixing_time_heuristic,
)
from netformtest.sampler import _expected_trade_flips, _select_bit, _trade, _walk

from _fixtures import (
    CHAIN_FIXTURES,
    LinkMarks,
    arcs_of,
    brute_force_reference_set,
    build_fixture,
    cycle_arcs,
    detect_schlaufe,
    global_trade_matrix,
    random_digraph,
    random_groups,
    reference_step,
    reference_trade,
    reference_walk,
    replay_walk_log_prob,
    reversed_walk,
    switch_cycle,
    tally,
    violation_of_cycle,
)


def walk_links(nodes):
    """Directed links a walk traverses: (i, j) meaning the slot for arc i->j.

    Even steps follow a present arc nodes[t] -> nodes[t+1]; odd steps pick the
    absent arc nodes[t+1] -> nodes[t].  Both aim into the passive node.
    """
    links = []
    for t in range(len(nodes) - 1):
        if t % 2 == 0:
            links.append((nodes[t], nodes[t + 1]))
        else:
            links.append((nodes[t + 1], nodes[t]))
    return links


def naive_walk_log_prob(d, nodes, premarked=()):
    """Recount a walk's realization probability with explicit loops."""
    n = d.n
    marked = set(premarked)
    lp = -math.log(n)
    for t in range(len(nodes) - 1):
        if t % 2 == 0:
            cur, j = nodes[t], nodes[t + 1]
            feasible = [
                v for v in range(n) if d.has_arc(cur, v) and (cur, v) not in marked
            ]
            assert j in feasible
            lp -= math.log(len(feasible))
            marked.add((cur, j))
        else:
            j, k = nodes[t], nodes[t + 1]
            feasible = [
                v
                for v in range(n)
                if v != j and not d.has_arc(v, j) and (v, j) not in marked
            ]
            assert k in feasible
            lp -= math.log(len(feasible))
            marked.add((k, j))
    return lp


def random_walk_cases(n_cases, n_nodes=7, p=0.45, seed=0):
    """Yield (graph, groups, schlaufe) triples from fresh-marks walks."""
    rng = random.Random(seed)
    for _ in range(n_cases):
        d = random_digraph(n_nodes, p, rng)
        g = random_groups(n_nodes, rng.choice([1, 2, 3]), rng)
        s = detect_schlaufe(d, g, LinkMarks(n_nodes), rng)
        yield d, g, s


# -- alternating-walk structure ------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_walk_structure_invariants(seed):
    rng = random.Random(seed)
    n = rng.randrange(3, 9)
    d = random_digraph(n, rng.uniform(0.2, 0.7), rng)
    g = random_groups(n, rng.choice([1, 2]), rng)
    before = d.key()
    marks = LinkMarks(n)
    s = detect_schlaufe(d, g, marks, rng)

    assert d.key() == before  # the walk never mutates the graph
    assert s.roles == tuple(
        "active" if t % 2 == 0 else "passive" for t in range(len(s.nodes))
    )
    for t in range(len(s.nodes) - 1):
        if t % 2 == 0:
            assert d.has_arc(s.nodes[t], s.nodes[t + 1])
        else:
            assert s.nodes[t + 1] != s.nodes[t]
            assert not d.has_arc(s.nodes[t + 1], s.nodes[t])
    for i, j in walk_links(s.nodes):
        assert marks.is_marked(i, j)
    assert marks.count() == len(s.nodes) - 1

    if s.cycle is None:
        assert not s.violation.any()
        assert cycle_arcs(s) == []
    else:
        a, b = s.cycle
        assert 0 <= a < b == len(s.nodes) - 1
        assert s.nodes[a] == s.nodes[b]
        assert s.roles[a] == s.roles[b]
        assert (b - a) % 2 == 0
        # first same-role revisit closes the walk, so no earlier duplicates
        for role in ("active", "passive"):
            seen = [s.nodes[t] for t in range(b) if s.roles[t] == role]
            assert len(seen) == len(set(seen))


def test_walks_in_one_attempt_are_link_disjoint():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(4, 9)
        d = random_digraph(n, 0.4, rng)
        g = nt.GroupAssignment.single_group(n)
        marks = LinkMarks(n)
        traversed = []
        for _ in range(4):
            s = detect_schlaufe(d, g, marks, rng)
            traversed.append(set(walk_links(s.nodes)))
        for a in range(4):
            for b in range(a + 1, 4):
                assert not (traversed[a] & traversed[b])
        assert marks.count() == sum(len(t) for t in traversed)


def test_link_marks_mark_and_clear():
    marks = LinkMarks(4)
    assert not marks.is_marked(1, 2)
    marks.mark(1, 2)
    marks.mark(3, 0)
    assert marks.is_marked(1, 2) and marks.is_marked(3, 0)
    assert not marks.is_marked(2, 1)
    assert marks.count() == 2
    marks.clear()
    assert marks.count() == 0 and not marks.is_marked(1, 2)


# -- walk probabilities ---------------------------------------------------------


def test_walk_log_prob_matches_naive_recount():
    for d, _, s in random_walk_cases(120, seed=21):
        assert s.log_prob == pytest.approx(
            naive_walk_log_prob(d, s.nodes), abs=1e-12
        )


def test_second_walk_log_prob_accounts_for_earlier_marks():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(5, 9)
        d = random_digraph(n, 0.45, rng)
        g = nt.GroupAssignment.single_group(n)
        marks = LinkMarks(n)
        first = detect_schlaufe(d, g, marks, rng)
        second = detect_schlaufe(d, g, marks, rng)
        oracle = naive_walk_log_prob(
            d, second.nodes, premarked=walk_links(first.nodes)
        )
        assert second.log_prob == pytest.approx(oracle, abs=1e-12)


def test_replay_matches_fresh_walk_log_prob():
    for d, _, s in random_walk_cases(80, seed=33):
        assert replay_walk_log_prob(d, s.nodes) == pytest.approx(
            s.log_prob, abs=1e-12
        )


def test_replay_on_constructed_graph_multiplies_choice_counts():
    # Node 0 has two out-arcs; after following 0 -> 1 the passive step at node
    # 1 may pick any of the 7 nodes that are not 1 itself and have no arc into
    # 1 (arcs 0 -> 1 and 9 -> 1 exist), so the walk (0, 1, 2) has probability
    # 1/10 * 1/2 * 1/7.
    d = nt.from_edge_list([(0, 1), (0, 5), (9, 1)], 10)
    lp = replay_walk_log_prob(d, [0, 1, 2])
    assert lp == pytest.approx(-(math.log(10) + math.log(2) + math.log(7)), abs=1e-12)


def test_replay_rejects_infeasible_steps():
    d = nt.from_edge_list([(0, 1), (0, 5), (9, 1)], 10)
    with pytest.raises(ValueError, match="infeasible"):
        replay_walk_log_prob(d, [0, 3])  # arc 0 -> 3 is absent
    with pytest.raises(ValueError, match="cannot pick"):
        replay_walk_log_prob(d, [0, 1, 9])  # arc 9 -> 1 is present
    with pytest.raises(ValueError, match="cannot pick"):
        replay_walk_log_prob(d, [0, 1, 1])  # self-loops are never feasible


def test_walk_start_is_uniform_over_nodes():
    lp = replay_walk_log_prob(nt.from_edge_list([(0, 1)], 6), [3])
    assert lp == pytest.approx(-math.log(6), abs=1e-15)


# -- cycle violations -----------------------------------------------------------


def test_cross_group_rewiring_violation_signature():
    # Switching two within-group arcs into two cross-group arcs: the cycle
    # (0 -> 1 present, 2 -> 1 absent, 2 -> 3 present, 0 -> 3 absent) with
    # groups (0, 0, 1, 1) moves one arc out of each diagonal cell.
    g = nt.GroupAssignment((0, 0, 1, 1), 2)
    arcs = [(0, 1, True), (2, 1, False), (2, 3, True), (0, 3, False)]
    violation = violation_of_cycle(arcs, g)
    assert violation.tolist() == [[-1, 1], [1, -1]]


def test_single_group_cycles_have_zero_violation():
    g = nt.GroupAssignment.single_group(4)
    arcs = [(0, 1, True), (2, 1, False), (2, 3, True), (0, 3, False)]
    assert violation_of_cycle(arcs, g).tolist() == [[0]]


def test_cycle_violations_sum_to_zero_and_match_schlaufe():
    seen_cycles = 0
    for _, g, s in random_walk_cases(150, seed=11):
        if s.cycle is None:
            continue
        seen_cycles += 1
        violation = violation_of_cycle(cycle_arcs(s), g)
        assert violation.sum() == 0
        assert np.array_equal(violation, s.violation)
    assert seen_cycles > 30


# -- cycle switching ------------------------------------------------------------


def test_switch_toggles_exactly_the_cycle_arcs():
    for d, _, s in random_walk_cases(120, seed=55):
        if s.cycle is None:
            continue
        arcs = cycle_arcs(s)
        before = d.to_array()
        switch_cycle(d, arcs)
        after = d.to_array()
        diff = {(i, j) for i in range(d.n) for j in range(d.n) if before[i, j] != after[i, j]}
        assert diff == {(u, v) for u, v, _ in arcs}
        for u, v, present in arcs:
            assert d.has_arc(u, v) == (not present)


def test_switch_preserves_degrees_and_shifts_cross_counts_by_violation():
    for d, g, s in random_walk_cases(120, seed=77):
        if s.cycle is None:
            continue
        deg = (d.out_degrees(), d.in_degrees())
        m = np.array(cross_link_matrix(d, g))
        switch_cycle(d, cycle_arcs(s))
        assert (d.out_degrees(), d.in_degrees()) == deg
        assert np.array_equal(np.array(cross_link_matrix(d, g)), m + s.violation)


def test_switch_undone_by_reversed_flag_flipped_cycle():
    for d, _, s in random_walk_cases(80, seed=99):
        if s.cycle is None:
            continue
        original = d.key()
        arcs = cycle_arcs(s)
        switch_cycle(d, arcs)
        switch_cycle(d, [(u, v, not p) for u, v, p in reversed(arcs)])
        assert d.key() == original


def test_switch_rectangle_moves_two_arc_heads():
    d = nt.from_edge_list([(0, 1), (2, 3)], 4)
    switch_cycle(d, [(0, 1, True), (2, 1, False), (2, 3, True), (0, 3, False)])
    assert sorted(arcs_of(d)) == [(0, 3), (2, 1)]
    assert d.out_degrees() == [1, 0, 1, 0]
    assert d.in_degrees() == [0, 1, 0, 1]


def test_switch_six_arc_cycle_reverses_directed_triangle():
    d = nt.from_edge_list([(0, 1), (1, 2), (2, 0)], 3)
    switch_cycle(
        d,
        [
            (0, 1, True),
            (2, 1, False),
            (2, 0, True),
            (1, 0, False),
            (1, 2, True),
            (0, 2, False),
        ],
    )
    assert sorted(arcs_of(d)) == [(0, 2), (1, 0), (2, 1)]


def test_switch_empty_cycle_is_a_no_op():
    d = nt.from_edge_list([(0, 1)], 3)
    switch_cycle(d, [])
    assert arcs_of(d) == [(0, 1)]


def test_switch_rejects_malformed_cycles():
    d = nt.from_edge_list([(0, 1), (2, 3)], 4)
    good = [(0, 1, True), (2, 1, False), (2, 3, True), (0, 3, False)]

    with pytest.raises(ValueError, match="even number"):
        switch_cycle(d, good[:3])
    with pytest.raises(ValueError, match="presence flag"):
        switch_cycle(d, [(0, 1, False), (2, 1, True), (2, 3, False), (0, 3, True)])
    with pytest.raises(ValueError, match="alternate"):
        switch_cycle(d, [(0, 1, True), (2, 3, True), (2, 1, False), (0, 3, False)])
    with pytest.raises(ValueError, match="share its target"):
        switch_cycle(d, [(0, 1, True), (0, 3, False), (2, 3, True), (2, 1, False)])
    with pytest.raises(ValueError, match="share its source"):
        switch_cycle(d, [(0, 1, True), (2, 1, False), (3, 2, True), (0, 3, False)])
    with pytest.raises(ValueError, match="self-loop"):
        switch_cycle(d, [(0, 1, True), (1, 1, False), (2, 3, True), (0, 3, False)])
    assert sorted(arcs_of(d)) == [(0, 1), (2, 3)]  # failed switches leave d intact


def test_switch_self_loop_check_runs_before_mutation():
    d = nt.from_edge_list([(0, 1), (2, 3)], 4)
    with pytest.raises(ValueError):
        switch_cycle(d, [(0, 1, True), (2, 1, False), (2, 3, True), (3, 3, False)])
    assert sorted(arcs_of(d)) == [(0, 1), (2, 3)]


# -- kernel symmetry ------------------------------------------------------------


def test_reversed_walk_reverses_cycle_and_keeps_tail():
    nodes = (9, 4, 7, 2, 7)  # cycle spans positions 2..4
    assert reversed_walk(nodes, (2, 4)) == [9, 4, 7, 2, 7]
    nodes = (5, 1, 3, 6, 8, 3)
    assert reversed_walk(nodes, (2, 5)) == [5, 1, 3, 8, 6, 3]
    # applying the reversal twice restores the original sequence
    assert reversed_walk(tuple(reversed_walk(nodes, (2, 5))), (2, 5)) == list(nodes)


def test_reversed_walk_on_switched_graph_has_equal_probability():
    checked = 0
    for d, _, s in random_walk_cases(200, n_nodes=8, seed=101):
        if s.cycle is None:
            continue
        checked += 1
        switched = d.copy()
        switch_cycle(switched, cycle_arcs(s))
        reverse = reversed_walk(s.nodes, s.cycle)
        assert replay_walk_log_prob(switched, reverse) == pytest.approx(
            s.log_prob, abs=1e-12
        )
    assert checked > 50


# -- chain steps ----------------------------------------------------------------


def test_chain_preserves_degrees_groups_and_simple_structure():
    rng = random.Random(13)
    for entry in CHAIN_FIXTURES:
        d, g, _ = build_fixture(entry)
        deg = (d.out_degrees(), d.in_degrees())
        m = cross_link_matrix(d, g)
        cfg = ChainConfig(tau=1, q=0.25)
        for _ in range(1500):
            markov_step(d, g, cfg, rng)
        assert (d.out_degrees(), d.in_degrees()) == deg
        assert cross_link_matrix(d, g) == m
        assert not any(d.has_arc(i, i) for i in range(d.n))


def test_chain_invariants_hold_after_every_single_step():
    d, g, _ = build_fixture(CHAIN_FIXTURES[4])
    deg = (d.out_degrees(), d.in_degrees())
    m = cross_link_matrix(d, g)
    rng = random.Random(17)
    cfg = ChainConfig(tau=1, q=0.0)
    for _ in range(600):
        markov_step(d, g, cfg, rng)
        assert (d.out_degrees(), d.in_degrees()) == deg
        assert cross_link_matrix(d, g) == m


def test_single_group_attempts_always_succeed_with_one_walk():
    rng = random.Random(19)
    for index in (0, 1, 3):  # the single-group fixtures
        d, g, _ = build_fixture(CHAIN_FIXTURES[index])
        cfg = ChainConfig(tau=1, q=0.0)
        for _ in range(2000):
            info = markov_step(d, g, cfg, rng)
            assert info.kind == "accepted"
            assert info.n_walks == 1


def test_cycle_free_attempts_accept_as_no_ops():
    # A mutual dyad plus an out-degree-zero node: every walk dead-ends, so
    # every attempt is a single cycle-free walk accepted without any flip.
    d = nt.from_edge_list([(0, 1), (1, 0)], 3)
    g = nt.GroupAssignment.single_group(3)
    rng = random.Random(23)
    cfg = ChainConfig(tau=1, q=0.0)
    before = d.key()
    for _ in range(50):
        info = markov_step(d, g, cfg, rng)
        assert info == StepInfo("accepted", 1, 0)
        assert d.key() == before


def test_multi_group_chains_abandon_some_attempts():
    d, g, _ = build_fixture(CHAIN_FIXTURES[5])
    rng = random.Random(29)
    cfg = ChainConfig(tau=1, q=0.0)
    stats = ChainStats()
    for _ in range(3000):
        tally(stats, markov_step(d, g, cfg, rng))
    assert stats.abandoned > 0
    assert stats.accepted > 0
    assert stats.lazy == 0


def test_laziness_probability_is_respected():
    d, g, _ = build_fixture(CHAIN_FIXTURES[1])
    rng = random.Random(31)
    cfg = ChainConfig(tau=1, q=0.8)
    stats = ChainStats()
    n = 5000
    for _ in range(n):
        tally(stats, markov_step(d, g, cfg, rng))
    band = 4 * math.sqrt(0.8 * 0.2 / n)
    assert abs(stats.lazy / n - 0.8) < band


def test_zero_laziness_never_idles():
    d, g, _ = build_fixture(CHAIN_FIXTURES[0])
    rng = random.Random(37)
    cfg = ChainConfig(tau=1, q=0.0)
    for _ in range(500):
        assert markov_step(d, g, cfg, rng).kind != "lazy"


def test_chain_stats_accounting():
    stats = ChainStats()
    assert math.isnan(stats.acceptance_rate)
    assert math.isnan(stats.per_arc_modifications(0))
    for info in (
        StepInfo("lazy", 0, 0),
        StepInfo("accepted", 1, 4),
        StepInfo("accepted", 2, 6),
        StepInfo("abandoned", 3, 0),
    ):
        tally(stats, info)
    assert stats.steps == 4
    assert (stats.lazy, stats.accepted, stats.abandoned) == (1, 2, 1)
    assert stats.flips == 10
    assert stats.acceptance_rate == pytest.approx(0.5)
    assert stats.per_arc_modifications(5) == pytest.approx(2.0)


def test_chain_config_validation():
    with pytest.raises(ValueError, match="tau"):
        ChainConfig(tau=-1)
    with pytest.raises(ValueError, match="trade probability"):
        ChainConfig(tau=1, q=1.0)
    with pytest.raises(ValueError, match="trade probability"):
        ChainConfig(tau=1, q=-0.01)
    assert ChainConfig(tau=0, q=0.0).tau == 0
    for bad, msg in (
        (dict(tau=2.5), "tau must be an integer or None"),
        (dict(tau=True), "tau must be an integer or None"),
        (dict(tau=3, q="0.5"), "q must be a real number"),
        (dict(q=True), "q must be a real number"),
        (dict(mixing_r="10"), "mixing_r must be a real number"),
        (dict(mixing_r=False), "mixing_r must be a real number"),
        (dict(mixing_r=-1.0), "mixing_r must be non-negative"),
        (dict(mixing_r=math.inf), "mixing_r must be finite"),
        (dict(mixing_r=math.nan), "mixing_r must be finite"),
        (dict(q=math.nan), "trade probability"),
    ):
        with pytest.raises(ValueError, match=msg):
            ChainConfig(**bad)


def test_default_chain_config_is_pilot_tuned_and_markov_draw_refuses_it():
    d, g, _ = build_fixture(CHAIN_FIXTURES[0])
    assert ChainConfig() == ChainConfig(None, 0.8, 10.0)
    with pytest.raises(ValueError, match="tau is None"):
        markov_draw(d, g, ChainConfig(), random.Random(1))


def test_markov_draw_copies_and_preserves_invariants():
    d, g, _ = build_fixture(CHAIN_FIXTURES[2])
    original = d.key()
    deg = (d.out_degrees(), d.in_degrees())
    m = cross_link_matrix(d, g)
    rng = random.Random(41)
    stats = ChainStats()
    cfg = ChainConfig(tau=25, q=0.5)
    for _ in range(100):
        out = markov_draw(d, g, cfg, rng, stats)
        assert out is not d
        assert (out.out_degrees(), out.in_degrees()) == deg
        assert cross_link_matrix(out, g) == m
    assert d.key() == original
    assert stats.steps == 2500
    assert stats.lazy + stats.accepted + stats.abandoned == stats.steps


def test_markov_draw_with_zero_steps_returns_identical_copy():
    d, g, _ = build_fixture(CHAIN_FIXTURES[0])
    out = markov_draw(d, g, ChainConfig(tau=0), random.Random(1))
    assert out.key() == d.key()
    assert out is not d


# -- equivalence with the reference chain ---------------------------------------
#
# ``reference_walk`` and ``reference_step`` in _fixtures make each choice with
# ``randrange`` and a bit-clearing loop.  The runtime walk must make the same
# choices from the same random numbers, so that every seeded stream, draw and
# tally stays as it was.


def mixed_digraph(n, rng):
    """A digraph whose rows are empty, full, a single arc, sparse or dense."""
    rows = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        kind = rng.randrange(5)
        if kind == 0:
            chosen = []
        elif kind == 1:
            chosen = others
        elif kind == 2:
            chosen = [rng.choice(others)]
        else:
            p = 0.15 if kind == 3 else 0.85
            chosen = [j for j in others if rng.random() < p]
        rows.append(sum(1 << j for j in chosen))
    return nt.AdjacencyMatrix(n, rows)


def random_marks(n, rng):
    """Row and column masks of links marked at random, as by earlier walks."""
    share = rng.choice([0.0, 0.1, 0.5])
    mrows, mcols = [0] * n, [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < share:
                mrows[i] |= 1 << j
                mcols[j] |= 1 << i
    return mrows, mcols


def test_select_bit_matches_brute_force():
    for byte in range(256):
        ones = [i for i in range(8) if byte >> i & 1]
        for t, want in enumerate(ones):
            assert _select_bit(byte, t, 1) == want
    rng = random.Random(7)
    for _ in range(3000):
        width = rng.randint(1, 200)
        mask = rng.getrandbits(width) | 1 << (width - 1)
        ones = [i for i in range(width) if mask >> i & 1]
        nbytes = (width + 7) // 8 + rng.randrange(2)  # with or without a zero pad byte
        for t in {0, len(ones) - 1, rng.randrange(len(ones))}:
            assert _select_bit(mask, t, nbytes) == ones[t]
    with pytest.raises(ValueError):
        _select_bit(0b1011, 3, 1)


def test_walk_matches_reference_walk():
    rng = random.Random(2718)
    seen_counts, seen_ends, odd_cycle_starts = set(), set(), 0
    for n in (2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 130):
        for _ in range(60 if n < 60 else 20):
            d = mixed_digraph(n, rng)
            mrows, mcols = random_marks(n, rng)
            seed = rng.getrandbits(64)
            fast, slow = random.Random(seed), random.Random(seed)
            fast_marks = (list(mrows), list(mcols))
            slow_marks = (list(mrows), list(mcols))
            for _ in range(4):  # successive walks under shared marks, as in one attempt
                slow_counts = []
                got = _walk(d.rows, d.cols, n, *fast_marks, fast)
                want = reference_walk(d.rows, d.cols, n, *slow_marks, slow, slow_counts)
                assert got == want
                assert fast_marks == slow_marks
                assert fast.getstate() == slow.getstate()
                bounds = want[1]
                seen_counts.update(slow_counts)
                seen_ends.add(bounds is None)
                odd_cycle_starts += bounds is not None and bounds[0] % 2 == 1
    # The cases reach single-candidate choices, choices among every other node
    # of a 130-node graph, dead ends, and cycles that close on a passive node.
    assert {1, 129} <= seen_counts
    assert seen_ends == {True, False}
    assert odd_cycle_starts > 0


@pytest.mark.parametrize("K", [1, 2, 3])
def test_markov_draw_matches_reference_steps(K):
    rng = random.Random(300 + K)
    cfg = ChainConfig(tau=150, q=0.5)
    abandoned = flips = multi_walk_switches = 0
    for n in (4, 5, 9, 24, 65, 130):
        d = random_digraph(n, rng.choice([0.2, 0.5]), rng)
        g = random_groups(n, K, rng)
        seed = rng.getrandbits(64)
        fast, slow = random.Random(seed), random.Random(seed)
        stats = ChainStats()
        got = markov_draw(d, g, cfg, fast, stats)
        want = d.copy()
        want_stats = ChainStats()
        for _ in range(cfg.tau):
            tally(want_stats, reference_step(want, g, cfg, slow))
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert stats == want_stats
        assert fast.getstate() == slow.getstate()
        stepped, step_rng = d.copy(), random.Random(seed)
        for _ in range(cfg.tau):
            info = markov_step(stepped, g, cfg, step_rng)
            multi_walk_switches += info.kind == "accepted" and info.n_walks >= 2 and info.flips > 0
        assert (stepped.rows, stepped.cols) == (got.rows, got.cols)
        abandoned += stats.abandoned
        flips += stats.flips
    # The draws switch cycles, and with several groups they also abandon and
    # accept attempts of several walks, whose recorded arcs one pass flips.
    assert flips > 0
    assert (abandoned > 0) == (K > 1)
    assert (multi_walk_switches > 0) == (K > 1)


# -- same-group trades --------------------------------------------------------------


def groups_with_singletons(n, K, rng):
    """K groups on n nodes; for K > 1, half the time the last is a singleton."""
    if K == 1 or rng.random() < 0.5:
        return random_groups(n, K, rng)
    rest = random_groups(n - 1, K - 1, rng).codes
    at = rng.randrange(n)
    return nt.GroupAssignment(rest[:at] + (K - 1,) + rest[at:], K)


@pytest.mark.parametrize("entry", CHAIN_FIXTURES, ids=lambda e: e[0])
def test_trade_kernel_is_a_symmetric_stochastic_matrix_with_spectrum_in_0_1(entry):
    d, g, size = build_fixture(entry)
    members = enumerate_reference_set(d, g)
    P = global_trade_matrix(members, g)
    assert P.shape == (size, size)
    assert np.allclose(P, P.T, rtol=0.0, atol=1e-12)
    assert np.allclose(P.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    eigenvalues = np.linalg.eigvalsh(P)
    assert eigenvalues.min() > -1e-12 and eigenvalues.max() < 1.0 + 1e-12
    assert (np.diag(P) < 1.0).any()  # some member is left by a trade


def exact_trade_flips(members, g):
    """Expected arcs one global trade moves from each member, from the exact
    trade kernel: a trade moves each arc it changes from one node to another,
    so the arcs moved are half the symmetric difference of the networks."""
    P = global_trade_matrix(members, g)
    return [
        0.5 * sum(
            P[x, y] * sum((a ^ b).bit_count() for a, b in zip(dx.rows, dy.rows))
            for y, dy in enumerate(members)
        )
        for x, dx in enumerate(members)
    ]


@pytest.mark.parametrize("entry", CHAIN_FIXTURES, ids=lambda e: e[0])
def test_expected_trade_flips_match_the_exact_trade_kernel(entry):
    # The fixtures cover one and two groups and even and odd group sizes.
    d, g, _ = build_fixture(entry)
    members = enumerate_reference_set(d, g)
    want = exact_trade_flips(members, g)
    assert max(want) > 0
    for x, expected in zip(members, want):
        assert _expected_trade_flips(x, g) == pytest.approx(expected, rel=0.0, abs=1e-12)


def test_no_trade_reverses_the_directed_three_cycle():
    # The reason ChainConfig refuses q = 1: trades alone cannot leave this
    # network, whose reference set also holds the reverse cycle.
    d = nt.from_edge_list([(0, 1), (1, 2), (2, 0)], 3)
    g = nt.GroupAssignment.single_group(3)
    rng = random.Random(59)
    for _ in range(200):
        assert _trade(d, g.members, rng) == 0
    assert d.key() == nt.from_edge_list([(0, 1), (1, 2), (2, 0)], 3).key()


@pytest.mark.parametrize("index", [1, 5], ids=["single_group", "two_groups"])
def test_trade_frequencies_match_the_exact_trade_kernel(index):
    d, g, _ = build_fixture(CHAIN_FIXTURES[index])
    members = enumerate_reference_set(d, g)
    position = {x.key(): t for t, x in enumerate(members)}
    P = global_trade_matrix(members, g)
    rng = random.Random(61)
    n_trades = 3000
    chi2 = df = 0.0
    for x, start in enumerate(members):
        counts = np.zeros(len(members))
        for _ in range(n_trades):
            y = start.copy()
            _trade(y, g.members, rng)
            counts[position[y.key()]] += 1
        reachable = P[x] > 0
        assert counts[~reachable].sum() == 0
        expected = n_trades * P[x, reachable]
        chi2 += ((counts[reachable] - expected) ** 2 / expected).sum()
        df += reachable.sum() - 1
    assert df > 0
    assert sps.chi2.sf(chi2, df) > 0.001


def test_trades_preserve_degrees_cross_links_and_the_zero_diagonal():
    rng = random.Random(67)
    moving = still = 0
    for n in (4, 5, 9, 24, 63, 64, 65, 130):
        for K in (1, 2, 3):
            for _ in range(4 if n < 60 else 2):
                d = mixed_digraph(n, rng)
                g = groups_with_singletons(n, K, rng)
                deg = (d.out_degrees(), d.in_degrees())
                m = cross_link_matrix(d, g)
                for _ in range(150):
                    before = d.rows.copy()
                    moved = _trade(d, g.members, rng)
                    # Each moved arc clears one entry and sets another.
                    changed = sum((x ^ y).bit_count() for x, y in zip(before, d.rows))
                    assert changed == 2 * moved
                    moving += moved > 0
                    still += moved == 0
                    assert (d.out_degrees(), d.in_degrees()) == deg
                    assert cross_link_matrix(d, g) == m
                    assert not any(d.rows[i] >> i & 1 for i in range(n))
                    assert nt.AdjacencyMatrix(n, d.rows).cols == d.cols
    assert moving > 0 and still > 0


def test_trades_with_only_singleton_groups_change_nothing():
    rng = random.Random(71)
    n = 6
    d = mixed_digraph(n, rng)
    g = nt.GroupAssignment(tuple(range(n)), n)
    before = d.key()
    for _ in range(200):
        assert _trade(d, g.members, rng) == 0
    assert d.key() == before


def test_trade_matches_reference_trade():
    rng = random.Random(73)
    moved = 0
    for n in (2, 3, 4, 5, 9, 24, 63, 64, 65, 130):
        for K in (1, 2, 3):
            if K > n:
                continue
            for _ in range(6 if n < 60 else 2):
                d = mixed_digraph(n, rng)
                g = groups_with_singletons(n, K, rng)
                seed = rng.getrandbits(64)
                fast, slow = random.Random(seed), random.Random(seed)
                got, want = d.copy(), d.copy()
                for _ in range(60):
                    expected = reference_trade(want, g, slow)
                    assert _trade(got, g.members, fast) == expected
                    assert (got.rows, got.cols) == (want.rows, want.cols)
                    assert fast.getstate() == slow.getstate()
                    moved += expected
    assert moved > 0


# -- reachability and uniformity ------------------------------------------------


@pytest.mark.parametrize("entry", CHAIN_FIXTURES, ids=lambda e: e[0])
def test_chain_reaches_every_member_of_the_reference_set(entry):
    d, g, expected_size = build_fixture(entry)
    members = enumerate_reference_set(d, g)
    assert len(members) == expected_size
    targets = {x.key() for x in members}
    rng = random.Random(43)
    cfg = ChainConfig(tau=1, q=0.0)
    seen = {d.key()}
    for _ in range(100_000):
        if len(seen) == len(targets):
            break
        markov_step(d, g, cfg, rng)
        seen.add(d.key())
    assert seen == targets


@pytest.mark.parametrize("index", [1, 2], ids=["single_group", "two_groups"])
def test_draws_are_uniform_on_small_reference_sets(index):
    d, g, _ = build_fixture(CHAIN_FIXTURES[index])
    members = enumerate_reference_set(d, g)
    position = {x.key(): i for i, x in enumerate(members)}
    rng = random.Random(2026)
    cfg = ChainConfig(tau=40, q=0.5)
    n_draws = 6000
    counts = np.zeros(len(members))
    for _ in range(n_draws):
        counts[position[markov_draw(d, g, cfg, rng).key()]] += 1
    expected = n_draws / len(members)
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert sps.chi2.sf(chi2, len(members) - 1) > 0.001


# -- mixing-time heuristic --------------------------------------------------------


def test_zero_replication_target_skips_the_pilot():
    d, g, _ = build_fixture(CHAIN_FIXTURES[0])
    assert mixing_time_heuristic(d, g, r=0.0) == 1


def test_pilot_requires_an_explicit_rng():
    d, g, _ = build_fixture(CHAIN_FIXTURES[0])
    with pytest.raises(ValueError, match="rng"):
        mixing_time_heuristic(d, g, r=5.0)
    with pytest.raises(ValueError, match="non-negative"):
        mixing_time_heuristic(d, g, r=-1.0, rng=random.Random(1))
    for r in (math.inf, math.nan):
        with pytest.raises(ValueError, match="mixing_r must be finite"):
            mixing_time_heuristic(d, g, r=r, rng=random.Random(1))
    with pytest.raises(ValueError, match="not finite"):
        mixing_time_heuristic(d, g, r=1e308, rng=random.Random(1))
    for q in (math.nan, 1.0, -0.5):  # refused before the pilot length is computed
        with pytest.raises(ValueError, match="trade probability q"):
            mixing_time_heuristic(d, g, r=5.0, q=q, rng=random.Random(1))


def exact_trade_flips_of(d, g):
    members = enumerate_reference_set(d, g)
    keys = [x.key() for x in members]
    return exact_trade_flips(members, g)[keys.index(d.key())]


def test_heuristic_solves_the_flip_rate_equation():
    # Per step the chain moves q * T arcs by trades, T exact, and (1 - q) * F / s
    # by cycle switches, F the flips of an s-step cycle-only pilot; tau steps
    # modify r * L arcs.  At q = 0.25 the pilot is round(150 * 0.75 / 0.25) = 450
    # cycle attempts.
    d, g, _ = build_fixture(CHAIN_FIXTURES[5])
    before = d.key()
    tau = mixing_time_heuristic(d, g, r=7.0, q=0.25, rng=random.Random(11))
    assert d.key() == before  # pilot runs on a copy
    stats = ChainStats()
    markov_draw(d, g, ChainConfig(tau=450, q=0.0), random.Random(11), stats)
    trade_flips = exact_trade_flips_of(d, g)
    assert stats.flips > 0 and trade_flips > 0
    rate = 0.25 * trade_flips + 0.75 * stats.flips / 450
    assert tau == math.ceil(7.0 * d.arc_count() / rate)


@pytest.mark.parametrize(
    "q, steps",
    [
        (0.0, 1000), (0.15, 1000), (0.2, 600), (0.3, 350), (0.5, 150), (0.7, 64), (0.8, 37),
        (0.9995, 1),
    ],
)
def test_pilot_runs_only_cycle_attempts(q, steps):
    # The pilot is 1000 cycle attempts for q <= 0.15 and otherwise
    # max(1, round(150 * (1 - q) / q)), about the attempts of a pilot of 150
    # trade steps.  With the same seed it gives the tau of the flip equation
    # and leaves the generator where a cycle-only draw of that length does.
    d, g, _ = build_fixture(CHAIN_FIXTURES[5])
    given, default = random.Random(13), random.Random(13)
    stats = ChainStats()
    markov_draw(d, g, ChainConfig(steps, 0.0), given, stats)
    trades = q * steps * exact_trade_flips_of(d, g)
    want = max(1, math.ceil(7.0 * d.arc_count() * steps / (trades + (1 - q) * stats.flips)))
    tau = mixing_time_heuristic(d, g, r=7.0, q=q, rng=default)
    assert tau == want
    assert default.getstate() == given.getstate()
    if q == 0:  # the pilot of a cycle-only chain is unchanged
        assert tau == 15


def test_cycle_pilot_tunes_the_directed_three_cycle():
    # No trade moves an arc of the directed 3-cycle, but a cycle switch
    # reverses it, so the chain is not frozen.  The pilot's cycle attempts
    # alone can move it, and at the default q they are few; each seed's
    # pilot must still switch it.
    d = nt.from_edge_list([(0, 1), (1, 2), (2, 0)], 3)
    g = nt.GroupAssignment.single_group(3)
    assert _expected_trade_flips(d, g) == 0.0
    for q in (0.5, ChainConfig.q):
        for seed in range(200):
            tau = mixing_time_heuristic(d, g, r=10.0, q=q, rng=random.Random(seed))
            assert 1 <= tau < math.inf


def test_frozen_reference_sets_raise():
    # A complete digraph admits no absent arc, an empty one no present arc,
    # and a single asymmetric dyad no switchable cycle.
    n = 4
    complete = nt.from_edge_list(
        [(i, j) for i in range(n) for j in range(n) if i != j], n
    )
    g = nt.GroupAssignment.single_group(n)
    with pytest.raises(FrozenChainError, match="frozen"):
        mixing_time_heuristic(complete, g, r=10.0, rng=random.Random(3))
    with pytest.raises(FrozenChainError):
        mixing_time_heuristic(
            nt.AdjacencyMatrix(3),
            nt.GroupAssignment.single_group(3),
            r=10.0,
            rng=random.Random(3),
        )
    with pytest.raises(FrozenChainError):
        mixing_time_heuristic(
            nt.from_edge_list([(0, 1)], 2),
            nt.GroupAssignment.single_group(2),
            r=10.0,
            rng=random.Random(3),
        )


# -- exhaustive enumeration -------------------------------------------------------


def test_enumeration_matches_exhaustive_scan():
    rng = random.Random(47)
    for _ in range(6):
        n = 4
        d = random_digraph(n, rng.uniform(0.25, 0.6), rng)
        g = random_groups(n, rng.choice([1, 2]), rng)
        members = enumerate_reference_set(d, g)
        assert sorted(x.key() for x in members) == brute_force_reference_set(d, g)


def test_frozen_reference_set_sizes():
    for entry in CHAIN_FIXTURES:
        d, g, expected_size = build_fixture(entry)
        members = enumerate_reference_set(d, g)
        assert len(members) == expected_size
        assert len({x.key() for x in members}) == expected_size


def test_all_out_in_degree_one_counts_are_derangement_numbers():
    # With every out- and in-degree 1 and no self-loops the members are the
    # permutation digraphs of derangements: 9 of them at n=4, 44 at n=5.
    for n, expected in ((4, 9), (5, 44)):
        d = nt.from_edge_list([(i, (i + 1) % n) for i in range(n)], n)
        g = nt.GroupAssignment.single_group(n)
        members = enumerate_reference_set(d, g)
        assert len(members) == expected


def test_enumerated_members_satisfy_all_constraints():
    d, g, _ = build_fixture(CHAIN_FIXTURES[2])
    s = (d.out_degrees(), d.in_degrees())
    m = cross_link_matrix(d, g)
    for member in enumerate_reference_set(d, g):
        assert (member.out_degrees(), member.in_degrees()) == s
        assert cross_link_matrix(member, g) == m
        assert not any(member.has_arc(i, i) for i in range(member.n))


def test_empty_and_complete_graphs_enumerate_to_singletons():
    empty = nt.AdjacencyMatrix(4)
    complete = nt.from_edge_list(
        [(i, j) for i in range(4) for j in range(4) if i != j], 4
    )
    g = nt.GroupAssignment.single_group(4)
    for d in (empty, complete):
        members = enumerate_reference_set(d, g)
        assert [x.key() for x in members] == [d.key()]


def test_enumeration_order_is_deterministic():
    d, g, _ = build_fixture(CHAIN_FIXTURES[4])
    first = [x.key() for x in enumerate_reference_set(d, g)]
    second = [x.key() for x in enumerate_reference_set(d, g)]
    assert first == second


def test_enumeration_validates_shapes_and_size():
    g = nt.GroupAssignment.single_group(7)
    d = nt.AdjacencyMatrix(7)
    with pytest.raises(ValueError, match="42"):
        enumerate_reference_set(d, g)
    g6 = nt.GroupAssignment.single_group(6)
    d6 = nt.AdjacencyMatrix(6)
    assert len(enumerate_reference_set(d6, g6)) == 1
    with pytest.raises(ValueError, match="group assignment"):
        enumerate_reference_set(d6, nt.GroupAssignment.single_group(5))
