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
from netformtest.graphs import cross_link_matrix, degree_sequence
from netformtest.sampler import (
    ChainConfig,
    ChainStats,
    FrozenChainError,
    StepInfo,
    enumerate_reference_set,
    markov_draw,
    markov_step,
    mixing_time_heuristic,
    switch_cycle,
)
from netformtest.sampler import _select_bit, _walk

from _fixtures import (
    CHAIN_FIXTURES,
    LinkMarks,
    brute_force_reference_set,
    build_fixture,
    cycle_arcs,
    detect_schlaufe,
    random_digraph,
    random_groups,
    reference_step,
    reference_walk,
    replay_walk_log_prob,
    reversed_walk,
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
        deg = degree_sequence(d)
        m = cross_link_matrix(d, g).as_array()
        switch_cycle(d, cycle_arcs(s))
        assert degree_sequence(d) == deg
        assert np.array_equal(cross_link_matrix(d, g).as_array(), m + s.violation)


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
    assert sorted(d.arcs()) == [(0, 3), (2, 1)]
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
    assert sorted(d.arcs()) == [(0, 2), (1, 0), (2, 1)]


def test_switch_empty_cycle_is_a_no_op():
    d = nt.from_edge_list([(0, 1)], 3)
    switch_cycle(d, [])
    assert d.arcs() == [(0, 1)]


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
    assert sorted(d.arcs()) == [(0, 1), (2, 3)]  # failed switches leave d intact


def test_switch_self_loop_check_runs_before_mutation():
    d = nt.from_edge_list([(0, 1), (2, 3)], 4)
    with pytest.raises(ValueError):
        switch_cycle(d, [(0, 1, True), (2, 1, False), (2, 3, True), (3, 3, False)])
    assert sorted(d.arcs()) == [(0, 1), (2, 3)]


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
        deg = degree_sequence(d)
        m = cross_link_matrix(d, g)
        cfg = ChainConfig(tau=1, q=0.25)
        for _ in range(1500):
            markov_step(d, g, cfg, rng)
        assert degree_sequence(d) == deg
        assert cross_link_matrix(d, g) == m
        assert not any(d.has_arc(i, i) for i in range(d.n))


def test_chain_invariants_hold_after_every_single_step():
    d, g, _ = build_fixture(CHAIN_FIXTURES[4])
    deg = degree_sequence(d)
    m = cross_link_matrix(d, g)
    rng = random.Random(17)
    cfg = ChainConfig(tau=1, q=0.0)
    for _ in range(600):
        markov_step(d, g, cfg, rng)
        assert degree_sequence(d) == deg
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
        stats.update(markov_step(d, g, cfg, rng))
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
        stats.update(markov_step(d, g, cfg, rng))
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
        stats.update(info)
    assert stats.steps == 4
    assert (stats.lazy, stats.accepted, stats.abandoned) == (1, 2, 1)
    assert stats.flips == 10
    assert stats.acceptance_rate == pytest.approx(0.5)
    assert stats.per_arc_modifications(5) == pytest.approx(2.0)


def test_chain_config_validation():
    with pytest.raises(ValueError, match="tau"):
        ChainConfig(tau=-1)
    with pytest.raises(ValueError, match="laziness"):
        ChainConfig(tau=1, q=1.0)
    with pytest.raises(ValueError, match="laziness"):
        ChainConfig(tau=1, q=-0.01)
    assert ChainConfig(tau=0, q=0.0).tau == 0


def test_markov_draw_copies_and_preserves_invariants():
    d, g, _ = build_fixture(CHAIN_FIXTURES[2])
    original = d.key()
    deg = degree_sequence(d)
    m = cross_link_matrix(d, g)
    rng = random.Random(41)
    stats = ChainStats()
    cfg = ChainConfig(tau=25, q=0.5)
    for _ in range(100):
        out = markov_draw(d, g, cfg, rng, stats)
        assert out is not d
        assert degree_sequence(out) == deg
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
                fast_counts, slow_counts = [], []
                got = _walk(d.rows, d.cols, n, *fast_marks, fast, fast_counts)
                want = reference_walk(d.rows, d.cols, n, *slow_marks, slow, slow_counts)
                assert got == want
                assert fast_counts == slow_counts
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
    abandoned = flips = 0
    for n in (4, 5, 9, 24, 65):
        d = random_digraph(n, rng.choice([0.2, 0.5]), rng)
        g = random_groups(n, K, rng)
        seed = rng.getrandbits(64)
        fast, slow = random.Random(seed), random.Random(seed)
        stats = ChainStats()
        got = markov_draw(d, g, cfg, fast, stats)
        want = d.copy()
        want_stats = ChainStats()
        for _ in range(cfg.tau):
            want_stats.update(reference_step(want, g, cfg, slow))
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert stats == want_stats
        assert fast.getstate() == slow.getstate()
        abandoned += stats.abandoned
        flips += stats.flips
    # The draws switch cycles, and with several groups they also abandon.
    assert flips > 0
    assert (abandoned > 0) == (K > 1)


# -- reachability and uniformity ------------------------------------------------


@pytest.mark.parametrize("entry", CHAIN_FIXTURES, ids=lambda e: e[0])
def test_chain_reaches_every_member_of_the_reference_set(entry):
    d, g, expected_size = build_fixture(entry)
    members = enumerate_reference_set(degree_sequence(d), cross_link_matrix(d, g), g)
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
    members = enumerate_reference_set(degree_sequence(d), cross_link_matrix(d, g), g)
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


def test_heuristic_solves_the_flip_rate_equation():
    d, g, _ = build_fixture(CHAIN_FIXTURES[1])
    before = d.key()
    tau = mixing_time_heuristic(d, g, r=7.0, q=0.25, pilot_steps=400, rng=random.Random(11))
    assert d.key() == before  # pilot runs on a copy
    stats = ChainStats()
    markov_draw(d, g, ChainConfig(tau=400, q=0.25), random.Random(11), stats)
    assert stats.flips > 0
    assert tau == max(1, math.ceil(7.0 * d.arc_count() * 400 / stats.flips))


def test_frozen_reference_sets_raise():
    # A complete digraph admits no absent arc, an empty one no present arc,
    # and a single asymmetric dyad no switchable cycle.
    n = 4
    complete = nt.from_edge_list(
        [(i, j) for i in range(n) for j in range(n) if i != j], n
    )
    g = nt.GroupAssignment.single_group(n)
    with pytest.raises(FrozenChainError, match="frozen"):
        mixing_time_heuristic(complete, g, r=10.0, pilot_steps=200, rng=random.Random(3))
    with pytest.raises(FrozenChainError):
        mixing_time_heuristic(
            nt.AdjacencyMatrix.zeros(3),
            nt.GroupAssignment.single_group(3),
            r=10.0,
            pilot_steps=200,
            rng=random.Random(3),
        )
    with pytest.raises(FrozenChainError):
        mixing_time_heuristic(
            nt.from_edge_list([(0, 1)], 2),
            nt.GroupAssignment.single_group(2),
            r=10.0,
            pilot_steps=200,
            rng=random.Random(3),
        )


# -- exhaustive enumeration -------------------------------------------------------


def test_enumeration_matches_exhaustive_scan():
    rng = random.Random(47)
    for _ in range(6):
        n = 4
        d = random_digraph(n, rng.uniform(0.25, 0.6), rng)
        g = random_groups(n, rng.choice([1, 2]), rng)
        s = degree_sequence(d)
        m = cross_link_matrix(d, g)
        members = enumerate_reference_set(s, m, g)
        assert sorted(x.key() for x in members) == brute_force_reference_set(n, s, m, g)


def test_frozen_reference_set_sizes():
    for entry in CHAIN_FIXTURES:
        d, g, expected_size = build_fixture(entry)
        members = enumerate_reference_set(
            degree_sequence(d), cross_link_matrix(d, g), g
        )
        assert len(members) == expected_size
        assert len({x.key() for x in members}) == expected_size


def test_all_out_in_degree_one_counts_are_derangement_numbers():
    # With every out- and in-degree 1 and no self-loops the members are the
    # permutation digraphs of derangements: 9 of them at n=4, 44 at n=5.
    for n, expected in ((4, 9), (5, 44)):
        d = nt.from_edge_list([(i, (i + 1) % n) for i in range(n)], n)
        g = nt.GroupAssignment.single_group(n)
        members = enumerate_reference_set(degree_sequence(d), cross_link_matrix(d, g), g)
        assert len(members) == expected


def test_enumerated_members_satisfy_all_constraints():
    d, g, _ = build_fixture(CHAIN_FIXTURES[2])
    s = degree_sequence(d)
    m = cross_link_matrix(d, g)
    for member in enumerate_reference_set(s, m, g):
        assert degree_sequence(member) == s
        assert cross_link_matrix(member, g) == m
        assert not any(member.has_arc(i, i) for i in range(member.n))


def test_empty_and_complete_graphs_enumerate_to_singletons():
    empty = nt.AdjacencyMatrix.zeros(4)
    complete = nt.from_edge_list(
        [(i, j) for i in range(4) for j in range(4) if i != j], 4
    )
    g = nt.GroupAssignment.single_group(4)
    for d in (empty, complete):
        members = enumerate_reference_set(
            degree_sequence(d), cross_link_matrix(d, g), g
        )
        assert [x.key() for x in members] == [d.key()]


def test_enumeration_order_is_deterministic():
    d, g, _ = build_fixture(CHAIN_FIXTURES[4])
    s = degree_sequence(d)
    m = cross_link_matrix(d, g)
    first = [x.key() for x in enumerate_reference_set(s, m, g)]
    second = [x.key() for x in enumerate_reference_set(s, m, g)]
    assert first == second


def test_inconsistent_margins_enumerate_to_nothing():
    g1 = nt.GroupAssignment.single_group(4)
    # cross-link total disagrees with the degree total
    s = nt.DegreeSequence((1, 1, 1, 0), (0, 1, 1, 1))
    assert enumerate_reference_set(s, nt.CrossLinkMatrix(((2,),)), g1) == []
    # a degree exceeding n - 1 is unrealizable without self-loops
    s = nt.DegreeSequence((4, 0, 0, 0), (1, 1, 1, 1))
    assert enumerate_reference_set(s, nt.CrossLinkMatrix(((4,),)), g1) == []
    # consistent totals that no simple digraph can realize
    g0 = nt.GroupAssignment.single_group(3)
    s = nt.DegreeSequence((1, 1, 0), (2, 0, 0))
    assert enumerate_reference_set(s, nt.CrossLinkMatrix(((2,),)), g0) == []


def test_enumeration_validates_shapes_and_size():
    g = nt.GroupAssignment.single_group(7)
    d = nt.AdjacencyMatrix.zeros(7)
    with pytest.raises(ValueError, match="42"):
        enumerate_reference_set(degree_sequence(d), cross_link_matrix(d, g), g)
    g6 = nt.GroupAssignment.single_group(6)
    d6 = nt.AdjacencyMatrix.zeros(6)
    assert len(enumerate_reference_set(degree_sequence(d6), cross_link_matrix(d6, g6), g6)) == 1
    with pytest.raises(ValueError, match="group assignment"):
        enumerate_reference_set(
            degree_sequence(d6), cross_link_matrix(d6, g6), nt.GroupAssignment.single_group(5)
        )
    with pytest.raises(ValueError, match="cross-link"):
        enumerate_reference_set(
            degree_sequence(d6), nt.CrossLinkMatrix(((0, 0), (0, 0))), g6
        )
