"""Shared test fixtures: frozen small graphs, enumeration portfolio, helpers.

CHAIN_FIXTURES holds small graphs whose reference sets were enumerated
exhaustively; the expected sizes are frozen so a regression in either the
enumerator or the chain shows up as a count mismatch.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

import netformtest as nt
from netformtest.sampler import StepInfo, _cycle_arc_triples, _walk, switch_cycle

# (name, n, groups, arcs, expected reference-set size)
CHAIN_FIXTURES = [
    ("n4_cycle", 4, None, [(0, 1), (1, 2), (2, 3), (3, 0)], 9),
    ("n4_size6", 4, None, [(0, 1), (0, 2), (1, 3), (2, 0), (2, 3), (3, 0)], 6),
    ("n4_k2", 4, (0, 1, 0, 1), [(0, 3), (1, 2), (2, 0), (2, 1), (3, 0), (3, 1)], 6),
    ("n5_cycle", 5, None, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 44),
    (
        "n5_k2_a",
        5,
        (0, 1, 0, 1, 0),
        [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 0), (3, 4), (4, 1), (4, 2)],
        36,
    ),
    (
        "n5_k2_b",
        5,
        (0, 1, 0, 1, 0),
        [(0, 3), (0, 4), (1, 4), (2, 0), (2, 1), (3, 0), (3, 2), (4, 2)],
        48,
    ),
]


def build_fixture(entry):
    name, n, groups, arcs, size = entry
    d = nt.from_edge_list(arcs, n)
    if groups is None:
        g = nt.GroupAssignment.single_group(n)
    else:
        g = nt.GroupAssignment(tuple(groups), max(groups) + 1)
    return d, g, size


def logistic(x):
    return 1.0 / (1.0 + math.exp(-x))


def dyad_likelihood_oracle(d, g, delta, gamma):
    """Equilibrium network probability for reciprocity interaction, any gamma.

    Each shock sorts its arc into "always", "middle", or "never".  For
    gamma >= 0 the middle bucket coordinates (link iff the other links), for
    gamma < 0 it anti-coordinates (link iff the other does not); double-middle
    ties hold two equilibria and each is picked with probability 1/2.
    """
    mu = nt.systematic_utility(delta, g)
    prob = 1.0
    for i in range(d.n):
        for j in range(i + 1, d.n):
            lo, hi = sorted((mu[i, j], mu[i, j] + gamma))
            pa, pm, pn = logistic(lo), logistic(hi) - logistic(lo), 1.0 - logistic(hi)
            lo, hi = sorted((mu[j, i], mu[j, i] + gamma))
            qa, qm, qn = logistic(lo), logistic(hi) - logistic(lo), 1.0 - logistic(hi)
            dij, dji = d.has_arc(i, j), d.has_arc(j, i)
            if gamma >= 0:
                if dij and dji:
                    p = pa * qa + pa * qm + pm * qa + 0.5 * pm * qm
                elif dij:
                    p = pa * qn
                elif dji:
                    p = pn * qa
                else:
                    p = pm * qn + pn * qm + pn * qn + 0.5 * pm * qm
            else:
                if dij and dji:
                    p = pa * qa
                elif dij:
                    p = pa * qn + pa * qm + pm * qn + 0.5 * pm * qm
                elif dji:
                    p = qa * pn + qa * pm + qm * pn + 0.5 * qm * pm
                else:
                    p = pn * qn
            prob *= p
    return prob


def simulate_uniform_ne_dyad(mu01, mu10, gamma, n_sims, rng):
    """Dyad-outcome frequencies under explicit uniform-over-equilibria selection.

    Shocks below mu always link, shocks in (mu, mu + gamma] link exactly when
    the partner does, shocks above never link; when both shocks land in the
    middle a fair coin picks between the empty and the mutual equilibrium.
    """
    u1 = rng.logistic(size=n_sims)
    u2 = rng.logistic(size=n_sims)
    coin = rng.random(n_sims) < 0.5
    always1, middle1 = u1 <= mu01, (u1 > mu01) & (u1 <= mu01 + gamma)
    always2, middle2 = u2 <= mu10, (u2 > mu10) & (u2 <= mu10 + gamma)
    both_middle = middle1 & middle2
    d1 = always1 | (middle1 & always2) | (both_middle & coin)
    d2 = always2 | (middle2 & always1) | (both_middle & coin)
    freqs = {}
    for a in (0, 1):
        for b in (0, 1):
            freqs[(a, b)] = float(((d1 == a) & (d2 == b)).mean())
    return freqs


# The study design, restated here rather than imported, so that a drift in
# netformtest.harness shows up as a mismatch against this oracle.
STUDY_EFFECT_LEVELS = (-1.1, 1.1)
STUDY_CROSS_PENALTY = -2.2


def null_in_degree_variance(n):
    """Expected ``np.var`` of the in-degrees of an n-node null study network.

    Every agent draws (sender level a, receiver level b, group) uniformly from
    the eight design cells, and i links to j with probability
    logistic(a_i + b_j + penalty * [groups differ]).  Write q(b), r(a) and
    m(s) for that probability averaged over the other two coordinates, where
    s says whether the two groups match.  Then

        E[var] = (n-1)/n * [(n-1) E q(1-q) + (n-1)^2 Var q
                            - (n-2) Var r - Var m].

    The first two terms are the variance of one in-degree, the last two its
    covariance with another: two receivers share each third sender's level,
    and the two arcs of their own dyad share the group match.  The formula
    ignores the redraw of a population whose group comes out empty; that
    shifts the value by O(2^(1-n)), which shows at n = 4 and is negligible
    from n = 8 on.
    """
    levels, penalties = STUDY_EFFECT_LEVELS, (0.0, STUDY_CROSS_PENALTY)

    def mean(values):
        return sum(values) / len(values)

    def var(values):
        return mean([(v - mean(values)) ** 2 for v in values])

    q = [mean([logistic(a + b + c) for a in levels for c in penalties]) for b in levels]
    r = [mean([logistic(a + b + c) for b in levels for c in penalties]) for a in levels]
    m = [mean([logistic(a + b + c) for a in levels for b in levels]) for c in penalties]
    within = mean([x * (1.0 - x) for x in q])
    return (n - 1) / n * (
        (n - 1) * within + (n - 1) ** 2 * var(q) - (n - 2) * var(r) - var(m)
    )


def random_digraph(n, p, rng):
    d = nt.AdjacencyMatrix.zeros(n)
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                d.add_arc(i, j)
    return d


def dense_oracle(array):
    """``AdjacencyMatrix.from_dense`` built entry by entry with ``set_arc``."""
    n = len(array)
    d = nt.AdjacencyMatrix.zeros(n)
    for i in range(n):
        for j in range(n):
            if array[i][j]:
                d.set_arc(i, j, True)
    return d


def density_draw_oracle(n, n_arcs, rng):
    """The density-reference draw placed arc by arc: the same ``rng.sample``
    of row-major off-diagonal positions, each mapped to its arc."""
    positions = rng.sample(range(n * (n - 1)), n_arcs)
    d = nt.AdjacencyMatrix(n)
    for pos in positions:
        i, rem = divmod(pos, n - 1)
        j = rem if rem < i else rem + 1
        d.add_arc(i, j)
    return d


def dyad_census_oracle(d):
    """The dyad census by a scan over every unordered pair."""
    mutual = asym = 0
    rows = d.rows
    for i in range(d.n):
        for j in range(i + 1, d.n):
            ij = (rows[i] >> j) & 1
            ji = (rows[j] >> i) & 1
            if ij and ji:
                mutual += 1
            elif ij or ji:
                asym += 1
    n_dyads = d.n * (d.n - 1) // 2
    return nt.DyadCensus(mutual, asym, n_dyads - mutual - asym)


def random_delta(n, K, rng, scale=1.0):
    sender = np.array([rng.gauss(0.0, scale) for _ in range(n)])
    receiver = np.array([rng.gauss(0.0, scale) for _ in range(n)])
    mixing = np.array([[rng.gauss(0.0, scale) for _ in range(K)] for _ in range(K)])
    return nt.NuisanceParams(sender, receiver, mixing)


def fittable_network(seed=3, n=12, K=2):
    """A deterministic dense K-group network whose null MLE exists."""
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


def random_groups(n, K, rng):
    while True:
        codes = tuple(rng.randrange(K) for _ in range(n))
        if len(set(codes)) == K:
            return nt.GroupAssignment(codes, K)


def brute_force_reference_set(n, s, m, g):
    """Exhaustive scan over all 2^(n(n-1)) digraphs; the enumeration oracle."""
    import itertools

    from netformtest.graphs import cross_link_matrix, degree_sequence

    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    keys = []
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        d = nt.AdjacencyMatrix.zeros(n)
        for (i, j), b in zip(pairs, bits):
            if b:
                d.add_arc(i, j)
        if degree_sequence(d) == s and cross_link_matrix(d, g).counts == m.counts:
            keys.append(d.key())
    return sorted(keys)


# -- sampler oracles: walks, cycles and their probabilities -------------------
# Test-only views of the chain's walk, used by the probability and symmetry
# checks in test_sampler.py.

#: K x K integer array; entry (k, l) is the net change in arcs from group k to
#: group l that switching a cycle would cause.
ViolationMatrix = np.ndarray


class LinkMarks:
    """Per-attempt record of traversed links, as row/column bitmasks.

    Marks accumulate over all walks of one move attempt (cycles and dead ends
    alike) and are discarded when the attempt is accepted or abandoned.
    """

    __slots__ = ("n", "rows", "cols")

    def __init__(self, n: int):
        self.n = n
        self.rows = [0] * n
        self.cols = [0] * n

    def is_marked(self, i: int, j: int) -> bool:
        return (self.rows[i] >> j) & 1 == 1

    def mark(self, i: int, j: int) -> None:
        self.rows[i] |= 1 << j
        self.cols[j] |= 1 << i

    def count(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def clear(self) -> None:
        self.rows = [0] * self.n
        self.cols = [0] * self.n


@dataclass(eq=False)
class Schlaufe:
    """One alternating walk: its nodes, step roles, cycle, and probability.

    ``nodes[t]`` is the node at position t; ``roles[t]`` alternates
    "active"/"passive" starting active.  ``cycle`` gives (start, end)
    positions of the closed sub-walk when the walk ended by revisiting a node
    in the same role, else None.  ``violation`` is the K x K net arc-count
    change its switch would cause (zeros for cycle-free walks).  ``log_prob``
    is the log of the walk's realization probability given the marks it was
    grown under — diagnostics only, not used by the chain itself.
    """

    nodes: tuple[int, ...]
    roles: tuple[str, ...]
    cycle: Optional[tuple[int, int]]
    violation: ViolationMatrix
    log_prob: float


def detect_schlaufe(
    d: nt.AdjacencyMatrix, g: nt.GroupAssignment, marks: LinkMarks, rng
) -> Schlaufe:
    """Run one alternating walk on ``d``, extending ``marks`` in place.

    The start node is uniform over all nodes; every subsequent choice is
    uniform over its feasible set.  The walk ends either by closing a cycle
    (same node revisited in the same role) or at a dead end.  All traversed
    links are marked, so repeated calls under the same ``marks`` produce
    link-disjoint walks.
    """
    counts: list[int] = []
    nodes, bounds = _walk(d.rows, d.cols, d.n, marks.rows, marks.cols, rng, counts)
    K = g.n_groups
    violation = np.zeros((K, K), dtype=np.int64)
    if bounds is not None:
        codes = g.codes
        for u, v, present in _cycle_arc_triples(nodes, bounds):
            violation[codes[u], codes[v]] += -1 if present else 1
    log_prob = -math.log(d.n) - sum(math.log(c) for c in counts)
    roles = tuple("active" if t % 2 == 0 else "passive" for t in range(len(nodes)))
    return Schlaufe(tuple(nodes), roles, bounds, violation, log_prob)


def cycle_arcs(schlaufe: Schlaufe) -> list[tuple[int, int, bool]]:
    """The schlaufe's cycle as arc triples; empty when it has no cycle."""
    if schlaufe.cycle is None:
        return []
    return _cycle_arc_triples(list(schlaufe.nodes), schlaufe.cycle)


def violation_of_cycle(
    arcs: list[tuple[int, int, bool]], g: nt.GroupAssignment
) -> ViolationMatrix:
    """Net change of cross-group arc counts if the cycle were switched.

    Each currently-absent arc contributes +1 to its (source group, target
    group) cell, each currently-present arc -1.  Cycles always produce a
    matrix whose entries sum to zero (equal numbers of arcs appear and
    vanish).
    """
    K = g.n_groups
    codes = g.codes
    out = np.zeros((K, K), dtype=np.int64)
    for u, v, present in arcs:
        out[codes[u], codes[v]] += -1 if present else 1
    return out


def reversed_walk(nodes, cycle) -> list[int]:
    """Node sequence of the reversal: same tail, cycle traversed backwards.

    For a walk (n_0, ..., n_b) whose cycle spans positions a..b (n_a = n_b),
    the reversal is (n_0, ..., n_a, n_{b-1}, n_{b-2}, ..., n_{a+1}, n_b).  On
    the switched graph it is a feasible walk of the same probability, which
    is what makes the move kernel symmetric.
    """
    a, b = cycle
    return list(nodes[: a + 1]) + [nodes[t] for t in range(b - 1, a, -1)] + [nodes[b]]


def replay_walk_log_prob(d: nt.AdjacencyMatrix, forced) -> float:
    """Log-probability of a forced node sequence as an alternating walk on d.

    Replays the sequence from fresh marks, recomputing each step's feasible
    set; raises ValueError if any forced choice is infeasible.
    """
    rows, cols, n = d.rows, d.cols, d.n
    mrows = [0] * n
    mcols = [0] * n
    full = (1 << n) - 1
    lp = -math.log(n)
    for t in range(len(forced) - 1):
        if t % 2 == 0:
            i, j = forced[t], forced[t + 1]
            cand = rows[i] & ~mrows[i]
            if not (cand >> j) & 1:
                raise ValueError(f"forced active step {i}->{j} is infeasible")
            lp -= math.log(cand.bit_count())
            mrows[i] |= 1 << j
            mcols[j] |= 1 << i
        else:
            j, k = forced[t], forced[t + 1]
            cand = full & ~cols[j] & ~mcols[j] & ~(1 << j)
            if not (cand >> k) & 1:
                raise ValueError(f"forced passive step at {j} cannot pick {k}")
            lp -= math.log(cand.bit_count())
            mrows[k] |= 1 << j
            mcols[j] |= 1 << k
    return lp


# -- reference chain: the oracle for the sampler's optimised walk -------------


def reference_walk(rows, cols, n, mrows, mcols, rng, counts=None):
    """The sampler's walk written with ``randrange`` and a bit-clearing loop.

    The oracle for ``netformtest.sampler._walk``: same arguments, same result
    (nodes, cycle_bounds), same marks and ``counts``.  Each choice among c > 1
    candidates calls ``rng.randrange(c)`` and clears the lowest set bit t
    times, so the runtime walk must consume the same random numbers.
    """
    full = (1 << n) - 1
    randrange = rng.randrange
    start = randrange(n)
    nodes = [start]
    pos_active = {start: 0}
    pos_passive: dict[int, int] = {}
    cur = start
    while True:
        # Active step: follow an unmarked present arc out of cur.
        cand = rows[cur] & ~mrows[cur]
        if not cand:
            return nodes, None
        c = cand.bit_count()
        if c > 1:
            t = randrange(c)
            while t:
                cand &= cand - 1
                t -= 1
        j = (cand & -cand).bit_length() - 1
        mrows[cur] |= 1 << j
        mcols[j] |= 1 << cur
        nodes.append(j)
        if counts is not None:
            counts.append(c)
        p = pos_passive.get(j)
        if p is not None:
            return nodes, (p, len(nodes) - 1)
        pos_passive[j] = len(nodes) - 1
        # Passive step: pick k whose arc k -> j is absent and unmarked.
        cand = full & ~cols[j] & ~mcols[j] & ~(1 << j)
        if not cand:
            return nodes, None
        c = cand.bit_count()
        if c > 1:
            t = randrange(c)
            while t:
                cand &= cand - 1
                t -= 1
        k = (cand & -cand).bit_length() - 1
        mrows[k] |= 1 << j
        mcols[j] |= 1 << k
        nodes.append(k)
        if counts is not None:
            counts.append(c)
        p = pos_active.get(k)
        if p is not None:
            return nodes, (p, len(nodes) - 1)
        pos_active[k] = len(nodes) - 1
        cur = k


def reference_step(d, g, cfg, rng):
    """One chain step built on :func:`reference_walk`; returns a StepInfo.

    Collects each cycle's arcs as (source, target, present) triples as soon as
    the walk closes it, and switches them with the runtime ``switch_cycle``.
    """
    if rng.random() < cfg.q:
        return StepInfo("lazy", 0, 0)
    n, codes, K = d.n, g.codes, g.n_groups
    mrows = [0] * n
    mcols = [0] * n
    total = [0] * (K * K)
    cycles = []
    n_walks = 0
    while True:
        nodes, bounds = reference_walk(d.rows, d.cols, n, mrows, mcols, rng)
        n_walks += 1
        if bounds is not None:
            a, b = bounds
            arcs = [
                (nodes[t], nodes[t + 1], True) if t % 2 == 0
                else (nodes[t + 1], nodes[t], False)
                for t in range(a, b)
            ]
            cycles.append(arcs)
            for u, v, present in arcs:
                total[codes[u] * K + codes[v]] += -1 if present else 1
        if not any(total):
            flips = 0
            for arcs in cycles:
                switch_cycle(d, arcs)
                flips += len(arcs)
            return StepInfo("accepted", n_walks, flips)
        if rng.random() < 0.5:
            continue
        return StepInfo("abandoned", n_walks, 0)
