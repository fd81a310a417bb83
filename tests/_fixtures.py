"""Shared test fixtures: frozen small graphs, enumeration portfolio, helpers.

CHAIN_FIXTURES holds small graphs whose reference sets were enumerated
exhaustively; the expected sizes are frozen so a regression in either the
enumerator or the chain shows up as a count mismatch.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

import netformtest as nt
from netformtest import harness
from netformtest._rng import seed_sequence, substream_generator
from netformtest.model import logistic_cdf, systematic_utility
from netformtest.sampler import ChainStats, StepInfo
from netformtest.testing import (
    INDEX_STATISTICS,
    add_one_p_value,
    reference_draws,
    score_statistic,
)

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


# s_ij(d) of each built-in strategic term for one ordered pair i != j,
# counted from the bitmasks.
PAIR_TERMS = {
    "reciprocity": lambda d, i, j: int(d.has_arc(j, i)),
    "transitivity": lambda d, i, j: (d.rows[i] & d.cols[j]).bit_count(),
    "customer_product": lambda d, i, j: (
        (d.rows[i].bit_count() - int(d.has_arc(i, j))) * d.rows[j].bit_count()
    ),
}


def pair_term(kind, d, i, j):
    """Per-pair oracle for ``strategic_spec(kind).matrix_fn``: s_ij(d)."""
    return PAIR_TERMS[kind](d, i, j)


# The range [s_min, s_max] of each built-in strategic term on n nodes.
TERM_BOUNDS = {
    "reciprocity": lambda n: (0, 1),
    "transitivity": lambda n: (0, max(0, n - 2)),
    "customer_product": lambda n: (0, max(0, (n - 2) * (n - 1))),
}


def theorem2_derivative(d, delta, spec, g):
    """Oracle for ``score_statistic``: the equilibrium likelihood's
    derivative in gamma at zero, by the two-case decomposition.

    Write F = F(mu_ij), f = F(1-F) for the logistic CDF/density and let
    [s_lo, s_hi] bound the interaction term's range, as ``TERM_BOUNDS``
    gives it.  Shock configurations with two or more interior buckets
    contribute at order gamma^2 and drop out.  The all-boundary
    configurations contribute

        sum_{i != j}  d_ij s_lo f/F  -  (1 - d_ij) s_hi f/(1-F)

    and the single-interior-bucket configurations contribute

        sum_{i != j}  d_ij (s_ij - s_lo) f/F  +  (1 - d_ij) (s_hi - s_ij) f/(1-F).

    The range bounds cancel only in the total, which equals the one-line
    form of ``score_statistic``.
    """
    off = ~np.eye(d.n, dtype=bool)
    F = logistic_cdf(systematic_utility(delta, g))
    f = F * (1.0 - F)
    dense = d.to_array().astype(float)
    S = spec.matrix_fn(dense).astype(float)
    s_lo, s_hi = map(float, TERM_BOUNDS[spec.kind](d.n))
    ratio_present = f / F
    ratio_absent = f / (1.0 - F)
    boundary = dense * s_lo * ratio_present - (1.0 - dense) * s_hi * ratio_absent
    one_interior = dense * (S - s_lo) * ratio_present + (1.0 - dense) * (
        s_hi - S
    ) * ratio_absent
    return float(boundary[off].sum() + one_interior[off].sum())


def exact_reciprocity_likelihood(d, g, delta, gamma):
    """Exact network probability under reciprocity interaction, gamma >= 0.

    With s_ij = d_ji the network factorizes over unordered dyads.  Each
    shock u_ij falls into one of three buckets: below mu_ij (i links
    regardless), in (mu_ij, mu_ij + gamma] (i links iff j does), or above
    (never links).  When both shocks of a dyad land in the middle bucket the
    empty and the mutual dyad are both equilibria; the selection rule,
    uniform over equilibria, picks each with probability 1/2.

    gamma < 0 flips the middle bucket into an anti-coordination region and is
    not supported here.
    """
    if gamma < 0:
        raise ValueError(
            "gamma < 0 makes reciprocity anti-coordinating; "
            "this likelihood only covers gamma >= 0"
        )
    mu = systematic_utility(delta, g)
    F0 = logistic_cdf(mu)
    Fg = logistic_cdf(np.where(np.isnan(mu), 0.0, mu + gamma))
    prob = 1.0
    n = d.n
    for i in range(n):
        for j in range(i + 1, n):
            p1, pm, p0 = F0[i, j], Fg[i, j] - F0[i, j], 1.0 - Fg[i, j]
            q1, qm, q0 = F0[j, i], Fg[j, i] - F0[j, i], 1.0 - Fg[j, i]
            dij = d.has_arc(i, j)
            dji = d.has_arc(j, i)
            if dij and dji:
                prob *= p1 * q1 + p1 * qm + pm * q1 + 0.5 * pm * qm
            elif dij:
                prob *= p1 * q0
            elif dji:
                prob *= p0 * q1
            else:
                prob *= pm * q0 + p0 * qm + p0 * q0 + 0.5 * pm * qm
    return float(prob)


class FixedShocks:
    """Stands in for the ``rng`` of ``simulate_null`` and
    ``simulate_alternative``: its ``logistic`` returns the given n x n
    matrix, so a test fixes the shocks a simulation thresholds."""

    def __init__(self, shocks):
        self.shocks = np.asarray(shocks, dtype=float)

    def logistic(self, size):
        assert tuple(size) == self.shocks.shape
        return self.shocks


def is_equilibrium(d, delta, gamma, spec, g, shocks):
    """Check the per-arc best-response identity d_ij = 1{mu_ij + gamma s_ij >= u_ij}."""
    mu = systematic_utility(delta, g)
    dense = d.to_array()
    s = spec.matrix_fn(dense)
    best = (mu + gamma * s >= shocks).astype(np.uint8)
    off = ~np.eye(d.n, dtype=bool)
    return bool((best[off] == dense[off]).all())


def dyad_likelihood_oracle(d, g, delta, gamma):
    """Equilibrium network probability for reciprocity interaction, any gamma.

    Each shock sorts its arc into "always", "middle", or "never".  For
    gamma >= 0 the middle bucket coordinates (link iff the other links), for
    gamma < 0 it anti-coordinates (link iff the other does not); double-middle
    ties hold two equilibria and each is picked with probability 1/2.
    """
    mu = systematic_utility(delta, g)
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


def arcs_of(d):
    """Every arc of ``d`` as (source, target), in row-major order."""
    return [(i, j) for i in range(d.n) for j in range(d.n) if d.has_arc(i, j)]


def random_digraph(n, p, rng):
    d = nt.AdjacencyMatrix(n)
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                d.set_arc(i, j, True)
    return d


def dense_oracle(array):
    """``AdjacencyMatrix.from_dense`` built entry by entry with ``set_arc``."""
    n = len(array)
    d = nt.AdjacencyMatrix(n)
    for i in range(n):
        for j in range(n):
            if array[i][j]:
                d.set_arc(i, j, True)
    return d


def density_draw_oracle(n, n_arcs, gen):
    """The density-reference draw placed arc by arc: the same ``gen.choice``
    of row-major off-diagonal positions, each mapped to its arc."""
    positions = gen.choice(n * (n - 1), n_arcs, replace=False, shuffle=False)
    d = nt.AdjacencyMatrix(n)
    for pos in positions.tolist():
        i, rem = divmod(pos, n - 1)
        j = rem if rem < i else rem + 1
        d.set_arc(i, j, True)
    return d


@dataclass(frozen=True)
class DyadCensus:
    """Unordered-dyad counts: mutual, asymmetric, and null (no arc) dyads."""

    mutual: int
    asymmetric: int
    null: int

    def total(self) -> int:
        return self.mutual + self.asymmetric + self.null


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
    return DyadCensus(mutual, asym, n_dyads - mutual - asym)


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


def brute_force_reference_set(d, g):
    """Exhaustive scan over all 2^(n(n-1)) digraphs; the enumeration oracle.

    Keeps those whose row sums, column sums and group blocks Z^T A Z (Z the
    n x K group indicator) equal those of ``d``, all on dense arrays.
    """
    n = d.n
    z = np.eye(g.n_groups, dtype=int)[list(g.codes)]

    def margins(a):
        return a.sum(axis=1), a.sum(axis=0), z.T @ a @ z

    target = margins(np.asarray(d, dtype=int))
    off_diagonal = ~np.eye(n, dtype=bool)
    keys = []
    for bits in itertools.product((0, 1), repeat=n * (n - 1)):
        a = np.zeros((n, n), dtype=int)
        a[off_diagonal] = bits
        if all(map(np.array_equal, margins(a), target)):
            keys.append(nt.AdjacencyMatrix.from_dense(a).key())
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


def cycle_arc_triples(nodes, bounds) -> list[tuple[int, int, bool]]:
    """Arcs of the cycle at positions ``bounds`` of a walk, as
    (source, target, currently_present) triples."""
    a, b = bounds
    arcs = []
    for t in range(a, b):
        if t % 2 == 0:
            arcs.append((nodes[t], nodes[t + 1], True))
        else:
            arcs.append((nodes[t + 1], nodes[t], False))
    return arcs


def switch_cycle(d: nt.AdjacencyMatrix, arcs: list[tuple[int, int, bool]]) -> None:
    """Flip every arc of an alternating cycle in place, with ``set_arc``.

    The checked form of the sampler's XOR switch.  Preconditions (checked,
    ValueError on failure): the presence flags match ``d``; flags alternate;
    consecutive arcs are linked head-to-head after a present arc and
    tail-to-tail after an absent one, wrapping around — which is exactly the
    structure that makes the flip degree-preserving.
    """
    if not arcs:
        return
    m = len(arcs)
    if m % 2 != 0:
        raise ValueError("alternating cycle must have an even number of arcs")
    for t, (u, v, present) in enumerate(arcs):
        if u == v:
            raise ValueError("cycle contains a self-loop")
        if d.has_arc(u, v) != present:
            raise ValueError(f"arc ({u}, {v}) presence flag does not match matrix")
        nu, nv, npresent = arcs[(t + 1) % m]
        if npresent == present:
            raise ValueError("cycle arcs must alternate present/absent")
        if present:  # next arc is absent and must point into the same node
            if nv != v:
                raise ValueError("present arc must share its target with the next arc")
        else:  # next arc is present and must leave the same node
            if nu != u:
                raise ValueError("absent arc must share its source with the next arc")
    for u, v, present in arcs:
        d.set_arc(u, v, not present)


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
    nodes, bounds = reference_walk(d.rows, d.cols, d.n, marks.rows, marks.cols, rng, counts)
    K = g.n_groups
    violation = np.zeros((K, K), dtype=np.int64)
    if bounds is not None:
        codes = g.codes
        for u, v, present in cycle_arc_triples(nodes, bounds):
            violation[codes[u], codes[v]] += -1 if present else 1
    log_prob = -math.log(d.n) - sum(math.log(c) for c in counts)
    roles = tuple("active" if t % 2 == 0 else "passive" for t in range(len(nodes)))
    return Schlaufe(tuple(nodes), roles, bounds, violation, log_prob)


def cycle_arcs(schlaufe: Schlaufe) -> list[tuple[int, int, bool]]:
    """The schlaufe's cycle as arc triples; empty when it has no cycle."""
    if schlaufe.cycle is None:
        return []
    return cycle_arc_triples(schlaufe.nodes, schlaufe.cycle)


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


def perfect_matchings(nodes):
    """Every matching of ``nodes`` that leaves at most one of them out: all
    pairs when their number is even, and, when it is odd, all pairs of the
    rest for each node that sits out.  Each matching is a list of pairs."""
    nodes = list(nodes)
    if len(nodes) % 2:
        return [m for k in range(len(nodes)) for m in perfect_matchings(nodes[:k] + nodes[k + 1:])]
    if not nodes:
        return [[]]
    first, rest = nodes[0], nodes[1:]
    return [
        [(first, rest[u])] + m
        for u in range(len(rest))
        for m in perfect_matchings(rest[:u] + rest[u + 1:])
    ]


def pair_trade_outcomes(d, i, j, by_column):
    """Every network the pool-split trade of i and j on one side makes from
    ``d``, each with its probability 1/C(p, a): p the pool size, a the pool
    nodes i holds."""
    def linked(u, k):
        return d.has_arc(k, u) if by_column else d.has_arc(u, k)

    pool = [k for k in range(d.n) if k not in (i, j) and linked(i, k) != linked(j, k)]
    held = sum(linked(i, k) for k in pool)
    subsets = list(itertools.combinations(pool, held))
    for subset in subsets:
        y = d.copy()
        for k in pool:
            u, v = (k, i) if by_column else (i, k)
            y.set_arc(u, v, k in subset)
            u, v = (k, j) if by_column else (j, k)
            y.set_arc(u, v, k not in subset)
        yield y, 1.0 / len(subsets)


def global_trade_matrix(members, g):
    """Exact one-step transition matrix of the global same-group trade on a
    reference set, listed as ``members``.

    Sums over both sides (probability 1/2 each), every combination of one
    matching per group from :func:`perfect_matchings` (uniform within each
    group) and every pool split of every matched pair
    (:func:`pair_trade_outcomes`).  The pairs of one matching move disjoint
    rows (or columns), so their trades are applied one after the other.
    """
    index = {x.key(): t for t, x in enumerate(members)}
    size = len(members)
    per_group = [perfect_matchings(group) for group in g.members]
    combos = list(itertools.product(*per_group))
    weight = 0.5 / len(combos)
    P = np.zeros((size, size))
    for x, d in enumerate(members):
        for by_column in (False, True):
            for combo in combos:
                dist = {d.key(): (d, 1.0)}
                for i, j in itertools.chain.from_iterable(combo):
                    nxt = {}
                    for y, w in dist.values():
                        for z, pz in pair_trade_outcomes(y, i, j, by_column):
                            prev = nxt.get(z.key(), (z, 0.0))[1]
                            nxt[z.key()] = (z, prev + w * pz)
                    dist = nxt
                for key, (_, w) in dist.items():
                    P[x, index[key]] += weight * w
    return P


# -- reference chain: the oracle for the sampler's optimised walk -------------


def reference_walk(rows, cols, n, mrows, mcols, rng, counts=None):
    """The sampler's walk written with ``randrange`` and a bit-clearing loop.

    The oracle for ``netformtest.sampler._walk``: same first six arguments,
    same result (nodes, cycle_bounds) and same marks.  When ``counts`` is a
    list, the feasible-set size of every choice is appended to it (for
    probability bookkeeping).  Each choice among c > 1 candidates calls
    ``rng.randrange(c)`` and clears the lowest set bit t times, so the
    runtime walk must consume the same random numbers.
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


def tally(stats: ChainStats, info: StepInfo) -> None:
    """Add one step's outcome to ``stats``, as ``markov_draw`` tallies its
    steps: a trade step counts as lazy, and its flips count with the rest."""
    stats.steps += 1
    stats.flips += info.flips
    if info.kind == "lazy":
        stats.lazy += 1
    elif info.kind == "accepted":
        stats.accepted += 1
    else:
        stats.abandoned += 1


def reference_trade(d, g, rng):
    """The sampler's global same-group trade written with ``randrange`` and
    sets.

    The oracle for ``netformtest.sampler._trade``: it consumes the same random
    numbers, makes the same change to ``d`` and returns the same number of
    moved arcs.  One bit picks out-sets (0) or in-sets (1) for every pair.
    Each group of two or more in turn is matched: in a group of odd size a
    uniform member sits out and the last takes its place; then the first remaining member is
    paired with a uniform other, which the first's successor replaces.  Each
    pair trades at once: every node other than i and j that is linked to
    exactly one of them joins the pool, and a partial Fisher-Yates shuffle of
    the pool picks the smaller of i's and j's shares; i then holds as many
    pool nodes as before.
    """
    by_column = rng.getrandbits(1)

    def linked(u, k):
        return d.has_arc(k, u) if by_column else d.has_arc(u, k)

    def set_link(u, k, present):
        if by_column:
            d.set_arc(k, u, present)
        else:
            d.set_arc(u, k, present)

    moved = 0
    for group in g.members:
        order = list(group)
        if len(order) < 2:
            continue
        if len(order) % 2:
            order[rng.randrange(len(order))] = order[-1]
            order.pop()
        while order:
            i = order.pop(0)
            u = rng.randrange(len(order)) if len(order) > 1 else 0
            j = order[u]
            order[u] = order[0]
            order.pop(0)
            pool = [k for k in range(d.n) if k not in (i, j) and linked(i, k) != linked(j, k)]
            had = {k for k in pool if linked(i, k)}
            share = min(len(had), len(pool) - len(had))
            if share == 0:
                continue
            for t in range(share):
                r = t + rng.randrange(len(pool) - t)
                pool[t], pool[r] = pool[r], pool[t]
            picked = set(pool[:share])
            gets = picked if share == len(had) else set(pool) - picked
            for k in pool:
                if (k in gets) != (k in had):
                    set_link(i, k, k in gets)
                    set_link(j, k, k not in gets)
                    moved += 1
    return moved


def reference_step(d, g, cfg, rng):
    """One chain step built on :func:`reference_walk` and
    :func:`reference_trade`; returns a StepInfo.

    Collects each cycle's arcs as (source, target, present) triples as soon as
    the walk closes it, and switches them with the checked
    :func:`switch_cycle`, which refuses a cycle whose flags do not match the
    network; the sampler flips the same arcs by XOR without the checks.
    """
    if rng.random() < cfg.q:
        return StepInfo("lazy", 0, reference_trade(d, g, rng))
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
            arcs = cycle_arc_triples(nodes, bounds)
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


def full_replication(cfg, seed, gamma_index, rep):
    """One power-study replication that makes all ``n_draws`` reference draws
    before deciding; the oracle for the curtailed ``harness._replication``.

    It builds the cell from the same substreams and returns the same
    statistic name -> rejected mapping, or None for a failed replication.
    """
    gamma = cfg.gammas[gamma_index]
    rng_pop = substream_generator(seed, harness._NS_POPULATION, gamma_index, rep)
    delta_true, g = harness.study_population(cfg.n_nodes, rng_pop)
    rng_shocks = substream_generator(seed, harness._NS_SHOCKS, gamma_index, rep)
    spec = nt.strategic_spec(cfg.strategic)
    if gamma == 0.0:
        observed = nt.simulate_null(delta_true, g, rng_shocks)
    else:
        observed = nt.simulate_alternative(delta_true, gamma, spec, g, rng_shocks)

    statistics = []
    try:
        for name in cfg.statistics:
            if name == "locally_best_fitted":
                statistics.append(score_statistic(spec, nt.mle_null(observed, g), g))
            elif name == "locally_best_true":
                statistics.append(score_statistic(spec, delta_true, g))
            else:
                statistics.append(INDEX_STATISTICS[name])
    except nt.SeparationError:
        return None

    chain_seed = int.from_bytes(
        seed_sequence(seed, harness._NS_CHAIN, gamma_index, rep)
        .generate_state(4)
        .tobytes(),
        "little",
    )
    try:
        draws = reference_draws(
            observed,
            g,
            cfg.reference,
            cfg.n_draws,
            nt.ChainConfig(None, cfg.q, cfg.mixing_r),
            chain_seed,
        )
        values, _ = draws.values(statistics)
    except nt.FrozenChainError:
        return None
    return {
        name: add_one_p_value(statistic(observed), column) <= cfg.alpha
        for name, statistic, column in zip(cfg.statistics, statistics, values.T)
    }
