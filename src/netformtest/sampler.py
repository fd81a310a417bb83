"""Uniform sampling over digraphs with fixed degrees and cross-group arc counts.

The reference set conditions on every node's out- and in-degree plus the K x K
matrix of arc counts between groups.  A Markov chain moves between such
digraphs in two kinds of step.  With probability ``q`` a step is a *global
same-group trade* (Strona et al. 2014, Curveball; Carstens, Berger & Strona
2016 for digraphs; Carstens et al. 2018 for global trades): one side, out-sets
(rows) or in-sets (columns), is drawn for the whole step, every group's
members are paired by a uniform random matching (an odd member sits out), and
every pair i, j pools the nodes that exactly one of them links to (or is
linked from); i takes a uniform random subset of the pool of the size it
held, j the rest.  Otherwise the step switches *alternating cycles*: closed
walks whose arcs alternate present/absent and all point into every second
node, so that flipping all of them preserves each node's degrees.  A move
attempt strings together alternating walks ("schlaufen") until the
group-level arc-count changes cancel to zero, at which point all recorded
cycles are switched at once; otherwise a fair coin decides between extending
the attempt and abandoning it.  Traversed links stay marked for the whole
attempt, which makes the walks within one attempt link-disjoint and the cycle
kernel symmetric.  Link-disjoint walks record each arc once, so the switch is
one XOR pass over the recorded arcs: each arc becomes the opposite of what its
walk read, present arcs vanish and absent ones appear.

For a fixed side and pair, a pair's trade resamples uniformly within the
networks that differ only in how its pool is split, so it is an orthogonal
projection in L2(uniform).  The pairs of one matching act on disjoint rows (or
columns), and a pair's pool reads only its own two, so their projections
commute and their product, the trade for a fixed side and matching, is itself
a projection.  The side and the matching do not depend on the network, so the
trade kernel, the average of these projections, is symmetric with spectrum in
[0, 1].  The chain's kernel q * trade + (1 - q) * cycle is therefore
symmetric, so its stationary distribution is uniform on the reference set with
no acceptance-probability correction; it is irreducible through the cycle
moves, and aperiodic since a trade can leave the network as it is.  It is
also below q * I + (1 - q) * cycle, the chain whose q-steps do nothing, in the
positive semidefinite order, so no statistic's asymptotic variance per step
is larger than under that lazy chain (Peskun-Tierney ordering; Mira 2001,
*Stat. Sci.* 16:340).  Trades alone are not irreducible: on the directed
3-cycle no matching moves anything, though the reversed cycle has the same
margins.

Walk mechanics (0-based positions): even positions are *active*, odd positions
*passive*.  The step leaving an even position follows a present, unmarked arc
out of that node; the step leaving an odd position picks a node whose arc
*into* the odd-position node is absent and unmarked.  Both arcs point into the
passive node.  A walk closes a cycle when it revisits a node in the same role;
dead ends (no feasible continuation) end the walk with no cycle.  Every step
takes its choice from the bitmask of unmarked candidates.

Random numbers: every chain function takes an explicit ``random.Random``.  The
trade and extension coins use ``rng.random()`` and a trade's side one
``rng.getrandbits(1)``; every other uniform choice of a walk (the start node
and each step) and of a trade (the matching and each pool split) calls
``rng.getrandbits`` exactly as ``rng.randrange`` would for a choice among two
or more options, and draws nothing for a single option.  So a seeded stream
gives the same walks, trades, draws and tallies as a chain that calls
``randrange`` for each choice among two or more options and none for a single
one.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import astuple, dataclass
from typing import NamedTuple, Optional

from .graphs import AdjacencyMatrix, GroupAssignment, cross_link_matrix

__all__ = [
    "ChainConfig",
    "ChainStats",
    "FrozenChainError",
    "StepInfo",
    "enumerate_reference_set",
    "markov_draw",
    "markov_step",
    "mixing_time_heuristic",
]


class FrozenChainError(RuntimeError):
    """No trade can move an arc of the observed network and the cycle pilot
    switched none, so the chain cannot mix."""


@dataclass(frozen=True)
class ChainConfig:
    """One walk of the chain: ``tau`` steps per draw, trade probability ``q``.

    Each step is a global same-group trade (every pair of a random
    same-group matching trades on one side) with probability ``q`` and a
    cycle-switching attempt otherwise.  ``q = 0`` switches cycles only;
    ``q = 1`` is refused, since trades alone need not reach the whole
    reference set (no matching turns a directed triangle into its reverse).
    ``tau = None`` asks :func:`mixing_time_heuristic` for a walk that
    modifies each arc about ``mixing_r`` times per draw, by trades and cycle
    switches together: the exact expected trade moves plus a pilot of cycle
    attempts only, as many as that function's rule gives for ``q``.

    The default ``q = 0.8`` is the one source of the trade share's default:
    :func:`mixing_time_heuristic`, ``harness.ExperimentConfig`` and the
    CLI's ``--q`` read it.  Against q = 0.5 it costs less chain time per
    integrated autocorrelation time for every built-in statistic on the
    networks of ``tools/ess_by_q.py``, though the gain shrinks as n grows
    and is near even at n = 192, the largest network measured.  Likewise
    ``mixing_r = 10`` is the one source of the walk target's default: the
    ``r`` of :func:`mixing_time_heuristic` and the CLI's ``--tau-auto``
    read it.
    """

    tau: Optional[int] = None
    q: float = 0.8
    mixing_r: float = 10.0

    def __post_init__(self):
        for key, kind, name in (
            ("tau", (numbers.Integral, type(None)), "an integer or None"),
            ("q", numbers.Real, "a real number"),
            ("mixing_r", numbers.Real, "a real number"),
        ):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{key} must be {name}, got {value!r}")
        if self.tau is not None and self.tau < 0:
            raise ValueError("tau must be non-negative")
        if not 0.0 <= self.q < 1.0:
            raise ValueError("trade probability q must lie in [0, 1)")
        if not math.isfinite(self.mixing_r):
            raise ValueError(f"mixing_r must be finite, got {self.mixing_r!r}")
        if self.mixing_r < 0:
            raise ValueError("mixing_r must be non-negative")


class StepInfo(NamedTuple):
    """Outcome of one chain step: kind is 'lazy' (a global same-group trade,
    with the arcs all its pairs moved in ``flips``), 'accepted' or
    'abandoned'."""

    kind: str
    n_walks: int
    flips: int


@dataclass
class ChainStats:
    """Running tallies over chain steps, for mixing diagnostics.

    ``lazy`` counts the trade steps, each a global trade over every matched
    pair.  ``flips`` counts arc modifications: each arc a cycle switch adds
    or removes, and each arc a trade moves from one node of a pair to the
    other (i -> k becoming j -> k, or k -> i becoming k -> j).
    """

    steps: int = 0
    lazy: int = 0
    accepted: int = 0
    abandoned: int = 0
    flips: int = 0

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.steps if self.steps else float("nan")

    def per_arc_modifications(self, arc_count: int) -> float:
        if arc_count == 0:
            return float("nan")
        return self.flips / arc_count

    def __add__(self, other: ChainStats) -> ChainStats:
        """Tallies of two runs together (e.g. two workers' shares of the draws)."""
        return ChainStats(*(a + b for a, b in zip(astuple(self), astuple(other))))


# Byte tables for picking the t-th lowest set bit of a candidate mask:
# _BYTE_POPCOUNT[b] is the number of set bits of byte b, and _BYTE_BITS[b] the
# positions of those bits in increasing order.
_BYTE_POPCOUNT = bytes(b.bit_count() for b in range(256))
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def _select_bit(mask: int, t: int, nbytes: int) -> int:
    """Position of the t-th lowest set bit of ``mask``, counting t from 0.

    Scans the ``nbytes``-byte little-endian form of ``mask`` one byte at a
    time; ``t`` must be smaller than ``mask.bit_count()``.
    """
    pos = 0
    for byte in mask.to_bytes(nbytes, "little"):
        c = _BYTE_POPCOUNT[byte]
        if t < c:
            return pos + _BYTE_BITS[byte][t]
        t -= c
        pos += 8
    raise ValueError("t must be smaller than the number of set bits")


def _set_bits(mask: int, nbytes: int) -> list[int]:
    """Positions of the set bits of ``mask`` in increasing order."""
    return [
        pos + i
        for pos, byte in zip(range(0, 8 * nbytes, 8), mask.to_bytes(nbytes, "little"))
        for i in _BYTE_BITS[byte]
    ]


def _walk(rows, cols, n, mrows, mcols, rng):
    """Grow one alternating walk under the given marks (mutated in place).

    Returns (nodes, cycle_bounds); cycle_bounds is None for dead ends.

    Each uniform choice among c >= 2 options is ``Random._randbelow(c)``
    written out: draw c.bit_length() bits and redraw while the value is at
    least c.  That is exactly the ``getrandbits`` sequence of
    ``rng.randrange(c)``.  A choice among one option draws nothing, although
    ``randrange(1)`` draws bits.  The choice is the t-th lowest set bit of
    the mask of unmarked candidates (:func:`_select_bit`).
    """
    full = (1 << n) - 1
    nbytes = (n + 7) >> 3
    getrandbits = rng.getrandbits
    select_bit = _select_bit
    kbits = n.bit_length()
    start = getrandbits(kbits)
    while start >= n:
        start = getrandbits(kbits)
    nodes = [start]
    pos_active = {start: 0}
    pos_passive: dict[int, int] = {}
    cur = start
    while True:
        # Active step: follow an unmarked present arc out of cur.
        cand = rows[cur] & ~mrows[cur]
        c = cand.bit_count()
        if not c:
            return nodes, None
        if c > 1:
            kbits = c.bit_length()
            t = getrandbits(kbits)
            while t >= c:
                t = getrandbits(kbits)
            j = select_bit(cand, t, nbytes)
        else:
            j = cand.bit_length() - 1
        mrows[cur] |= 1 << j
        mcols[j] |= 1 << cur
        nodes.append(j)
        p = pos_passive.get(j)
        if p is not None:
            return nodes, (p, len(nodes) - 1)
        pos_passive[j] = len(nodes) - 1
        # Passive step: pick k whose arc k -> j is absent and unmarked.
        cand = full & ~cols[j] & ~mcols[j] & ~(1 << j)
        c = cand.bit_count()
        if not c:
            return nodes, None
        if c > 1:
            kbits = c.bit_length()
            t = getrandbits(kbits)
            while t >= c:
                t = getrandbits(kbits)
            k = select_bit(cand, t, nbytes)
        else:
            k = cand.bit_length() - 1
        mrows[k] |= 1 << j
        mcols[j] |= 1 << k
        nodes.append(k)
        p = pos_active.get(k)
        if p is not None:
            return nodes, (p, len(nodes) - 1)
        pos_active[k] = len(nodes) - 1
        cur = k


def _attempt(d, codes, K, rng):
    """The cycle-switching part of :func:`markov_step` on ``d``; returns
    (n_walks, flips), with flips None when the attempt is abandoned.

    Each closed cycle's arcs are recorded as (u, v) in the loop that totals
    their group-count changes.  When the totals cancel, every recorded arc
    is flipped in the row and column bitmasks by XOR; the walks share their
    marks, so no arc is recorded twice.
    """
    n = d.n
    rows, cols = d.rows, d.cols
    mrows = [0] * n
    mcols = [0] * n
    total = [0] * (K * K)
    arcs: list[tuple[int, int]] = []
    n_walks = 0
    while True:
        nodes, bounds = _walk(rows, cols, n, mrows, mcols, rng)
        n_walks += 1
        if bounds is not None:
            a, b = bounds
            # Even positions start a present arc nodes[t] -> nodes[t+1], which
            # the switch removes; odd positions the absent arc
            # nodes[t+1] -> nodes[t], which it adds.  a may be odd.
            for t in range(a, b):
                if t & 1:
                    u, v = nodes[t + 1], nodes[t]
                    total[codes[u] * K + codes[v]] += 1
                else:
                    u, v = nodes[t], nodes[t + 1]
                    total[codes[u] * K + codes[v]] -= 1
                arcs.append((u, v))
        if not any(total):
            for u, v in arcs:
                rows[u] ^= 1 << v
                cols[v] ^= 1 << u
            return n_walks, len(arcs)
        if rng.random() >= 0.5:
            return n_walks, None


def _pair_trade(side, other, i, j, getrandbits, nbytes):
    """Trade the pool of one pair i, j on one side; returns the arcs it moves.

    ``side`` holds the sets being traded (``d.rows``, the out-sets, or
    ``d.cols``, the in-sets) and ``other`` the bitmasks of the other
    orientation.  The pool is the symmetric difference of the two sets,
    positions i and j left out; every pool node is linked to exactly one of i
    and j.  i keeps as many pool nodes as it had, now a uniform subset of that
    size, and j takes the rest.  An empty pool leaves both sets unchanged.

    The subset is drawn by a partial Fisher-Yates shuffle of the pool nodes in
    increasing order: for t < s = min(a, p - a), with a the pool nodes i had
    and p the pool size, swap entry t with entry t + randrange(p - t).  The
    first s entries go to i if s == a, and to j otherwise.  Each uniform
    choice draws its bits as :func:`_walk` does.  Each pool node that changes
    hands moves one arc, from i to j or back, and flips bits i and j of that
    node's bitmask in ``other``.
    """
    both = (1 << i) | (1 << j)
    xi = side[i]
    pool = (xi ^ side[j]) & ~both
    held = pool & xi
    a = held.bit_count()
    p = pool.bit_count()
    s = a if a + a <= p else p - a
    if not s:
        return 0
    if p <= 12:  # a short pool is listed faster bit by bit than by bytes
        nodes = []
        rest = pool
        while rest:
            low = rest & -rest
            nodes.append(low.bit_length() - 1)
            rest ^= low
    else:
        nodes = _set_bits(pool, nbytes)
    chosen = 0
    for t in range(s):
        c = p - t
        kbits = c.bit_length()
        r = getrandbits(kbits)
        while r >= c:
            r = getrandbits(kbits)
        r += t
        k = nodes[r]
        nodes[r] = nodes[t]
        chosen |= 1 << k
    if s != a:
        chosen ^= pool
    moved = held ^ chosen
    if not moved:
        return 0
    side[i] = xi ^ moved
    side[j] ^= moved
    rest = moved
    while rest:
        low = rest & -rest
        rest ^= low
        other[low.bit_length() - 1] ^= both
    return moved.bit_count()


def _trade(d, members, rng):
    """One global same-group trade on ``d``; returns the number of arcs it
    moves.

    One bit picks the side for the whole step: 0 trades out-sets (rows), 1
    in-sets (columns).  Then, group by group in the order of ``members``
    (each group's nodes sorted), a uniform perfect matching of the group's
    members is drawn, and every matched pair makes the pool-split trade of
    :func:`_pair_trade` as soon as it is matched.  The matching is a partial
    Fisher-Yates shuffle of the members in increasing order: in a group of
    odd size m, the member at position randrange(m) sits out and the last
    member takes its place; then for t = 0, 2, 4, ..., the member at
    position t is matched with the one at u = t + 1 + randrange(m' - t - 1),
    m' the even number of members left, which swaps into position t + 1.  A
    choice among one option draws nothing, and every choice draws its bits
    as :func:`_walk` does.  Singleton groups take no part.
    """
    getrandbits = rng.getrandbits
    if getrandbits(1):
        side, other = d.cols, d.rows
    else:
        side, other = d.rows, d.cols
    nbytes = (d.n + 7) >> 3
    pair_trade = _pair_trade
    moved = 0
    for group in members:
        m = len(group)
        if m < 2:
            continue
        order = list(group)
        if m & 1:
            kbits = m.bit_length()
            r = getrandbits(kbits)
            while r >= m:
                r = getrandbits(kbits)
            m -= 1
            order[r] = order[m]
        for t in range(0, m, 2):
            c = m - t - 1
            if c > 1:
                kbits = c.bit_length()
                r = getrandbits(kbits)
                while r >= c:
                    r = getrandbits(kbits)
                r += t + 1
                j = order[r]
                order[r] = order[t + 1]
            else:
                j = order[t + 1]
            moved += pair_trade(side, other, order[t], j, getrandbits, nbytes)
    return moved


def markov_step(d: AdjacencyMatrix, g: GroupAssignment, cfg: ChainConfig, rng) -> StepInfo:
    """Advance the chain by one step, mutating ``d`` in place.

    With probability ``cfg.q`` the step is a global same-group trade
    (:func:`_trade`), reported as kind "lazy" with the arcs it moved as its
    flips.  Otherwise walks are grown under shared marks until either the
    accumulated cross-group violations of all recorded cycles cancel (then
    one XOR pass flips every recorded arc and the move is accepted) or a fair
    coin ends the attempt (then nothing changes).  A cycle-free first walk
    cancels trivially and is accepted as a no-op.  The step reads and writes
    only the row and column bitmasks of ``d``; :func:`markov_draw` is ``tau``
    calls of it.
    """
    if rng.random() < cfg.q:
        return StepInfo("lazy", 0, _trade(d, g.members, rng))
    n_walks, flips = _attempt(d, g.codes, g.n_groups, rng)
    if flips is None:
        return StepInfo("abandoned", n_walks, 0)
    return StepInfo("accepted", n_walks, flips)


def markov_draw(
    d: AdjacencyMatrix,
    g: GroupAssignment,
    cfg: ChainConfig,
    rng,
    stats: Optional[ChainStats] = None,
) -> AdjacencyMatrix:
    """Run ``cfg.tau`` chain steps on a copy of ``d`` and return the result.

    The input matrix is left untouched, so concurrent draws can share it.
    Pass a :class:`ChainStats` to accumulate tallies: ``lazy`` counts the
    trade steps, and ``flips`` the arc modifications of trades and cycle
    switches together (see :class:`ChainStats`).  The draw is ``cfg.tau``
    calls of :func:`markov_step` on the copy.  A pilot-tuned ``cfg`` (``tau``
    None) raises ValueError: resolve it first, as
    :func:`testing.reference_draws` does.
    """
    tau = cfg.tau
    if tau is None:
        raise ValueError("markov_draw needs a fixed walk length; cfg.tau is None")
    out = d.copy()
    if stats is None:
        stats = ChainStats()
    for _ in range(tau):
        info = markov_step(out, g, cfg, rng)
        stats.steps += 1
        stats.flips += info.flips
        if info.kind == "lazy":
            stats.lazy += 1
        elif info.kind == "accepted":
            stats.accepted += 1
        else:
            stats.abandoned += 1
    return out


def _expected_trade_flips(d: AdjacencyMatrix, g: GroupAssignment) -> float:
    """Expected number of arcs one global trade (:func:`_trade`) moves from ``d``.

    For a pair i, j on one side, with S the side's sets, a = |S_i - S_j - {j}|
    and b = |S_j - S_i - {i}| are the pool nodes that i and that j hold.  i's
    new share is a uniform a-subset of the a + b pool nodes, so a matched
    pair moves 2ab / (a + b) arcs in expectation.  A pair of a group of m
    members is matched with probability w_m = 1 / (m - 1) for even m and
    1 / m for odd m (one member sits out), and each side has probability
    1/2, so the mean is the sum over sides, groups and pairs i < j of
    w_m * ab / (a + b).
    """
    total = 0.0
    for side in (d.rows, d.cols):
        for group in g.members:
            m = len(group)
            if m < 2:
                continue
            part = 0.0
            for t, i in enumerate(group):
                xi = side[i]
                for j in group[t + 1 :]:
                    xj = side[j]
                    a = (xi & ~xj & ~(1 << j)).bit_count()
                    b = (xj & ~xi & ~(1 << i)).bit_count()
                    if a and b:
                        part += a * b / (a + b)
            total += part / (m if m & 1 else m - 1)
    return total


def mixing_time_heuristic(
    d: AdjacencyMatrix,
    g: GroupAssignment,
    r: float = ChainConfig.mixing_r,
    q: float = ChainConfig.q,
    rng=None,
) -> int:
    """Walk length that modifies each arc about ``r`` times on average.

    The expected arc modifications per step, trades and cycle switches
    together (``ChainStats.flips``), is q * T + (1 - q) * F / s.  T, the
    arcs one global trade moves from ``d``, is computed exactly
    (:func:`_expected_trade_flips`; skipped at q = 0).  F is the flips of a
    pilot :func:`markov_draw` of s cycle-switching attempts (q = 0) on a
    copy of ``d``: s = 1000 for q <= 0.15 and max(1, round(150 (1 - q) / q))
    otherwise, about the attempts a pilot of 150 trade steps would make.
    The returned tau solves tau * rate = r * arc_count, i.e.
    tau = ceil(r * L * s / (q * s * T + (1 - q) * F)).  ``r = 0`` returns 1
    without a pilot.  ``r`` and ``q`` are checked as :class:`ChainConfig`
    checks them, before anything else, and an r so large that tau overflows
    to infinity raises ValueError.  When T = 0 and the pilot flips nothing,
    no step can change ``d`` and :class:`FrozenChainError` is raised.
    """
    ChainConfig(None, q, r)  # refuses a bad q or r before the pilot length sees q
    if r == 0:
        return 1
    if rng is None:
        raise ValueError("the pilot run needs an explicit rng")
    pilot_steps = 1000 if q <= 0.15 else max(1, round(150 * (1 - q) / q))
    stats = ChainStats()
    markov_draw(d, g, ChainConfig(pilot_steps, 0.0), rng, stats)
    trades = q * pilot_steps * _expected_trade_flips(d, g) if q else 0.0
    if not trades and not stats.flips:
        raise FrozenChainError(
            f"sampler appears frozen: pilot run of {pilot_steps} steps "
            "switched no arcs (reference set may contain a single network)"
        )
    tau = r * d.arc_count() * pilot_steps / (trades + (1 - q) * stats.flips)
    if not math.isfinite(tau):
        raise ValueError(f"mixing_r = {r!r} gives a walk length that is not finite")
    return max(1, math.ceil(tau))


# -- exhaustive reference sets ----------------------------------------------

_ENUMERATION_CAP = 30  # max number of off-diagonal cells, i.e. n*(n-1)


def check_enumerable(n: int) -> None:
    """Refuse ``n`` nodes when n*(n-1) exceeds the enumeration cap."""
    if n * (n - 1) > _ENUMERATION_CAP:
        raise ValueError(
            f"enumeration supports at most {_ENUMERATION_CAP} potential arcs "
            f"(n*(n-1) = {n * (n - 1)} for n = {n})"
        )


def enumerate_reference_set(d: AdjacencyMatrix, g: GroupAssignment) -> list[AdjacencyMatrix]:
    """The reference set of ``d`` under grouping ``g``: every digraph with the
    out-degrees, in-degrees and cross-group arc counts of ``d``, ``d`` among
    them.

    Row-by-row backtracking with column-demand pruning; deterministic order.
    Only small problems are accepted (n*(n-1) <= 30, i.e. n <= 6): the
    reference set grows combinatorially and exhaustive enumeration beyond
    that is not meaningful.  A ``g`` over another node count is refused.
    """
    n = d.n
    check_enumerable(n)
    codes = g.codes
    K = g.n_groups
    out_deg = d.out_degrees()
    col_need = d.in_degrees()
    block_need = [list(row) for row in cross_link_matrix(d, g)]
    rows_acc = [0] * n
    results: list[AdjacencyMatrix] = []

    def place(i: int) -> None:
        if i == n:
            if all(c == 0 for c in col_need):
                results.append(AdjacencyMatrix(n, list(rows_acc)))
            return
        k = codes[i]
        avail = [
            j
            for j in range(n)
            if j != i and col_need[j] > 0 and block_need[k][codes[j]] > 0
        ]
        for combo in itertools.combinations(avail, out_deg[i]):
            ok = True
            for j in combo:
                col_need[j] -= 1
                block_need[k][codes[j]] -= 1
            for l in range(K):
                if block_need[k][l] < 0:
                    ok = False
                    break
            if ok:
                # Remaining rows must still be able to meet every column demand.
                for j in range(n):
                    remaining = n - 1 - i - (1 if j > i else 0)
                    if col_need[j] > remaining:
                        ok = False
                        break
            if ok:
                rows_acc[i] = sum(1 << j for j in combo)
                place(i + 1)
                rows_acc[i] = 0
            for j in combo:
                col_need[j] += 1
                block_need[k][codes[j]] += 1

    place(0)
    return results
