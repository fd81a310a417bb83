"""Uniform sampling over digraphs with fixed degrees and cross-group arc counts.

The reference set conditions on every node's out- and in-degree plus the K x K
matrix of arc counts between groups.  A lazy Markov chain moves between such
digraphs by switching *alternating cycles*: closed walks whose arcs alternate
present/absent and all point into every second node, so that flipping all of
them preserves each node's degrees.  A move attempt strings together alternating
walks ("schlaufen") until the group-level arc-count changes cancel to zero, at
which point all recorded cycles are switched at once; otherwise a fair coin
decides between extending the attempt and abandoning it.  Traversed links stay
marked for the whole attempt, which makes the walks within one attempt
link-disjoint and the overall transition kernel symmetric — so the chain's
stationary distribution is uniform on the reference set, no
acceptance-probability correction needed.

Walk mechanics (0-based positions): even positions are *active*, odd positions
*passive*.  The step leaving an even position follows a present, unmarked arc
out of that node; the step leaving an odd position picks a node whose arc
*into* the odd-position node is absent and unmarked.  Both arcs point into the
passive node.  A walk closes a cycle when it revisits a node in the same role;
dead ends (no feasible continuation) end the walk with no cycle.

Random numbers: every chain function takes an explicit ``random.Random``.  The
laziness and extension coins use ``rng.random()``; every uniform choice of a
walk (the start node and each step) calls ``rng.getrandbits`` exactly as
``rng.randrange`` would, so a seeded stream gives the same walks, draws and
tallies as a chain that calls ``randrange`` for each choice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .graphs import (
    AdjacencyMatrix,
    CrossLinkMatrix,
    DegreeSequence,
    GroupAssignment,
)

__all__ = [
    "ChainConfig",
    "ChainStats",
    "FrozenChainError",
    "LinkMarks",
    "Schlaufe",
    "StepInfo",
    "ViolationMatrix",
    "cycle_arcs",
    "detect_schlaufe",
    "enumerate_reference_set",
    "markov_draw",
    "markov_step",
    "mixing_time_heuristic",
    "replay_walk_log_prob",
    "reversed_walk",
    "switch_cycle",
    "violation_of_cycle",
]

#: K x K integer array; entry (k, l) is the net change in arcs from group k to
#: group l that switching a cycle would cause.
ViolationMatrix = np.ndarray


class FrozenChainError(RuntimeError):
    """The pilot run produced no arc switches, so the chain cannot mix."""


@dataclass(frozen=True)
class ChainConfig:
    """Chain parameters: walk length ``tau`` and laziness ``q``."""

    tau: int
    q: float = 0.5

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("tau must be non-negative")
        if not 0.0 <= self.q < 1.0:
            raise ValueError("laziness q must lie in [0, 1)")


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


class StepInfo(NamedTuple):
    """Outcome of one chain step: kind is 'lazy', 'accepted' or 'abandoned'."""

    kind: str
    n_walks: int
    flips: int


@dataclass
class ChainStats:
    """Running tallies over chain steps, for mixing diagnostics."""

    steps: int = 0
    lazy: int = 0
    accepted: int = 0
    abandoned: int = 0
    flips: int = 0

    def update(self, info: StepInfo) -> None:
        self.steps += 1
        self.flips += info.flips
        if info.kind == "lazy":
            self.lazy += 1
        elif info.kind == "accepted":
            self.accepted += 1
        else:
            self.abandoned += 1

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.steps if self.steps else float("nan")

    def per_arc_modifications(self, arc_count: int) -> float:
        if arc_count == 0:
            return float("nan")
        return self.flips / arc_count


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


def _walk(rows, cols, n, mrows, mcols, rng, counts=None):
    """Grow one alternating walk under the given marks (mutated in place).

    Returns (nodes, cycle_bounds); cycle_bounds is None for dead ends.  When
    ``counts`` is a list, the feasible-set size of every choice is appended to
    it (for probability bookkeeping).

    Each uniform choice among c options is ``Random._randbelow(c)`` written
    out: draw c.bit_length() bits and redraw while the value is at least c.
    That is exactly the ``getrandbits`` sequence of ``rng.randrange(c)``, and
    no bits are drawn when c == 1.  The chosen node is the t-th lowest set bit
    of the candidate mask (:func:`_select_bit`).
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
        if not cand:
            return nodes, None
        c = cand.bit_count()
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
        if counts is not None:
            counts.append(c)
        p = pos_active.get(k)
        if p is not None:
            return nodes, (p, len(nodes) - 1)
        pos_active[k] = len(nodes) - 1
        cur = k


def _cycle_arc_triples(nodes, bounds):
    """Arcs of the cycle as (source, target, currently_present) triples."""
    a, b = bounds
    arcs = []
    for t in range(a, b):
        if t % 2 == 0:
            arcs.append((nodes[t], nodes[t + 1], True))
        else:
            arcs.append((nodes[t + 1], nodes[t], False))
    return arcs


def detect_schlaufe(
    d: AdjacencyMatrix, g: GroupAssignment, marks: LinkMarks, rng
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
    arcs: list[tuple[int, int, bool]], g: GroupAssignment
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


def switch_cycle(d: AdjacencyMatrix, arcs: list[tuple[int, int, bool]]) -> None:
    """Flip every arc of an alternating cycle in place.

    Preconditions (checked, ValueError on failure): the presence flags match
    ``d``; flags alternate; consecutive arcs are linked head-to-head after a
    present arc and tail-to-tail after an absent one, wrapping around — which
    is exactly the structure that makes the flip degree-preserving.
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


def markov_step(d: AdjacencyMatrix, g: GroupAssignment, cfg: ChainConfig, rng) -> StepInfo:
    """Advance the chain by one step, mutating ``d`` in place.

    With probability ``cfg.q`` the step is lazy.  Otherwise walks are grown
    under shared marks until either the accumulated cross-group violations of
    all recorded cycles cancel (then every recorded cycle is switched and the
    move is accepted) or a fair coin ends the attempt (then nothing changes).
    A cycle-free first walk cancels trivially and is accepted as a no-op.
    """
    if rng.random() < cfg.q:
        return StepInfo("lazy", 0, 0)
    n = d.n
    rows, cols = d.rows, d.cols
    codes = g.codes
    K = g.n_groups
    mrows = [0] * n
    mcols = [0] * n
    total = [0] * (K * K)
    cycles: list[tuple[list[int], tuple[int, int]]] = []
    n_walks = 0
    while True:
        nodes, bounds = _walk(rows, cols, n, mrows, mcols, rng)
        n_walks += 1
        if bounds is not None:
            cycles.append((nodes, bounds))
            a, b = bounds
            # Even positions start a present arc nodes[t] -> nodes[t+1], which
            # the switch removes; odd positions the absent arc
            # nodes[t+1] -> nodes[t], which it adds.  a may be odd.
            for t in range(a, b):
                if t & 1:
                    total[codes[nodes[t + 1]] * K + codes[nodes[t]]] += 1
                else:
                    total[codes[nodes[t]] * K + codes[nodes[t + 1]]] -= 1
        if not any(total):
            flips = 0
            for nodes, bounds in cycles:
                arcs = _cycle_arc_triples(nodes, bounds)
                switch_cycle(d, arcs)
                flips += len(arcs)
            return StepInfo("accepted", n_walks, flips)
        if rng.random() < 0.5:
            continue
        return StepInfo("abandoned", n_walks, 0)


def markov_draw(
    d: AdjacencyMatrix,
    g: GroupAssignment,
    cfg: ChainConfig,
    rng,
    stats: Optional[ChainStats] = None,
) -> AdjacencyMatrix:
    """Run ``cfg.tau`` chain steps on a copy of ``d`` and return the result.

    The input matrix is left untouched, so concurrent draws can share it.
    Pass a :class:`ChainStats` to accumulate acceptance/flip tallies.
    """
    out = d.copy()
    for _ in range(cfg.tau):
        info = markov_step(out, g, cfg, rng)
        if stats is not None:
            stats.update(info)
    return out


def mixing_time_heuristic(
    d: AdjacencyMatrix,
    g: GroupAssignment,
    r: float = 10.0,
    q: float = 0.5,
    pilot_steps: int = 1000,
    rng=None,
) -> int:
    """Walk length that modifies each arc about ``r`` times on average.

    A pilot run estimates the arc-flip rate per step; the returned tau solves
    tau * flips_per_step = r * arc_count, i.e. tau = ceil(r * L /
    (flips_per_accepted_step * acceptance_rate)).  ``r = 0`` returns 1
    without a pilot.  A pilot with zero flips raises
    :class:`FrozenChainError`.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    if r == 0:
        return 1
    if rng is None:
        raise ValueError("the pilot run needs an explicit rng")
    L = d.arc_count()
    cfg = ChainConfig(tau=pilot_steps, q=q)
    stats = ChainStats()
    markov_draw(d, g, cfg, rng, stats)
    if stats.flips == 0:
        raise FrozenChainError(
            f"sampler appears frozen: pilot run of {pilot_steps} steps "
            "switched no arcs (reference set may contain a single network)"
        )
    return max(1, math.ceil(r * L * pilot_steps / stats.flips))


# -- diagnostics used by the symmetry checks --------------------------------


def reversed_walk(nodes, cycle) -> list[int]:
    """Node sequence of the reversal: same tail, cycle traversed backwards.

    For a walk (n_0, ..., n_b) whose cycle spans positions a..b (n_a = n_b),
    the reversal is (n_0, ..., n_a, n_{b-1}, n_{b-2}, ..., n_{a+1}, n_b).  On
    the switched graph it is a feasible walk of the same probability, which
    is what makes the move kernel symmetric.
    """
    a, b = cycle
    return list(nodes[: a + 1]) + [nodes[t] for t in range(b - 1, a, -1)] + [nodes[b]]


def replay_walk_log_prob(d: AdjacencyMatrix, forced) -> float:
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


# -- exhaustive reference sets ----------------------------------------------

_ENUMERATION_CAP = 30  # max number of off-diagonal cells, i.e. n*(n-1)


def enumerate_reference_set(
    s: DegreeSequence, m: CrossLinkMatrix, g: GroupAssignment
) -> list[AdjacencyMatrix]:
    """All digraphs with the given degree sequence and cross-link counts.

    Row-by-row backtracking with column-demand pruning; deterministic order.
    Only small problems are accepted (n*(n-1) <= 30, i.e. n <= 6): the
    reference set grows combinatorially and exhaustive enumeration beyond
    that is not meaningful.  Inconsistent inputs yield an empty list.
    """
    n = len(s.out_degrees)
    if n * (n - 1) > _ENUMERATION_CAP:
        raise ValueError(
            f"enumeration supports at most {_ENUMERATION_CAP} potential arcs "
            f"(n*(n-1) = {n * (n - 1)} for n = {n})"
        )
    if g.n_nodes != n:
        raise ValueError("group assignment does not match degree sequence length")
    if m.n_groups != g.n_groups:
        raise ValueError("cross-link matrix does not match group count")
    out_deg = s.out_degrees
    total = sum(out_deg)
    if m.total() != total:
        return []
    if any(deg > n - 1 for deg in out_deg) or any(deg > n - 1 for deg in s.in_degrees):
        return []

    codes = g.codes
    K = g.n_groups
    col_need = list(s.in_degrees)
    block_need = [list(row) for row in m.counts]
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
