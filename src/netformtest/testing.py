"""Conditional tests for strategic interaction in network formation.

Conditioning on every node's out-degree, in-degree, and the cross-group arc
counts makes all networks in the induced reference set equally likely under
the dyad-independent null, whatever the nuisance parameters.  The tests here
compare an observed statistic against its distribution over that reference
set — enumerated exactly for tiny networks, sampled by the switching chain
otherwise — with the add-one Monte Carlo p-value
p = (1 + #{draws >= observed}) / (#draws + 1), or, on an enumerated set, by
the tie-randomized rejection rule of exact size alpha.

The locally best statistic against interaction strength gamma > 0 is
sum over i != j of (d_ij - F(mu_ij)) * s_ij(d).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from ._rng import substream_generator, substream_random
from .graphs import (
    AdjacencyMatrix,
    GroupAssignment,
    reciprocity_index,
    transitivity_index,
)
from .model import (
    NuisanceParams,
    StrategicSpec,
    _link_probabilities,
    mle_null,
    strategic_spec,
)
from .sampler import (
    ChainConfig,
    ChainStats,
    enumerate_reference_set,
    markov_draw,
    mixing_time_heuristic,
)

__all__ = [
    "TestResult",
    "TestStatisticSpec",
    "conditional_p_value",
    "exact_conditional_critical_values",
    "score_statistic",
]

REFERENCES = ("density_only", "degree_only", "degree_and_crosslink", "enumerated")

TI_NOTE = "closed two-path ratio over directed two-paths (i,k,j distinct)"

#: The descriptive index statistics by name; each is a function of the network.
INDEX_STATISTICS = {
    "reciprocity_index": reciprocity_index,
    "transitivity_index": transitivity_index,
}

# Substream namespaces under the root seed.
_NS_DRAW = 0
_NS_PILOT = 1


def score_statistic(spec: StrategicSpec, delta: NuisanceParams, g: GroupAssignment):
    """The locally best score against ``spec`` under the null ``delta``,
    sum over i != j of (d_ij - F(mu_ij)) s_ij(d), as a function of the
    network d.  Large values indicate more arcs than the null predicts
    exactly where the interaction term s makes arcs more attractive.  The
    null link probabilities and the off-diagonal mask are computed once; the
    function pickles when ``spec.matrix_fn`` does."""
    P = _link_probabilities(delta, g)
    off = ~np.eye(g.n_nodes, dtype=bool)
    return partial(_score, P=P, off=off, matrix_fn=spec.matrix_fn)


def _score(d, P: np.ndarray, off: np.ndarray, matrix_fn) -> float:
    """sum over i != j of (d_ij - P_ij) * s_ij(d), with s from ``matrix_fn``;
    ``d`` is an ``AdjacencyMatrix`` or a dense 0/1 array, ``off`` the
    off-diagonal mask."""
    dense = np.asarray(d)
    S = matrix_fn(dense)
    return float(((dense - P) * S)[off].sum())


# -- test statistics -----------------------------------------------------------


@dataclass(frozen=True)
class TestStatisticSpec:
    """Which statistic to compute on observed and reference networks.

    kind: "locally_best", "reciprocity_index", or "transitivity_index".
    ``strategic`` names the interaction term for "locally_best"
    ("reciprocity", "transitivity", "customer_product").  ``delta_source``
    says where its nuisance parameters come from: "fitted" fits the null MLE
    on the observed network once (reference draws reuse it), "provided"
    uses ``delta``, which is refused beside "fitted".  The index statistics
    read no strategic term and no nuisance parameters, so they refuse
    ``strategic``, "provided" and ``delta``.
    """

    kind: str
    strategic: Optional[str] = None
    delta_source: str = "fitted"
    delta: Optional[NuisanceParams] = None

    def __post_init__(self):
        if self.kind != "locally_best" and self.kind not in INDEX_STATISTICS:
            raise ValueError(f"unknown statistic kind {self.kind!r}")
        if self.delta_source not in ("fitted", "provided"):
            raise ValueError("delta_source must be 'fitted' or 'provided'")
        if self.kind != "locally_best":
            if self.strategic is not None:
                raise ValueError(
                    f"{self.kind} reads no strategic term: strategic="
                    f"{self.strategic!r} is read only by locally_best"
                )
            if self.delta_source == "provided" or self.delta is not None:
                raise ValueError(
                    f"{self.kind} reads no nuisance parameters: delta_source="
                    "'provided' and delta are read only by locally_best"
                )
            return
        if self.strategic is None:
            raise ValueError("locally_best needs a strategic term name")
        strategic_spec(self.strategic)  # refuses an unknown name
        if self.delta_source == "provided" and self.delta is None:
            raise ValueError("delta_source='provided' requires delta")
        if self.delta_source == "fitted" and self.delta is not None:
            raise ValueError("delta is read only with delta_source='provided'")

    def resolve(self, d: AdjacencyMatrix, g: GroupAssignment):
        """The statistic for the observed network ``d`` (fits the MLE if asked),
        as a picklable function of a network, ready for every reference draw."""
        if self.kind != "locally_best":
            return INDEX_STATISTICS[self.kind]
        spec = strategic_spec(self.strategic)
        delta = self.delta if self.delta_source == "provided" else mle_null(d, g)
        return score_statistic(spec, delta, g)


def add_one_p_value(observed: float, values: np.ndarray) -> float:
    """(1 + #{values >= observed}) / (#values + 1) over the defined values.

    Undefined (NaN) values are left out; an undefined observed value gives a
    NaN p-value.
    """
    if math.isnan(observed):
        return float("nan")
    defined = values[~np.isnan(values)]
    return (1 + int((defined >= observed).sum())) / (defined.size + 1)


def decided_at(alpha: float, observed, n_draws: int):
    """Stop rule for :meth:`ReferenceDraws.values` when only the decisions
    ``add_one_p_value(observed[j], values[:, j]) <= alpha`` over ``n_draws``
    draws matter (Besag & Clifford 1991, "Sequential Monte Carlo p-values").

    With e draws so far at or above an observed value, the final p-value is
    at least (1 + e) / (n_draws + 1): later draws only add exceedances, and
    undefined ones only shrink the denominator.  Float division is monotone,
    so once that bound exceeds ``alpha`` for every statistic, or the
    observed value is undefined, no further draw can turn any decision into
    a rejection, and every p-value over the draws made so far exceeds
    ``alpha`` too.  The rule keeps a running count, so give each call of
    :meth:`ReferenceDraws.values` a fresh one.
    """
    exceedances = [0] * len(observed)
    seen = 0

    def decided(rows) -> bool:
        nonlocal seen
        for row in rows[seen:]:
            for j, (value, x) in enumerate(zip(row, observed)):
                if value >= x:
                    exceedances[j] += 1
        seen = len(rows)
        return all(
            math.isnan(x) or (1 + e) / (n_draws + 1) > alpha
            for x, e in zip(observed, exceedances)
        )

    return decided


# -- reference draws -----------------------------------------------------------


def _density_only_draw(n: int, n_arcs: int, gen: np.random.Generator) -> np.ndarray:
    """A uniform digraph with ``n_arcs`` arcs, as a dense n x n uint8 array:
    the numpy Generator ``gen`` picks that many distinct off-diagonal
    positions, numbered row by row, as an exactly uniform subset (integer
    draws, no ranking of float keys)."""
    positions = gen.choice(n * (n - 1), n_arcs, replace=False, shuffle=False)
    # Position p lies in row i = p // (n - 1), at column p - i(n - 1), moved
    # one right past the diagonal when p >= i * n: flat index p + i (+ 1).
    i = positions // (n - 1)
    dense = np.zeros(n * n, dtype=np.uint8)
    dense[positions + i + (positions >= i * n)] = 1
    return dense.reshape(n, n)


@dataclass(frozen=True, eq=False)
class ReferenceDraws:
    """Draws 0..n_draws-1 from the reference set of ``observed``.

    Draw b of a sampled reference uses its own substream (seed,
    draw-namespace, b), so any share of the draws can be made in any process
    with the same result: a numpy Generator for "density_only", a
    ``random.Random`` for the chain.  ``cfg`` is the chain's walk, with a
    fixed tau, for "degree_only" and "degree_and_crosslink", with ``g`` the
    grouping the chain preserves, and None for "density_only".  For "enumerated" the
    draws are ``members``: the whole reference set minus the observed
    network.  Build it with :func:`reference_draws`.

    :meth:`draw` returns draw b as one dense uint8 array, which
    :meth:`values` makes once per draw and hands to every statistic: a
    density draw is built only as that array, a chain draw or enumerated
    member is unpacked once with ``to_array``.
    """

    observed: AdjacencyMatrix
    g: GroupAssignment
    reference: str
    n_draws: int
    cfg: Optional[ChainConfig] = None
    seed: Optional[int] = None
    members: tuple[AdjacencyMatrix, ...] = ()

    def draw(self, b: int, stats: ChainStats) -> np.ndarray:
        """Draw b as a dense n x n uint8 array; a chain draw adds its step
        tallies to ``stats``."""
        if self.reference == "enumerated":
            return self.members[b].to_array()
        if self.reference == "density_only":
            gen = substream_generator(self.seed, _NS_DRAW, b)
            return _density_only_draw(self.observed.n, self.observed.arc_count(), gen)
        rng = substream_random(self.seed, _NS_DRAW, b)
        return markov_draw(self.observed, self.g, self.cfg, rng, stats).to_array()

    def values(self, statistics, jobs: int = 1, stop=None) -> tuple[np.ndarray, ChainStats]:
        """Every statistic on every draw, as an (n_draws, len(statistics))
        array in draw order, and the chain's tallies over the draws made.

        With ``jobs`` > 1 the sampled draws are split into contiguous chunks,
        one per worker process; neither result depends on ``jobs``.

        ``stop``, if given, is asked before each draw with the rows made so
        far, and drawing ends at its first True: the array then has only the
        rows of draws 0..m-1.  With a stop rule every draw is made in order in
        this process, whatever ``jobs``.
        """
        per = math.ceil(self.n_draws / jobs) if jobs > 1 else self.n_draws
        if stop is not None or per >= self.n_draws or self.reference == "enumerated":
            rows, stats = self._chunk(statistics, 0, self.n_draws, stop)
        else:
            # Imported here, where a pool opens: it loads multiprocessing.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = [
                    pool.submit(self._chunk, statistics, lo, min(lo + per, self.n_draws))
                    for lo in range(0, self.n_draws, per)
                ]
                chunks = [f.result() for f in futures]
            rows = [row for chunk_rows, _ in chunks for row in chunk_rows]
            stats = sum((chunk_stats for _, chunk_stats in chunks), ChainStats())
        return np.array(rows, dtype=float).reshape(-1, len(statistics)), stats

    def _chunk(self, statistics, lo: int, hi: int, stop=None) -> tuple[list, ChainStats]:
        stats = ChainStats()
        rows = []
        for b in range(lo, hi):
            if stop is not None and stop(rows):
                break
            draw = self.draw(b, stats)
            rows.append([statistic(draw) for statistic in statistics])
        return rows, stats


def reference_draws(
    observed: AdjacencyMatrix,
    g: GroupAssignment,
    reference: str,
    n_draws: int,
    cfg: Optional[ChainConfig] = None,
    seed: Optional[int] = None,
) -> ReferenceDraws:
    """Check the settings of a reference and make ready its draws, each of
    which :meth:`ReferenceDraws.draw` returns as a dense uint8 array.

    "enumerated" enumerates the reference set of ``observed`` under ``g`` now,
    and its draws are the members other than ``observed``; ``n_draws``,
    ``cfg`` and ``seed`` are then ignored, and so is ``cfg`` for
    "density_only".  The chain references walk as ``cfg`` says,
    ``ChainConfig()`` when it is None.  A pilot-tuned ``cfg`` (``tau`` None)
    is resolved here, once, by :func:`mixing_time_heuristic`: the exact
    expected trade moves of the observed network, weighted by ``cfg.q``, and
    a pilot of cycle attempts on the substream (seed, pilot-namespace),
    weighted by 1 - ``cfg.q``, set tau so that each arc is modified about
    ``cfg.mixing_r`` times per draw, and the draws take
    ``ChainConfig(tau, cfg.q, cfg.mixing_r)``.
    """
    if reference not in REFERENCES:
        raise ValueError(f"unknown reference {reference!r}; choose from {REFERENCES}")
    if reference == "enumerated":
        members = enumerate_reference_set(observed, g)
        obs_key = observed.key()
        others = tuple(d for d in members if d.key() != obs_key)
        if len(others) == len(members):
            raise ValueError("observed network missing from its own reference set")
        return ReferenceDraws(observed, g, reference, len(others), members=others)

    if seed is None:
        raise ValueError(f"reference {reference!r} needs a seed")
    if n_draws < 1:
        raise ValueError("need at least one reference draw")
    if reference == "density_only":
        return ReferenceDraws(observed, g, reference, n_draws, seed=seed)
    if reference == "degree_only":
        g = GroupAssignment.single_group(observed.n)
    if cfg is None:
        cfg = ChainConfig()
    if cfg.tau is None:
        pilot_rng = substream_random(seed, _NS_PILOT)
        tau = mixing_time_heuristic(observed, g, r=cfg.mixing_r, q=cfg.q, rng=pilot_rng)
        cfg = ChainConfig(tau, cfg.q, cfg.mixing_r)
    return ReferenceDraws(observed, g, reference, n_draws, cfg, seed)


# -- conditional p-values -------------------------------------------------------


@dataclass(eq=False)
class TestResult:
    """Outcome of one conditional test.

    ``null_draws`` holds the defined statistic values on the reference draws
    (undefined ones are dropped and counted in
    ``diagnostics['missing_draws']``), and the add-one p-value always equals
    (1 + #{null_draws >= observed}) / (len(null_draws) + 1).
    """

    statistic: str
    observed: float
    p_value: float
    quantile: float
    reference: str
    n_draws: int
    tau: Optional[int]
    q: Optional[float]
    seed: Optional[int]
    null_draws: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def conditional_p_value(
    d: AdjacencyMatrix,
    g: GroupAssignment,
    stat: TestStatisticSpec,
    reference: str = "degree_and_crosslink",
    n_draws: int = 200,
    cfg: Optional[ChainConfig] = None,
    seed: Optional[int] = None,
    jobs: int = 1,
) -> TestResult:
    """Monte Carlo conditional test of the no-interaction null.

    ``reference`` picks the conditioning: "density_only" redraws the arcs
    uniformly at fixed arc count, "degree_only" fixes both degree sequences,
    "degree_and_crosslink" additionally fixes the cross-group arc counts, and
    "enumerated" replaces sampling with the full reference set (minus the
    observed network), making the add-one p-value the exact conditional tail
    probability.  ``cfg`` is the chain's walk, ``ChainConfig()`` when None;
    with ``cfg.tau`` None the exact trade moves and a cycle pilot set tau
    (see :func:`reference_draws`), and the result reports the tau and q the
    draws used.  Draw b uses the substream (seed, draw-namespace, b), so
    results are independent of ``jobs``.
    """
    statistic = stat.resolve(d, g)
    draws = reference_draws(d, g, reference, n_draws, cfg, seed)
    values, chain_stats = draws.values([statistic], jobs)
    values = values[:, 0]
    observed_value = statistic(d)
    defined = values[~np.isnan(values)]
    missing = int(values.size - defined.size)
    if missing:
        warnings.warn(
            f"{missing} reference draw(s) had an undefined {stat.kind}; "
            "they are excluded from the null distribution",
            stacklevel=2,
        )
    diagnostics = {"missing_draws": missing}
    if draws.cfg is not None:
        diagnostics["acceptance_rate"] = chain_stats.acceptance_rate
        diagnostics["per_arc_modifications"] = (
            chain_stats.per_arc_modifications(d.arc_count()) / draws.n_draws
        )
    else:
        diagnostics["acceptance_rate"] = None
        diagnostics["per_arc_modifications"] = None
    if stat.kind == "transitivity_index":
        diagnostics["statistic_note"] = TI_NOTE
    if math.isnan(observed_value):
        warnings.warn(
            f"the observed {stat.kind} is undefined; p-value is undefined too",
            stacklevel=2,
        )
    quantile = (
        float((defined <= observed_value).mean())
        if defined.size and not math.isnan(observed_value)
        else float("nan")
    )
    return TestResult(
        statistic=stat.kind,
        observed=float(observed_value),
        p_value=add_one_p_value(observed_value, defined),
        quantile=quantile,
        reference=reference,
        n_draws=int(defined.size),
        tau=draws.cfg.tau if draws.cfg else None,
        q=draws.cfg.q if draws.cfg else None,
        seed=seed,
        null_draws=defined,
        diagnostics=diagnostics,
    )


# -- exact randomized critical values ------------------------------------------


def exact_conditional_critical_values(
    d: AdjacencyMatrix,
    g: GroupAssignment,
    stat: TestStatisticSpec,
    alpha: float,
):
    """The randomized rejection rule of exact conditional size alpha, as a
    picklable function of a statistic value x: the tie-randomized tail
    probability P_V[(#{values > x} + V #{values = x}) / N <= alpha], V
    uniform on (0, 1], over the N values of the statistic on the enumerated
    reference set, which are equally likely under the null.  It never
    decreases in x and randomizes at one support value at most.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    statistic = stat.resolve(d, g)
    others, _ = reference_draws(d, g, "enumerated", 0).values([statistic])
    values = np.append(others[:, 0], statistic(d))
    if np.isnan(values).any():
        raise ValueError(
            "statistic is undefined on part of the reference set; "
            "an exact randomized test cannot be built from it"
        )
    return partial(_rejection_probability, values=np.sort(values), alpha=alpha)


def _rejection_probability(x: float, values: np.ndarray, alpha: float) -> float:
    """P_V[(above + V ties) / N <= alpha] with V uniform on (0, 1], above =
    #{values > x} and ties = #{values = x} over the N ``values`` sorted
    ascending: min(1, max(0, (alpha N - above) / ties)) when ties >= 1, and
    1 or 0 as above <= alpha N or not when ties = 0."""
    lo = int(np.searchsorted(values, x, side="left"))
    hi = int(np.searchsorted(values, x, side="right"))
    above, ties = values.size - hi, hi - lo
    budget = alpha * values.size
    if ties:
        return min(1.0, max(0.0, (budget - above) / ties))
    return 1.0 if above <= budget else 0.0
