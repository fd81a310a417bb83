"""Conditional tests for strategic interaction in network formation.

Conditioning on every node's out-degree, in-degree, and the cross-group arc
counts makes all networks in the induced reference set equally likely under
the dyad-independent null, whatever the nuisance parameters.  The tests here
compare an observed statistic against its distribution over that reference
set — enumerated exactly for tiny networks, sampled by the switching chain
otherwise — with the add-one Monte Carlo p-value
p = (1 + #{draws >= observed}) / (#draws + 1).

The locally best statistic against interaction strength gamma > 0 is
sum over i != j of (d_ij - F(mu_ij)) * s_ij(d).  ``theorem2_derivative``
computes the same quantity along the longer route — the derivative of the
equilibrium likelihood at gamma = 0, split into the boundary-bucket and
single-interior-bucket shock configurations with explicit range bounds — and
exists so the two derivations can be checked against each other numerically.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._rng import substream_random
from .graphs import (
    AdjacencyMatrix,
    GroupAssignment,
    cross_link_matrix,
    degree_sequence,
    reciprocity_index,
    transitivity_index,
)
from .model import (
    NuisanceParams,
    StrategicSpec,
    logistic_cdf,
    mle_null,
    strategic_spec,
    systematic_utility,
)
from .sampler import (
    ChainConfig,
    ChainStats,
    enumerate_reference_set,
    markov_draw,
    mixing_time_heuristic,
)

__all__ = [
    "CriticalValues",
    "TestResult",
    "TestStatisticSpec",
    "conditional_p_value",
    "exact_conditional_critical_values",
    "exact_reciprocity_likelihood",
    "locally_best_statistic",
    "theorem2_derivative",
]

REFERENCES = ("density_only", "degree_only", "degree_and_crosslink", "enumerated")

TI_NOTE = "closed two-path ratio over directed two-paths (i,k,j distinct)"

# Substream namespaces under the root seed.
_NS_DRAW = 0
_NS_PILOT = 1


def locally_best_statistic(
    d: AdjacencyMatrix,
    delta: NuisanceParams,
    spec: StrategicSpec,
    g: GroupAssignment,
) -> float:
    """Score-type statistic: sum over i != j of (d_ij - F(mu_ij)) s_ij(d).

    Large values indicate more arcs than the null predicts exactly where the
    interaction term s makes arcs more attractive.
    """
    return _score(d, _link_probabilities(delta, g), spec.matrix_fn)


def _link_probabilities(delta: NuisanceParams, g: GroupAssignment) -> np.ndarray:
    """Null arc probabilities F(mu_ij); the unused diagonal holds F(0)."""
    off = ~np.eye(g.n_nodes, dtype=bool)
    return logistic_cdf(np.where(off, systematic_utility(delta, g), 0.0))


def _score(d: AdjacencyMatrix, P: np.ndarray, matrix_fn) -> float:
    """sum over i != j of (d_ij - P_ij) * s_ij(d), with s from ``matrix_fn``."""
    off = ~np.eye(d.n, dtype=bool)
    dense = d.to_array()
    S = matrix_fn(dense)
    return float(((dense - P) * S)[off].sum())


def theorem2_derivative(
    d: AdjacencyMatrix,
    delta: NuisanceParams,
    spec: StrategicSpec,
    g: GroupAssignment,
) -> float:
    """Likelihood derivative in gamma at zero, by the two-case decomposition.

    Write F = F(mu_ij), f = F(1-F) for the logistic CDF/density and let
    [s_lo, s_hi] bound the interaction term's range.  Shock configurations
    with two or more interior buckets contribute at order gamma^2 and drop
    out.  The all-boundary configurations contribute

        sum_{i != j}  d_ij s_lo f/F  -  (1 - d_ij) s_hi f/(1-F)

    and the single-interior-bucket configurations contribute

        sum_{i != j}  d_ij (s_ij - s_lo) f/F  +  (1 - d_ij) (s_hi - s_ij) f/(1-F).

    The range bounds cancel only in the total, which equals the one-line
    form of :func:`locally_best_statistic`; keeping both routes separate is
    deliberate so they can be cross-checked.
    """
    off = ~np.eye(d.n, dtype=bool)
    F = _link_probabilities(delta, g)
    f = F * (1.0 - F)
    dense = d.to_array().astype(float)
    S = spec.matrix_fn(dense).astype(float)
    s_lo = float(spec.s_min)
    s_hi = float(spec.s_max)
    ratio_present = f / F
    ratio_absent = f / (1.0 - F)
    boundary = dense * s_lo * ratio_present - (1.0 - dense) * s_hi * ratio_absent
    one_interior = dense * (S - s_lo) * ratio_present + (1.0 - dense) * (
        s_hi - S
    ) * ratio_absent
    return float(boundary[off].sum() + one_interior[off].sum())


def exact_reciprocity_likelihood(
    d: AdjacencyMatrix,
    g: GroupAssignment,
    delta: NuisanceParams,
    gamma: float,
    selection: str = "uniform_over_NE",
) -> float:
    """Exact network probability under reciprocity interaction, gamma >= 0.

    With s_ij = d_ji the network factorizes over unordered dyads.  Each
    shock u_ij falls into one of three buckets: below mu_ij (i links
    regardless), in (mu_ij, mu_ij + gamma] (i links iff j does), or above
    (never links).  When both shocks of a dyad land in the middle bucket the
    empty and the mutual dyad are both equilibria; the ``uniform_over_NE``
    selection rule picks each with probability 1/2.

    gamma < 0 flips the middle bucket into an anti-coordination region and is
    not supported here.
    """
    if gamma < 0:
        raise ValueError(
            "gamma < 0 makes reciprocity anti-coordinating; "
            "this likelihood only covers gamma >= 0"
        )
    if selection != "uniform_over_NE":
        raise ValueError(f"unknown selection rule {selection!r}")
    mu = systematic_utility(delta, g)
    F0 = logistic_cdf(np.where(np.isnan(mu), 0.0, mu))
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


# -- test statistics -----------------------------------------------------------


@dataclass(frozen=True)
class TestStatisticSpec:
    """Which statistic to compute on observed and reference networks.

    kind: "locally_best", "reciprocity_index", or "transitivity_index".
    ``strategic`` names the interaction term for "locally_best"
    ("reciprocity", "transitivity", "customer_product").  ``delta_source``
    says where its nuisance parameters come from: "fitted" fits the null MLE
    on the observed network once (reference draws reuse it), "provided"
    uses ``delta``.
    """

    kind: str
    strategic: Optional[str] = None
    delta_source: str = "fitted"
    delta: Optional[NuisanceParams] = None

    def __post_init__(self):
        if self.kind not in ("locally_best", "reciprocity_index", "transitivity_index"):
            raise ValueError(f"unknown statistic kind {self.kind!r}")
        if self.kind == "locally_best":
            if self.strategic is None:
                raise ValueError("locally_best needs a strategic term name")
            if self.delta_source not in ("fitted", "provided"):
                raise ValueError("delta_source must be 'fitted' or 'provided'")
            if self.delta_source == "provided" and self.delta is None:
                raise ValueError("delta_source='provided' requires delta")

    def resolve(self, d: AdjacencyMatrix, g: GroupAssignment) -> Statistic:
        """The statistic for the observed network ``d`` (fits the MLE if asked)."""
        if self.kind != "locally_best":
            return Statistic(self.kind)
        delta = self.delta if self.delta_source == "provided" else mle_null(d, g)
        return Statistic.score(self.strategic, delta, g)


@dataclass(frozen=True, eq=False)
class Statistic:
    """A statistic ready to evaluate on the observed network and every draw.

    It pickles, so worker processes evaluate it too.  The locally best score
    keeps the name of its strategic term (a :class:`StrategicSpec` holds
    closures, which do not pickle) and the null link probabilities ``P``,
    computed once from the nuisance parameters.
    """

    kind: str
    strategic: Optional[str] = None
    P: Optional[np.ndarray] = None

    @classmethod
    def score(cls, strategic: str, delta: NuisanceParams, g: GroupAssignment) -> Statistic:
        """The locally best score against ``strategic`` under the null ``delta``."""
        return cls("locally_best", strategic, _link_probabilities(delta, g))

    def __call__(self, d: AdjacencyMatrix) -> float:
        if self.kind == "reciprocity_index":
            return reciprocity_index(d)
        if self.kind == "transitivity_index":
            return transitivity_index(d)
        return _score(d, self.P, strategic_spec(self.strategic, d.n).matrix_fn)


def statistic_note(kind: str) -> Optional[str]:
    """Formula disambiguation attached to the output for ambiguous names."""
    if kind == "transitivity_index":
        return TI_NOTE
    return None


def add_one_p_value(observed: float, values: np.ndarray) -> float:
    """(1 + #{values >= observed}) / (#values + 1) over the defined values.

    Undefined (NaN) values are left out; an undefined observed value gives a
    NaN p-value.
    """
    if math.isnan(observed):
        return float("nan")
    defined = values[~np.isnan(values)]
    return (1 + int((defined >= observed).sum())) / (defined.size + 1)


# -- reference draws -----------------------------------------------------------


def _density_only_draw(n: int, n_arcs: int, rng) -> AdjacencyMatrix:
    """A uniform digraph with ``n_arcs`` arcs: ``rng`` picks that many distinct
    off-diagonal positions, numbered row by row."""
    positions = rng.sample(range(n * (n - 1)), n_arcs)
    i, rem = np.divmod(np.array(positions, dtype=np.intp), n - 1)
    dense = np.zeros((n, n), dtype=np.uint8)
    dense[i, rem + (rem >= i)] = 1
    return AdjacencyMatrix.from_dense(dense)


@dataclass(frozen=True, eq=False)
class ReferenceDraws:
    """Draws 0..n_draws-1 from the reference set of ``observed``.

    Draw b of a sampled reference uses its own substream (seed,
    draw-namespace, b), so any share of the draws can be made in any process
    with the same result.  ``cfg`` is the chain's walk for "degree_only" and
    "degree_and_crosslink", with ``g`` the grouping the chain preserves, and
    None for "density_only".  For "enumerated" the draws are ``members``: the
    whole reference set minus the observed network.  Build it with
    :func:`reference_draws`.
    """

    observed: AdjacencyMatrix
    g: GroupAssignment
    reference: str
    n_draws: int
    cfg: Optional[ChainConfig] = None
    seed: Optional[int] = None
    members: tuple[AdjacencyMatrix, ...] = ()

    def draw(self, b: int, stats: ChainStats) -> AdjacencyMatrix:
        """Draw b; a chain draw adds its step tallies to ``stats``."""
        if self.reference == "enumerated":
            return self.members[b]
        rng = substream_random(self.seed, _NS_DRAW, b)
        if self.cfg is None:
            return _density_only_draw(self.observed.n, self.observed.arc_count(), rng)
        return markov_draw(self.observed, self.g, self.cfg, rng, stats)

    def values(self, statistics, jobs: int = 1) -> tuple[np.ndarray, ChainStats]:
        """Every statistic on every draw, as an (n_draws, len(statistics))
        array in draw order, and the chain's tallies over all draws.

        With ``jobs`` > 1 the sampled draws are split into contiguous chunks,
        one per worker process; neither result depends on ``jobs``.
        """
        per = math.ceil(self.n_draws / jobs) if jobs > 1 else self.n_draws
        if per >= self.n_draws or self.reference == "enumerated":
            rows, stats = self._chunk(statistics, 0, self.n_draws)
        else:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = [
                    pool.submit(self._chunk, statistics, lo, min(lo + per, self.n_draws))
                    for lo in range(0, self.n_draws, per)
                ]
                chunks = [f.result() for f in futures]
            rows = [row for chunk_rows, _ in chunks for row in chunk_rows]
            stats = sum((chunk_stats for _, chunk_stats in chunks), ChainStats())
        return np.array(rows, dtype=float).reshape(-1, len(statistics)), stats

    def _chunk(self, statistics, lo: int, hi: int) -> tuple[list, ChainStats]:
        stats = ChainStats()
        rows = []
        for b in range(lo, hi):
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
    mixing_r: float = 10.0,
    q: float = 0.5,
) -> ReferenceDraws:
    """Check the settings of a reference and make ready its draws.

    "enumerated" enumerates the reference set now; ``n_draws``, ``cfg`` and
    ``seed`` are then ignored.  For the chain references, ``cfg`` None
    pilot-tunes the walk length on the substream (seed, pilot-namespace) so
    that each arc is modified about ``mixing_r`` times per draw, with
    laziness ``q`` in the pilot and in the draws.
    """
    if reference not in REFERENCES:
        raise ValueError(f"unknown reference {reference!r}; choose from {REFERENCES}")
    if reference == "enumerated":
        members = enumerate_reference_set(
            degree_sequence(observed), cross_link_matrix(observed, g), g
        )
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
        pilot_rng = substream_random(seed, _NS_PILOT)
        tau = mixing_time_heuristic(observed, g, r=mixing_r, q=q, rng=pilot_rng)
        cfg = ChainConfig(tau=tau, q=q)
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
    mixing_r: float = 10.0,
    q: float = 0.5,
) -> TestResult:
    """Monte Carlo conditional test of the no-interaction null.

    ``reference`` picks the conditioning: "density_only" redraws the arcs
    uniformly at fixed arc count, "degree_only" fixes both degree sequences,
    "degree_and_crosslink" additionally fixes the cross-group arc counts, and
    "enumerated" replaces sampling with the full reference set (minus the
    observed network), making the add-one p-value the exact conditional tail
    probability.  When ``cfg`` is None the walk length comes from
    :func:`mixing_time_heuristic` on a pilot run tuned to modify each arc
    ``mixing_r`` times per draw, and the pilot and the draws use laziness
    ``q``.  Draw b uses the substream (seed, draw-namespace, b), so results
    are independent of ``jobs``.
    """
    statistic = stat.resolve(d, g)
    draws = reference_draws(d, g, reference, n_draws, cfg, seed, mixing_r, q)
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
    note = statistic_note(stat.kind)
    if note:
        diagnostics["statistic_note"] = note
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


@dataclass(frozen=True)
class CriticalValues:
    """Randomized rejection rule: reject above ``cutoff``, with probability
    ``randomization`` at it, never below.  Built so the conditional rejection
    probability over the enumerated reference set is exactly alpha."""

    cutoff: float
    randomization: float

    def rejection_prob(self, value: float) -> float:
        if value > self.cutoff:
            return 1.0
        if value == self.cutoff:
            return self.randomization
        return 0.0


def exact_conditional_critical_values(
    d: AdjacencyMatrix,
    g: GroupAssignment,
    stat: TestStatisticSpec,
    alpha: float,
) -> CriticalValues:
    """Cutoff and boundary randomization achieving exact conditional size alpha.

    The statistic is evaluated on the full enumerated reference set (uniform
    under the null).  The cutoff is the smallest support value whose strict
    upper tail has probability <= alpha; the boundary randomization then tops
    the rejection probability up to exactly alpha.  alpha = 1 short-circuits
    to (-inf, 0): reject always.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if alpha == 1.0:
        return CriticalValues(float("-inf"), 0.0)
    statistic = stat.resolve(d, g)
    others, _ = reference_draws(d, g, "enumerated", 0).values([statistic])
    values = np.append(others[:, 0], statistic(d))
    if np.isnan(values).any():
        raise ValueError(
            "statistic is undefined on part of the reference set; "
            "an exact randomized test cannot be built from it"
        )
    total = values.size
    support = np.unique(values)[::-1]  # descending
    tail = 0  # count strictly above the current candidate
    for v in support:
        count_v = int((values == v).sum())
        if tail + count_v > alpha * total:
            # strict tail above v is fine, adding the atom at v overshoots
            randomization = (alpha - tail / total) / (count_v / total)
            return CriticalValues(float(v), float(randomization))
        tail += count_v
    # alpha >= 1 handled above; reaching here means alpha * total >= total
    return CriticalValues(float(support[-1]), 1.0)
