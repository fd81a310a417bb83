"""Monte Carlo size/power experiments for the conditional tests.

The study design draws each agent's (sender effect, receiver effect, group)
independently and uniformly from eight support points
{-1.1, 1.1} x {-1.1, 1.1} x {0, 1}, with group mixing penalties
lambda = [[0, -2.2], [-2.2, 0]].  That calibration produces networks with
marked degree heterogeneity and homophily: expected density about 0.34 at any
n, and a cross-node in-degree standard deviation around 4.1 at n = 24 (about
8.0 at n = 48, since the type-driven spread of expected degrees grows with n).

A replication simulates an observed network at a given interaction strength
gamma (the null simulator when gamma = 0, otherwise the least-equilibrium
simulator), fits the null MLE, draws one batch of reference networks, and
evaluates every requested statistic on the same draws.  Replications whose
MLE separates (or whose sampler freezes) are recorded as failures and
excluded from the rejection rates, with counts reported.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

import numpy as np

from ._rng import seed_sequence, substream_generator
from .graphs import AdjacencyMatrix, GroupAssignment
from .model import (
    NuisanceParams,
    SeparationError,
    logistic_cdf,
    mle_null,
    simulate_alternative,
    simulate_null,
    strategic_spec,
)
from .sampler import FrozenChainError
from .testing import Statistic, add_one_p_value, reference_draws

__all__ = [
    "CalibrationRow",
    "ExperimentConfig",
    "PowerRow",
    "PowerTable",
    "run_experiment",
    "study_population",
    "table1_calibration",
    "STUDY_MIXING",
]

#: Group-pair utility penalties of the study design (diagonal 0, off -2.2).
STUDY_MIXING = np.array([[0.0, -2.2], [-2.2, 0.0]])

_EFFECT_LEVELS = (-1.1, 1.1)

# Substream namespaces (sibling keys under the experiment's root seed).
_NS_POPULATION = 10
_NS_SHOCKS = 11
_NS_CHAIN = 12


def study_population(
    n: int, rng: np.random.Generator
) -> tuple[NuisanceParams, GroupAssignment]:
    """Draw agent types for one replication of the study design.

    Each agent independently gets one of the eight equally likely
    (sender, receiver, group) support points.  Redraws in the zero-probability
    limit where one group comes out empty, so the returned assignment always
    has two non-empty groups.
    """
    while True:
        idx = rng.integers(0, 8, size=n)
        groups = idx & 1
        if 0 < groups.sum() < n:
            break
    sender = np.array([_EFFECT_LEVELS[(k >> 2) & 1] for k in idx])
    receiver = np.array([_EFFECT_LEVELS[(k >> 1) & 1] for k in idx])
    delta = NuisanceParams(sender, receiver, STUDY_MIXING)
    return delta, GroupAssignment(tuple(int(x) for x in groups), 2)


@dataclass(frozen=True)
class CalibrationRow:
    """One cell of the study design's link-probability calibration."""

    sender_level: float
    receiver_level: float
    same_group: bool
    utility: float
    link_prob: float


def table1_calibration() -> list[CalibrationRow]:
    """The six distinct link probabilities implied by the study parameters.

    Rows pair high/low sender and receiver effects within and across groups;
    the (low, high) combination is omitted as it duplicates (high, low).
    """
    rows = []
    for same in (True, False):
        for a, b in ((1.1, 1.1), (1.1, -1.1), (-1.1, -1.1)):
            mu = a + b + (0.0 if same else -2.2)
            rows.append(CalibrationRow(a, b, same, mu, float(logistic_cdf(mu))))
    return rows


@dataclass(frozen=True)
class ExperimentConfig:
    """Desk-scale defaults; raise n_reps/n_draws for study-scale runs.

    ``mixing_r`` is the average number of times each arc should be modified
    between reference draws (the power-study protocol uses 1; data analyses
    use 10).  ``statistics`` may contain "locally_best_fitted"
    (nuisance parameters re-estimated per replication),
    "locally_best_true" (the infeasible variant using the generating
    parameters), "transitivity_index", and "reciprocity_index".
    """

    n_nodes: int = 24
    n_reps: int = 200
    n_draws: int = 200
    alpha: float = 0.05
    gammas: tuple[float, ...] = (0.0, 0.13, 0.26)
    strategic: str = "transitivity"
    statistics: tuple[str, ...] = (
        "locally_best_fitted",
        "locally_best_true",
        "transitivity_index",
    )
    reference: str = "degree_and_crosslink"
    mixing_r: float = 1.0
    q: float = 0.5

    def __post_init__(self):
        if self.n_nodes < 3:
            raise ValueError("experiments need at least 3 nodes")
        if self.n_reps < 1 or self.n_draws < 1:
            raise ValueError("n_reps and n_draws must be positive")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if any(gamma < 0 for gamma in self.gammas):
            raise ValueError("gammas must be non-negative")
        known = {
            "locally_best_fitted",
            "locally_best_true",
            "transitivity_index",
            "reciprocity_index",
        }
        unknown = set(self.statistics) - known
        if unknown:
            raise ValueError(f"unknown statistics: {sorted(unknown)}")


@dataclass(frozen=True)
class PowerRow:
    gamma: float
    statistic: str
    n_used: int
    n_failures: int
    rejections: int
    reject_rate: float
    std_error: float


@dataclass
class PowerTable:
    """Rejection rates by (gamma, statistic), with failure accounting."""

    alpha: float
    n_reps: int
    n_draws: int
    rows: list[PowerRow] = field(default_factory=list)

    def rate(self, gamma: float, statistic: str) -> PowerRow:
        for row in self.rows:
            if row.gamma == gamma and row.statistic == statistic:
                return row
        raise KeyError((gamma, statistic))


def _replication(cfg: ExperimentConfig, seed: int, gamma_index: int, rep: int):
    """One (gamma, replication) cell: statistic name -> rejected at level
    alpha, or None for a failed replication."""
    gamma = cfg.gammas[gamma_index]
    rng_pop = substream_generator(seed, _NS_POPULATION, gamma_index, rep)
    delta_true, g = study_population(cfg.n_nodes, rng_pop)
    rng_shocks = substream_generator(seed, _NS_SHOCKS, gamma_index, rep)
    spec = strategic_spec(cfg.strategic, cfg.n_nodes)
    if gamma == 0.0:
        observed = simulate_null(delta_true, g, rng_shocks)
    else:
        observed = simulate_alternative(delta_true, gamma, spec, g, rng_shocks)

    statistics = []
    try:
        for name in cfg.statistics:
            if name == "locally_best_fitted":
                delta_hat = mle_null(observed, g)
                statistics.append(Statistic.score(cfg.strategic, delta_hat, g))
            elif name == "locally_best_true":
                statistics.append(Statistic.score(cfg.strategic, delta_true, g))
            else:
                statistics.append(Statistic(name))
    except SeparationError:
        return None

    chain_seed = int.from_bytes(
        seed_sequence(seed, _NS_CHAIN, gamma_index, rep).generate_state(4).tobytes(),
        "little",
    )
    try:
        draws = reference_draws(
            observed,
            g,
            cfg.reference,
            cfg.n_draws,
            seed=chain_seed,
            mixing_r=cfg.mixing_r,
            q=cfg.q,
        )
        values, _ = draws.values(statistics)
    except FrozenChainError:
        return None
    return {
        name: add_one_p_value(statistic(observed), column) <= cfg.alpha
        for name, statistic, column in zip(cfg.statistics, statistics, values.T)
    }


def run_experiment(cfg: ExperimentConfig, seed: int, jobs: int = 1) -> PowerTable:
    """Run the full grid of (gamma, replication) cells and tabulate power.

    Every cell derives its own substreams from (seed, namespace, gamma index,
    replication index), so the table is reproducible and independent of
    ``jobs``.
    """
    gamma_indices = [gi for gi in range(len(cfg.gammas)) for _ in range(cfg.n_reps)]
    reps = list(range(cfg.n_reps)) * len(cfg.gammas)
    replicate = partial(_replication, cfg, seed)
    if jobs <= 1:
        outcomes = list(map(replicate, gamma_indices, reps))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(replicate, gamma_indices, reps, chunksize=8))

    table = PowerTable(alpha=cfg.alpha, n_reps=cfg.n_reps, n_draws=cfg.n_draws)
    for gamma_index, gamma in enumerate(cfg.gammas):
        cell = [o for gi, o in zip(gamma_indices, outcomes) if gi == gamma_index]
        failures = sum(1 for o in cell if o is None)
        used = len(cell) - failures
        for name in cfg.statistics:
            rejections = sum(1 for o in cell if o is not None and o[name])
            rate = rejections / used if used else float("nan")
            se = math.sqrt(rate * (1 - rate) / used) if used else float("nan")
            table.rows.append(
                PowerRow(gamma, name, used, failures, rejections, rate, se)
            )
    return table
