"""Chain time per integrated autocorrelation time (IAT) by trade share q.

    python3 tools/ess_by_q.py [--seed 1]

For every network below and every q in ``QS``, one chain of ``STEPS`` =
40000 steps of ``markov_step`` (20000 at n = 192; after a tenth as many
steps of burn-in, seeded ``random.Random(--seed)``) starts at the network,
and every ``THIN`` = 2 steps each statistic is evaluated on the current
draw.  The chains of one network take turns, ``THIN`` steps each, so that
load from other processes falls on every q alike.  The IAT of each series,
in chain steps, is ``THIN``
times Geyer's initial monotone sequence estimate
(``benchmarks/spans.integrated_autocorrelation_time``).  Only the chain steps
are timed, so "ms/IAT" is the chain time one IAT of that statistic costs, and
1 / (ms/IAT) its effective sample size per millisecond of chain.  tau is the
median over ``PILOTS`` = 8 pilot-tuned walk lengths (``mixing_time_heuristic``
seeded 0, 1, ...) at r = 1 and r = 10, and "IATs/draw" is tau over the IAT.

Networks:
  design24, ..., design192      the benchmark's design at n = 24, 48, 96, 192,
                                ``benchmarks/inputs.draw_design_network(n,
                                rng)`` with rng ``default_rng([7, n])``;
  sparse24, sparse48            two alternating groups, arcs independent with
                                probability 5/n within a group and 1/n across
                                (about 3 out-arcs per node), from
                                ``default_rng([11, n])``;
  fittable12                    the 12-node ``fittable_network`` of the tests;
  nested24                      24 nodes of one group whose sender and
                                receiver effects both rise from -3.5 to 3.5 with
                                the node index, so arcs run mostly from the
                                top-ranked nodes to each other (near-nested),
                                from ``default_rng([13, 24])``.
Each network is redrawn from its stream until its null fit exists.
Statistics: the reciprocity index, the transitivity index (ti), the locally
best score of each of the three interaction terms under the fitted null, and,
as a canary, the count of directed 3-cycles, which only cycle switches can
reverse.

The last lines compare every q with q = 0.5: for each network and statistic,
the ratio of its ms/IAT to q = 0.5's, and how many of them are at most 1.
It imports the package from the checkout's ``src/``, and its helpers from
``benchmarks/`` and ``tests/``; it takes about a quarter of an hour on a
shared core, most of it at n = 192.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(ROOT / "tests")]

import netformtest as nt  # noqa: E402
from _fixtures import fittable_network  # noqa: E402
from inputs import draw_design_network  # noqa: E402
from netformtest.graphs import reciprocity_index, transitivity_index  # noqa: E402
from spans import integrated_autocorrelation_time  # noqa: E402

STATISTICS = (
    "reciprocity_index",
    "ti",
    "lb_reciprocity",
    "lb_transitivity",
    "lb_customer-product",
    "3-cycles (canary)",
)
QS = (0.5, 0.65, 0.8, 0.9)
BASE_Q = QS[0]
STEPS = 40000
THIN = 2
PILOTS = 8


def _first_fitted(rng: np.random.Generator, draw):
    """The first ``draw(rng)`` = (arcs, codes) whose null fit exists, as
    (network, grouping)."""
    while True:
        arcs, codes = draw(rng)
        d = nt.AdjacencyMatrix.from_dense(arcs)
        g = nt.GroupAssignment(tuple(int(c) for c in codes), int(max(codes)) + 1)
        try:
            nt.mle_null(d, g)
        except nt.SeparationError:
            continue
        return d, g


def _design(n: int):
    return _first_fitted(np.random.default_rng([7, n]), lambda rng: draw_design_network(n, rng))


def _independent_arcs(rng: np.random.Generator, prob: np.ndarray) -> np.ndarray:
    arcs = (rng.random(prob.shape) < prob).astype(np.uint8)
    np.fill_diagonal(arcs, 0)
    return arcs


def _sparse(n: int):
    codes = np.arange(n) % 2
    prob = np.where(codes[:, None] == codes[None, :], 5.0 / n, 1.0 / n)
    return _first_fitted(
        np.random.default_rng([11, n]), lambda rng: (_independent_arcs(rng, prob), codes)
    )


def _nested(n: int):
    effect = np.linspace(-3.5, 3.5, n)
    prob = 1.0 / (1.0 + np.exp(-(effect[:, None] + effect[None, :])))
    codes = np.zeros(n, dtype=int)
    return _first_fitted(
        np.random.default_rng([13, n]), lambda rng: (_independent_arcs(rng, prob), codes)
    )


# name: (network builder, measured chain steps per q)
NETWORKS = {
    "design24": (lambda: _design(24), STEPS),
    "design48": (lambda: _design(48), STEPS),
    "design96": (lambda: _design(96), STEPS),
    "design192": (lambda: _design(192), STEPS // 2),
    "sparse24": (lambda: _sparse(24), STEPS),
    "sparse48": (lambda: _sparse(48), STEPS),
    "fittable12": (fittable_network, STEPS),
    "nested24": (lambda: _nested(24), STEPS),
}


def _directed_three_cycles(a: np.ndarray) -> float:
    f = a.astype(np.float64)
    return float(np.trace(f @ f @ f)) / 3.0


def statistic_functions(d, g):
    """The measured statistics of a network, in ``STATISTICS`` order."""
    delta = nt.mle_null(d, g)
    scores = [
        nt.score_statistic(nt.strategic_spec(kind), delta, g)
        for kind in ("reciprocity", "transitivity", "customer_product")
    ]
    return [reciprocity_index, transitivity_index, *scores, _directed_three_cycles]


def measure(d, g, steps: int, seed: int) -> list[dict]:
    """Per q: the IAT of each statistic, chain time per step and pilot-tuned taus.

    The chains of all q take turns of ``THIN`` steps, so that load from other
    processes falls on every q alike.
    """
    fns = statistic_functions(d, g)
    chains = [(nt.ChainConfig(None, q), random.Random(seed), d.copy()) for q in QS]
    for cfg, rng, x in chains:
        for _ in range(steps // 10):
            nt.markov_step(x, g, cfg, rng)
    series = [[[] for _ in fns] for _ in QS]
    chain_s = [0.0] * len(QS)
    for _ in range(steps // THIN):
        for k, (cfg, rng, x) in enumerate(chains):
            start = time.perf_counter()
            for _ in range(THIN):
                nt.markov_step(x, g, cfg, rng)
            chain_s[k] += time.perf_counter() - start
            a = np.asarray(x)
            for values, fn in zip(series[k], fns):
                values.append(fn(a))
    return [
        {
            "us_per_step": 1e6 * chain_s[k] / (THIN * (steps // THIN)),
            "iat": [THIN * integrated_autocorrelation_time(v) for v in series[k]],
            "tau": {
                r: statistics.median(
                    nt.mixing_time_heuristic(d, g, r=r, q=q, rng=random.Random(s))
                    for s in range(PILOTS)
                )
                for r in (1.0, 10.0)
            },
        }
        for k, q in enumerate(QS)
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1, help="seed of every measured chain")
    args = p.parse_args(argv)

    print(
        "| network | n | arcs | q | statistic | IAT (steps) | tau r=1 | tau r=10 "
        "| IATs/draw r=1 | IATs/draw r=10 | µs/step | ms/IAT |"
    )
    print("|---|---|---|---|---|---|---|---|---|---|---|---|")
    cost = {}
    for name, (build, steps) in NETWORKS.items():
        d, g = build()
        for q, m in zip(QS, measure(d, g, steps, args.seed)):
            for stat, iat in zip(STATISTICS, m["iat"]):
                cost[name, q, stat] = m["us_per_step"] * iat / 1000.0
                print(
                    f"| {name} | {d.n} | {d.arc_count()} | {q:g} | {stat} | {iat:.1f} "
                    f"| {m['tau'][1.0]:g} | {m['tau'][10.0]:g} | {m['tau'][1.0] / iat:.2f} "
                    f"| {m['tau'][10.0] / iat:.2f} | {m['us_per_step']:.1f} "
                    f"| {cost[name, q, stat]:.3f} |",
                    flush=True,
                )
    print()
    for q in QS[1:]:
        ratios = {
            (name, stat): cost[name, q, stat] / cost[name, BASE_Q, stat]
            for name in NETWORKS
            for stat in STATISTICS
        }
        for canary in (False, True):
            kept = {k: v for k, v in ratios.items() if canary or not k[1].endswith("(canary)")}
            worst = max(kept, key=kept.get)
            print(
                f"q = {q:g} against {BASE_Q:g}{' (canary included)' if canary else ''}: "
                f"ms/IAT no higher in {sum(v <= 1.0 for v in kept.values())} of {len(kept)}; "
                f"median ratio {statistics.median(kept.values()):.2f}, "
                f"highest {kept[worst]:.2f} ({worst[0]}, {worst[1]})"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
