"""Benchmark inputs drawn from the study design with the benchmark's own code.

The design gives each node one of eight equally likely types: a sender level
and a receiver level of +/-1.1 and one of two groups.  Arc i -> j forms
independently with probability F(sender_i + receiver_j - 2.2 * [groups
differ]).  The package's simulator is deliberately not used, so a change to it
cannot change what the benchmark measures.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

LEVEL = 1.1
CROSS_PENALTY = -2.2


def draw_design_network(n: int, rng: np.random.Generator):
    """One network of the design: (0/1 uint8 array with zero diagonal, groups)."""
    while True:
        types = rng.integers(0, 8, size=n)
        groups = types & 1
        if 0 < groups.sum() < n:
            break
    sender = np.where(types & 4, LEVEL, -LEVEL)
    receiver = np.where(types & 2, LEVEL, -LEVEL)
    mu = sender[:, None] + receiver[None, :]
    mu = mu + CROSS_PENALTY * (groups[:, None] != groups[None, :])
    prob = 1.0 / (1.0 + np.exp(-mu))
    arcs = (rng.random((n, n)) < prob).astype(np.uint8)
    np.fill_diagonal(arcs, 0)
    return arcs, groups.astype(np.int64)


def network_for(n: int, seed: int, index: int, fit_exists):
    """Network ``index`` of the workload seeded by ``seed``.

    Networks are redrawn from the same stream until ``fit_exists(arcs,
    groups)`` holds, so the result depends on (n, seed, index) alone.
    """
    rng = np.random.default_rng([seed, n, index])
    while True:
        arcs, groups = draw_design_network(n, rng)
        if fit_exists(arcs, groups):
            return arcs, groups


def write_network(directory: Path, arcs: np.ndarray, groups: np.ndarray):
    """Write ``edges.csv`` and ``nodes.csv``; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    edges = directory / "edges.csv"
    nodes = directory / "nodes.csv"
    with open(edges, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "target"])
        writer.writerows(zip(*np.nonzero(arcs)))
    with open(nodes, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "group"])
        writer.writerows(enumerate(groups.tolist()))
    return edges, nodes


def read_network(edges: Path, nodes: Path):
    """Parse the two CSV files back into (arcs, groups), independently of the package."""
    with open(nodes, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    groups = np.array([int(g) for _, g in rows], dtype=np.int64)
    arcs = np.zeros((groups.size, groups.size), dtype=np.uint8)
    with open(edges, newline="") as fh:
        for i, j in list(csv.reader(fh))[1:]:
            arcs[int(i), int(j)] = 1
    return arcs, groups
