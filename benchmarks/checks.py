"""Correctness checks on the benchmark's outputs, computed apart from the program.

Every check recomputes its reference from dense numpy arrays or from a
closed form; none compares against a stored copy of an earlier output.  Each
``check_*`` function returns a list of problems, empty when the check passes.
"""

from __future__ import annotations

import math

import numpy as np

FIT_TOL = 1e-6
STAT_RTOL = 1e-9
P_VALUE_TOL = 1e-12
DENSITY_Z_LIMIT = 4.0
SIZE_QUANTILE = 0.999


def dense_from_rows(rows, n: int) -> np.ndarray:
    """0/1 array from row bitmasks (bit j of rows[i] is the arc i -> j)."""
    nbytes = (n + 7) // 8
    packed = np.frombuffer(
        b"".join(int(r).to_bytes(nbytes, "little") for r in rows), dtype=np.uint8
    )
    return np.unpackbits(packed.reshape(n, nbytes), axis=1, bitorder="little")[:, :n]


def link_probabilities(sender, receiver, mixing, groups) -> np.ndarray:
    """Null-model arc probabilities F(sender_i + receiver_j + mixing[g_i, g_j]), zero diagonal."""
    sender = np.asarray(sender, dtype=float)
    receiver = np.asarray(receiver, dtype=float)
    mixing = np.asarray(mixing, dtype=float)
    mu = sender[:, None] + receiver[None, :] + mixing[groups[:, None], groups[None, :]]
    prob = 1.0 / (1.0 + np.exp(-mu))
    np.fill_diagonal(prob, 0.0)
    return prob


def group_counts(x: np.ndarray, groups: np.ndarray, n_groups: int = 2) -> np.ndarray:
    """K x K sums of ``x`` over (source group, target group) blocks."""
    z = np.zeros((groups.size, n_groups))
    z[np.arange(groups.size), groups] = 1.0
    return z.T @ x @ z


def check_fit(arcs: np.ndarray, groups: np.ndarray, prob: np.ndarray) -> list[str]:
    """Fitted probabilities reproduce out-degrees, in-degrees and group counts."""
    a = arcs.astype(float)
    problems = []
    for name, observed, expected in (
        ("out-degree", a.sum(axis=1), prob.sum(axis=1)),
        ("in-degree", a.sum(axis=0), prob.sum(axis=0)),
        ("cross-group count", group_counts(a, groups), group_counts(prob, groups)),
    ):
        gap = float(np.abs(observed - expected).max())
        if not gap <= FIT_TOL:
            problems.append(f"fitted {name}s miss the observed ones by {gap:.3g}")
    return problems


def locally_best_transitivity(arcs: np.ndarray, prob: np.ndarray) -> float:
    """sum over i != j of (d_ij - P_ij) (A^2)_ij, with exact float64 counts."""
    a = arcs.astype(float)
    resid = a - prob
    np.fill_diagonal(resid, 0.0)
    return float((resid * (a @ a)).sum())


def check_observed(value: float, arcs: np.ndarray, prob: np.ndarray) -> list[str]:
    expected = locally_best_transitivity(arcs, prob)
    if not abs(value - expected) <= STAT_RTOL * max(1.0, abs(expected)):
        return [f"observed statistic {value!r} differs from the recomputed {expected!r}"]
    return []


def check_p_value(p_value: float, observed: float, null_draws, n_draws: int) -> list[str]:
    """All draws came back and p = (1 + #{null >= observed}) / (B + 1)."""
    draws = np.asarray(null_draws, dtype=float)
    problems = []
    if draws.size != n_draws or np.isnan(draws).any():
        problems.append(f"{draws.size} defined draws came back of {n_draws}")
    expected = (1 + int((draws >= observed).sum())) / (draws.size + 1)
    if not abs(p_value - expected) <= P_VALUE_TOL:
        problems.append(f"p-value {p_value!r}, expected {expected!r}")
    return problems


def conditioning_statistics(arcs: np.ndarray, groups: np.ndarray):
    """(out-degrees, in-degrees, group counts, diagonal) of a 0/1 array."""
    a = arcs.astype(np.int64)
    return a.sum(axis=1), a.sum(axis=0), group_counts(a, groups), np.diag(a)


def check_draw(observed: np.ndarray, draw: np.ndarray, groups: np.ndarray) -> list[str]:
    """A chain draw keeps every conditioning statistic and has no self-loops."""
    problems = []
    obs = conditioning_statistics(observed, groups)
    got = conditioning_statistics(draw, groups)
    for name, o, g in zip(("out-degrees", "in-degrees", "group counts"), obs, got):
        if not np.array_equal(o, g):
            problems.append(f"draw changed the {name}")
    if got[3].any():
        problems.append("draw has a self-loop")
    if not np.isin(draw, (0, 1)).all():
        problems.append("draw has an entry other than 0 or 1")
    return problems


def density_null_mean(n: int, n_arcs: int, prob: np.ndarray) -> float:
    """Exact mean of the locally best transitivity statistic over all networks
    with ``n_arcs`` arcs, each equally likely (the density-only reference set).

    With M = n(n-1) positions and L arcs, a directed two-path i -> k -> j
    closed by i -> j occupies three distinct positions and an open one two.
    """
    M = n * (n - 1)
    L = n_arcs
    closed = M * L * (L - 1) * (L - 2) / (M * (M - 1) * (M - 2))
    two_path = L * (L - 1) / (M * (M - 1))
    off = ~np.eye(n, dtype=bool)
    return (n - 2) * (closed - two_path * float(prob[off].sum()))


def density_z(samples) -> float:
    """Pooled z of draw means against their exact means.

    ``samples`` holds (null draws, exact mean) pairs, one per network; the
    Monte Carlo standard error comes from each network's sample variance.
    """
    gap = var = 0.0
    for draws, exact in samples:
        draws = np.asarray(draws, dtype=float)
        gap += draws.mean() - exact
        var += draws.var(ddof=1) / draws.size
    return gap / math.sqrt(var)


def check_density_mean(samples) -> list[str]:
    z = density_z(samples)
    if not abs(z) <= DENSITY_Z_LIMIT:
        return [f"density draws' mean is {z:+.2f} standard errors from the exact mean"]
    return []


def binomial_quantile(q: float, n: int, p: float) -> int:
    """Smallest k with P(Binomial(n, p) <= k) >= q."""
    total = 0.0
    for k in range(n + 1):
        total += math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
        if total >= q:
            return k
    return n


def check_power_rows(rows, attempted_per_gamma: int) -> list[str]:
    """Row bookkeeping of one power table (rows as dicts of PowerRow fields)."""
    problems = []
    for row in rows:
        if row["n_used"] + row["n_failures"] != attempted_per_gamma:
            problems.append(
                f"gamma {row['gamma']} {row['statistic']}: used {row['n_used']} + "
                f"excluded {row['n_failures']} != attempted {attempted_per_gamma}"
            )
        if not 0 <= row["rejections"] <= row["n_used"]:
            problems.append(
                f"gamma {row['gamma']} {row['statistic']}: {row['rejections']} "
                f"rejections of {row['n_used']} used"
            )
    return problems


def check_size(rejections: int, used: int, alpha: float) -> list[str]:
    """At gamma = 0 a valid test rejects at most alpha of the time."""
    limit = binomial_quantile(SIZE_QUANTILE, used, alpha)
    if rejections > limit:
        return [f"{rejections} null rejections of {used} exceed the bound {limit}"]
    return []
