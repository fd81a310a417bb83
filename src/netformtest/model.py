"""Dyad-level link formation model: null structure, MLE, and simulation.

Under the null, agent i extends an arc to agent j when the systematic utility
mu_ij = a_i + b_j + lambda[g(i), g(j)] exceeds an iid logistic shock u_ij, so
arcs are independent with P(i -> j) = F(mu_ij).  Under the alternative the
payoff gains an interaction term gamma * s_ij(d) through which other agents'
arcs matter, and an observed network must be a pure-strategy equilibrium:
d_ij = 1{mu_ij + gamma * s_ij(d) >= u_ij} for every ordered pair.  For
gamma >= 0 and arc-monotone s the equilibria form a lattice; iterating the
best-response map from the empty network reaches its least element.

The systematic-utility matrix carries NaN on the diagonal: self-links do not
exist, and NaN poisons any computation that forgets to mask them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .graphs import AdjacencyMatrix, GroupAssignment

__all__ = [
    "GammaParam",
    "NuisanceParams",
    "SeparationError",
    "StrategicSpec",
    "UtilityShockMatrix",
    "draw_logistic_shocks",
    "is_equilibrium",
    "logistic_cdf",
    "logistic_pdf",
    "mle_null",
    "null_log_likelihood",
    "reciprocity_spec",
    "simulate_alternative",
    "simulate_null",
    "strategic_spec",
    "strategic_term",
    "systematic_utility",
    "transitivity_spec",
    "customer_product_spec",
]

#: Interaction strength; plain float (the model is one-dimensional in it).
GammaParam = float

#: n x n matrix of iid logistic payoff shocks (diagonal unused).
UtilityShockMatrix = np.ndarray


class SeparationError(RuntimeError):
    """The null MLE diverged (perfect separation or unidentified direction)."""


def logistic_cdf(x):
    """Standard logistic CDF, overflow-safe for large |x|."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    neg = ~pos
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[neg])
    out[neg] = ex / (1.0 + ex)
    return out


def logistic_pdf(x):
    """Standard logistic density f(x) = F(x) (1 - F(x))."""
    F = logistic_cdf(x)
    return F * (1.0 - F)


@dataclass(frozen=True, eq=False)
class NuisanceParams:
    """Null-model parameters: per-sender and per-receiver effects plus the
    group-pair mixing matrix.

    The likelihood only depends on these through mu, which is invariant to
    shifting a whole group's sender (or receiver) effects into the mixing
    matrix; fitted parameters are reported in the normalization
    lambda[0, :] = lambda[:, 0] = 0 and mean(receiver) = 0.
    """

    sender: np.ndarray
    receiver: np.ndarray
    mixing: np.ndarray

    def __post_init__(self):
        sender = np.asarray(self.sender, dtype=float)
        receiver = np.asarray(self.receiver, dtype=float)
        mixing = np.asarray(self.mixing, dtype=float)
        if sender.ndim != 1 or receiver.shape != sender.shape:
            raise ValueError("sender and receiver effects must be equal-length vectors")
        if mixing.ndim != 2 or mixing.shape[0] != mixing.shape[1]:
            raise ValueError("mixing matrix must be square")
        object.__setattr__(self, "sender", sender)
        object.__setattr__(self, "receiver", receiver)
        object.__setattr__(self, "mixing", mixing)

    @property
    def n_nodes(self) -> int:
        return self.sender.shape[0]

    @property
    def n_groups(self) -> int:
        return self.mixing.shape[0]


def systematic_utility(delta: NuisanceParams, g: GroupAssignment) -> np.ndarray:
    """mu_ij = sender_i + receiver_j + mixing[g(i), g(j)], NaN diagonal."""
    if delta.n_nodes != g.n_nodes:
        raise ValueError("parameter length does not match node count")
    if delta.n_groups != g.n_groups:
        raise ValueError("mixing matrix does not match group count")
    codes = np.asarray(g.codes)
    mu = (
        delta.sender[:, None]
        + delta.receiver[None, :]
        + delta.mixing[codes[:, None], codes[None, :]]
    )
    np.fill_diagonal(mu, np.nan)
    return mu


# -- strategic interaction specifications -----------------------------------


@dataclass(frozen=True)
class StrategicSpec:
    """How other agents' arcs enter i's payoff from the arc i -> j.

    ``pair_fn(d, i, j)`` evaluates s_ij on an AdjacencyMatrix;
    ``matrix_fn(a)`` evaluates the whole matrix of s values from a dense 0/1
    array (diagonal meaningless).  Both exclude the own arc d_ij — the
    exclusion restriction: s_ij(d) never depends on d_ij itself.  ``s_min``
    and ``s_max`` bound the attainable values; ``monotone`` says whether s is
    non-decreasing in every other arc, which is what guarantees existence of
    a least equilibrium under gamma >= 0.

    The values of ``matrix_fn`` are integers, but not always of an integer
    dtype: transitivity returns float64 so that its matrix product runs in
    BLAS, and that is exact while the counts stay below 2**53.
    """

    kind: str
    pair_fn: Callable[[AdjacencyMatrix, int, int], int]
    matrix_fn: Callable[[np.ndarray], np.ndarray]
    s_min: int
    s_max: int
    monotone: bool = True


def reciprocity_spec() -> StrategicSpec:
    """s_ij = d_ji: the value of i -> j rises when j links back."""

    def pair(d, i, j):
        return int(d.has_arc(j, i))

    def matrix(a):
        return a.T.astype(np.int64)

    return StrategicSpec("reciprocity", pair, matrix, 0, 1)


def transitivity_spec(n: int) -> StrategicSpec:
    """s_ij = #{k : i -> k -> j}: arcs to j's endorsers make i -> j cheaper."""

    def pair(d, i, j):
        return (d.rows[i] & d.cols[j]).bit_count()

    def matrix(a):
        a = a.astype(np.float64)
        return a @ a

    return StrategicSpec("transitivity", pair, matrix, 0, max(0, n - 2))


def customer_product_spec(n: int) -> StrategicSpec:
    """s_ij = (out-degree of i excluding j) * (out-degree of j)."""

    def pair(d, i, j):
        out_i = d.rows[i].bit_count() - int(d.has_arc(i, j))
        return out_i * d.rows[j].bit_count()

    def matrix(a):
        a = a.astype(np.int64)
        out = a.sum(axis=1)
        return (out[:, None] - a) * out[None, :]

    return StrategicSpec("customer_product", pair, matrix, 0, max(0, (n - 2) * (n - 1)))


_SPEC_BUILDERS = {
    "reciprocity": lambda n: reciprocity_spec(),
    "transitivity": transitivity_spec,
    "customer_product": customer_product_spec,
}


def strategic_spec(kind: str, n: int) -> StrategicSpec:
    """Look up a built-in specification by name."""
    try:
        builder = _SPEC_BUILDERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown strategic specification {kind!r}; "
            f"choose from {sorted(_SPEC_BUILDERS)}"
        ) from None
    return builder(n)


def strategic_term(d: AdjacencyMatrix, i: int, j: int, spec: StrategicSpec) -> int:
    """Evaluate s_ij(d) for one ordered pair."""
    if i == j:
        raise ValueError("strategic term is defined for distinct nodes only")
    return spec.pair_fn(d, i, j)


# -- null likelihood and MLE -------------------------------------------------


def null_log_likelihood(
    d: AdjacencyMatrix, delta: NuisanceParams, g: GroupAssignment
) -> float:
    """Log-likelihood of independent logistic arcs:
    sum over i != j of d_ij mu_ij - log(1 + exp(mu_ij))."""
    mu = systematic_utility(delta, g)
    a = d.to_array()
    mask = ~np.eye(d.n, dtype=bool)
    mu_off = mu[mask]
    return float((a[mask] * mu_off - np.logaddexp(0.0, mu_off)).sum())


def _null_gradient(a: np.ndarray, P: np.ndarray, Z: np.ndarray):
    """Moment-matching residuals w.r.t. (sender, receiver, mixing.ravel()).

    ``a`` is the dense adjacency array, ``P`` the fitted arc probabilities
    with a zeroed diagonal, ``Z`` the n x K one-hot group matrix.
    """
    resid = a - P
    ga = resid.sum(axis=1)
    gb = resid.sum(axis=0)
    glam = Z.T @ resid @ Z
    return ga, gb, glam


def _free_map(n: int, K: int) -> np.ndarray:
    """Linear map L from free parameters to the full (a, b, lam) layout.

    Free coordinates: all n sender effects, the first n-1 receiver effects
    (the last is minus their sum), and the (K-1) x (K-1) lower-right block of
    the mixing matrix (first row and column pinned at zero).  L has full
    column rank and its column span meets the likelihood's invariance
    directions only at zero, so the free optimum is the unique normalized
    representative of the MLE.
    """
    full_dim = 2 * n + K * K
    free_dim = n + (n - 1) + (K - 1) * (K - 1)
    L = np.zeros((full_dim, free_dim))
    for i in range(n):
        L[i, i] = 1.0
    for j in range(n - 1):
        L[n + j, n + j] = 1.0
        L[n + (n - 1), n + j] = -1.0
    col = 2 * n - 1
    for k in range(1, K):
        for l in range(1, K):
            L[2 * n + k * K + l, col] = 1.0
            col += 1
    return L


def _separation_report(d: AdjacencyMatrix, g: GroupAssignment | None = None) -> str:
    n = d.n
    out_deg = d.out_degrees()
    in_deg = d.in_degrees()
    bits = []
    empty_out = [i for i in range(n) if out_deg[i] == 0]
    full_out = [i for i in range(n) if out_deg[i] == n - 1]
    empty_in = [j for j in range(n) if in_deg[j] == 0]
    full_in = [j for j in range(n) if in_deg[j] == n - 1]
    if empty_out:
        bits.append(f"nodes with no outgoing arcs: {empty_out}")
    if full_out:
        bits.append(f"nodes linking to everyone: {full_out}")
    if empty_in:
        bits.append(f"nodes with no incoming arcs: {empty_in}")
    if full_in:
        bits.append(f"nodes receiving from everyone: {full_in}")
    if g is not None:
        for k, l, m, cap in _block_margins(d, g):
            if cap > 0 and m == 0:
                bits.append(f"no arcs at all from group {k} to group {l}")
            elif cap > 0 and m == cap:
                bits.append(f"every possible arc from group {k} to group {l} present")
    return "; ".join(bits) if bits else "no degenerate margins found"


def _block_margins(d: AdjacencyMatrix, g: GroupAssignment):
    """Yield (k, l, observed arcs, possible arcs) for each group cell."""
    codes = np.asarray(g.codes)
    K = g.n_groups
    sizes = np.bincount(codes, minlength=K)
    a = d.to_array()
    Z = np.zeros((g.n_nodes, K), dtype=np.int64)
    Z[np.arange(g.n_nodes), codes] = 1
    counts = Z.T @ a @ Z
    for k in range(K):
        for l in range(K):
            cap = sizes[k] * sizes[l] - (sizes[k] if k == l else 0)
            yield k, l, int(counts[k, l]), int(cap)


def _margins_on_boundary(d: AdjacencyMatrix, g: GroupAssignment) -> bool:
    """True when a sufficient statistic sits at an extreme achievable value.

    Out-degrees, in-degrees, and group-cell arc counts are the sufficient
    statistics; the MLE exists only when each is strictly between its
    bounds (a degree of 0 or n-1, or an empty/saturated group cell, pushes
    the corresponding parameter to infinity).
    """
    n = d.n
    if any(deg in (0, n - 1) for deg in d.out_degrees()):
        return True
    if any(deg in (0, n - 1) for deg in d.in_degrees()):
        return True
    return any(cap > 0 and m in (0, cap) for _, _, m, cap in _block_margins(d, g))


def mle_null(
    d: AdjacencyMatrix,
    g: GroupAssignment,
    *,
    tol: float = 1e-8,
    max_iter: int = 200,
    param_bound: float = 40.0,
) -> NuisanceParams:
    """Maximum-likelihood nuisance parameters under the null.

    Damped Newton ascent in the normalized free parameterization (see
    :func:`_free_map`), with analytic gradient and Hessian.  At the optimum
    the fitted model reproduces the observed out-degrees, in-degrees, and
    cross-group arc counts exactly — those are the gradient components.

    Raises :class:`SeparationError` when a parameter runs away (perfect
    separation, e.g. a node with empty or full degree) or the ascent fails
    to converge.
    """
    n = d.n
    K = g.n_groups
    if g.n_nodes != n:
        raise ValueError("group assignment does not match node count")
    if _margins_on_boundary(d, g):
        raise SeparationError(
            "null MLE does not exist (a sufficient statistic is at its "
            "extreme): " + _separation_report(d, g)
        )
    a = d.to_array().astype(float)
    codes = np.asarray(g.codes)
    Z = np.zeros((n, K))
    Z[np.arange(n), codes] = 1.0
    L = _free_map(n, K)
    offdiag = ~np.eye(n, dtype=bool)

    def unpack(x: np.ndarray) -> NuisanceParams:
        sender = x[:n]
        receiver = np.append(x[n : 2 * n - 1], -x[n : 2 * n - 1].sum())
        mixing = np.zeros((K, K))
        if K > 1:
            mixing[1:, 1:] = x[2 * n - 1 :].reshape(K - 1, K - 1)
        return NuisanceParams(sender, receiver, mixing)

    def loglik_and_parts(x: np.ndarray):
        delta = unpack(x)
        mu = systematic_utility(delta, g)
        mu_fin = np.where(offdiag, mu, 0.0)
        P = logistic_cdf(mu_fin)
        P[~offdiag] = 0.0
        ll = float((a[offdiag] * mu_fin[offdiag] - np.logaddexp(0.0, mu_fin[offdiag])).sum())
        return delta, P, ll

    x = np.zeros(n + (n - 1) + (K - 1) * (K - 1))
    delta, P, ll = loglik_and_parts(x)
    for _ in range(max_iter):
        ga, gb, glam = _null_gradient(a, P, Z)
        g_full = np.concatenate([ga, gb, glam.ravel()])
        g_free = L.T @ g_full
        if np.abs(g_free).max() < tol:
            mu = systematic_utility(delta, g)
            if np.nanmax(np.abs(mu)) > 30.0:
                raise SeparationError(
                    "null MLE stalled with saturated link probabilities; "
                    "likely perfect separation: " + _separation_report(d, g)
                )
            return delta
        W = P * (1.0 - P)
        WZ = W @ Z
        ZTW = Z.T @ W
        full_dim = 2 * n + K * K
        info = np.zeros((full_dim, full_dim))
        info[:n, :n] = np.diag(W.sum(axis=1))
        info[n : 2 * n, n : 2 * n] = np.diag(W.sum(axis=0))
        info[:n, n : 2 * n] = W
        info[n : 2 * n, :n] = W.T
        ialam = np.einsum("ik,il->ikl", Z, WZ).reshape(n, K * K)
        iblam = np.einsum("kj,jl->jkl", ZTW, Z).reshape(n, K * K)
        info[:n, 2 * n :] = ialam
        info[2 * n :, :n] = ialam.T
        info[n : 2 * n, 2 * n :] = iblam
        info[2 * n :, n : 2 * n] = iblam.T
        info[2 * n :, 2 * n :] = np.diag((Z.T @ W @ Z).ravel())
        info_free = L.T @ info @ L
        try:
            step = np.linalg.solve(info_free, g_free)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(info_free, g_free, rcond=None)[0]
        scale = 1.0
        for _ in range(40):
            x_new = x + scale * step
            delta_new, P_new, ll_new = loglik_and_parts(x_new)
            if np.isfinite(ll_new) and ll_new >= ll - 1e-12:
                break
            scale *= 0.5
        else:
            raise SeparationError(
                "null MLE line search failed to improve the likelihood; "
                + _separation_report(d, g)
            )
        x, delta, P, ll = x_new, delta_new, P_new, ll_new
        worst = max(
            np.abs(delta.sender).max(),
            np.abs(delta.receiver).max(),
            np.abs(delta.mixing).max(),
        )
        if worst > param_bound:
            raise SeparationError(
                f"null MLE diverged (|parameter| > {param_bound:g}); "
                "likely perfect separation: " + _separation_report(d, g)
            )
    raise SeparationError(
        f"null MLE did not converge in {max_iter} iterations; "
        + _separation_report(d, g)
    )


# -- simulation ---------------------------------------------------------------


def draw_logistic_shocks(rng: np.random.Generator, n: int) -> UtilityShockMatrix:
    """An n x n matrix of iid standard-logistic shocks (diagonal unused)."""
    return rng.logistic(size=(n, n))


def simulate_null(
    delta: NuisanceParams,
    g: GroupAssignment,
    rng: Optional[np.random.Generator] = None,
    shocks: Optional[UtilityShockMatrix] = None,
) -> AdjacencyMatrix:
    """Draw a network of independent arcs: d_ij = 1{mu_ij >= u_ij}."""
    mu = systematic_utility(delta, g)
    if shocks is None:
        if rng is None:
            raise ValueError("need an rng when shocks are not supplied")
        shocks = draw_logistic_shocks(rng, g.n_nodes)
    dense = (mu >= shocks).astype(np.uint8)  # NaN diagonal compares False
    return AdjacencyMatrix.from_dense(dense)


def simulate_alternative(
    delta: NuisanceParams,
    gamma: GammaParam,
    spec: StrategicSpec,
    g: GroupAssignment,
    rng: Optional[np.random.Generator] = None,
    shocks: Optional[UtilityShockMatrix] = None,
) -> AdjacencyMatrix:
    """Draw an equilibrium network under interaction strength ``gamma``.

    Shocks are drawn once; the best-response map
    d -> 1{mu + gamma * s(d) >= u} is then iterated from the empty network.
    For gamma >= 0 and a monotone spec the iteration climbs to the least
    equilibrium in at most n(n-1)+1 sweeps.  Otherwise the iteration is
    attempted anyway and a revisited non-fixed state raises ValueError: no
    monotone structure, so a pure-strategy equilibrium is not guaranteed.

    With gamma = 0 and the same shocks this reproduces
    :func:`simulate_null` exactly.
    """
    n = g.n_nodes
    mu = systematic_utility(delta, g)
    if shocks is None:
        if rng is None:
            raise ValueError("need an rng when shocks are not supplied")
        shocks = draw_logistic_shocks(rng, n)
    dense = np.zeros((n, n), dtype=np.uint8)
    monotone = gamma >= 0 and spec.monotone
    seen = {dense.tobytes()}
    for _ in range(n * (n - 1) + 1 if monotone else 4 ** (n * n)):
        s = spec.matrix_fn(dense)
        new = (mu + gamma * s >= shocks).astype(np.uint8)
        if np.array_equal(new, dense):
            return AdjacencyMatrix.from_dense(dense)
        if monotone and (new < dense).any():
            raise AssertionError("monotone best-response iteration lost an arc")
        dense = new
        key = dense.tobytes()
        if key in seen:
            raise ValueError(
                "best-response iteration cycled: without a monotone spec and "
                "gamma >= 0 a pure-strategy equilibrium is not guaranteed"
            )
        seen.add(key)
    raise AssertionError("best-response iteration failed to terminate")


def is_equilibrium(
    d: AdjacencyMatrix,
    delta: NuisanceParams,
    gamma: GammaParam,
    spec: StrategicSpec,
    g: GroupAssignment,
    shocks: UtilityShockMatrix,
) -> bool:
    """Check the per-arc best-response identity d_ij = 1{mu_ij + gamma s_ij >= u_ij}."""
    mu = systematic_utility(delta, g)
    dense = d.to_array()
    s = spec.matrix_fn(dense)
    best = (mu + gamma * s >= shocks).astype(np.uint8)
    off = ~np.eye(d.n, dtype=bool)
    return bool((best[off] == dense[off]).all())
