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
from typing import Callable

import numpy as np

from .graphs import AdjacencyMatrix, GroupAssignment, cross_link_matrix

__all__ = [
    "NuisanceParams",
    "SeparationError",
    "StrategicSpec",
    "logistic_cdf",
    "mle_null",
    "null_gradient_sup_norm",
    "null_log_likelihood",
    "simulate_alternative",
    "simulate_null",
    "strategic_spec",
    "systematic_utility",
]

#: Newton ascent of :func:`mle_null`: stop once every free gradient component
#: is below MLE_TOL, give up after MLE_MAX_ITER steps or once a parameter
#: exceeds MLE_PARAM_BOUND in absolute value.
MLE_TOL = 1e-8
MLE_MAX_ITER = 200
MLE_PARAM_BOUND = 40.0


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


def _group_indicator(g: GroupAssignment) -> np.ndarray:
    """The n x K one-hot group matrix Z: Z[i, k] = 1 iff node i is in group k."""
    Z = np.zeros((g.n_nodes, g.n_groups))
    Z[np.arange(g.n_nodes), np.asarray(g.codes)] = 1.0
    return Z


# -- strategic interaction specifications -----------------------------------


@dataclass(frozen=True)
class StrategicSpec:
    """How other agents' arcs enter i's payoff from the arc i -> j.

    ``matrix_fn(a)`` evaluates the whole matrix of s_ij values from a dense
    0/1 array (diagonal meaningless).  Each s_ij excludes the own arc d_ij —
    the exclusion restriction: s_ij(d) never depends on d_ij itself.
    ``monotone`` says whether s is non-decreasing in every other arc, which
    is what guarantees existence of a least equilibrium under gamma >= 0.
    The locally best statistic needs nothing else: the range of s enters
    only the likelihood's two-case decomposition, where it cancels.

    The values of ``matrix_fn`` are integers, but not always of an integer
    dtype: transitivity returns float64 so that its matrix product runs in
    BLAS, and that is exact while the counts stay below 2**53.  The dtype is
    part of every result, not only the values: under NumPy 2 promotion a
    float32 ``s`` makes ``gamma * s`` in :func:`simulate_alternative`
    float32, which can move an arc whose utility lies near its shock.  So
    changing a built-in ``matrix_fn``'s dtype changes results, even where
    its values stay the same.

    A spec used with worker processes (``jobs`` > 1) needs a module-level
    ``matrix_fn``, as the built-in specs have: closures do not pickle.
    """

    kind: str
    matrix_fn: Callable[[np.ndarray], np.ndarray]
    monotone: bool = True


def _reciprocity_terms(a):
    """s_ij = d_ji: the value of i -> j rises when j links back."""
    return a.T.astype(np.int64)


def _transitivity_terms(a):
    """s_ij = #{k : i -> k -> j}: arcs to j's endorsers make i -> j cheaper."""
    a = a.astype(np.float64)
    return a @ a


def _customer_product_terms(a):
    """s_ij = (out-degree of i excluding j) * (out-degree of j)."""
    a = a.astype(np.int64)
    out = a.sum(axis=1)
    return (out[:, None] - a) * out[None, :]


_SPECS = {
    "reciprocity": StrategicSpec("reciprocity", _reciprocity_terms),
    "transitivity": StrategicSpec("transitivity", _transitivity_terms),
    "customer_product": StrategicSpec("customer_product", _customer_product_terms),
}


def strategic_spec(kind: str) -> StrategicSpec:
    """Look up a built-in specification by name."""
    try:
        return _SPECS[kind]
    except KeyError:
        raise ValueError(
            f"unknown strategic specification {kind!r}; "
            f"choose from {sorted(_SPECS)}"
        ) from None


# -- null likelihood and MLE -------------------------------------------------


def _margins(d: AdjacencyMatrix, g: GroupAssignment):
    """The null's sufficient statistics (out-degrees, in-degrees, K x K cross-group
    arc counts) of ``d`` as float arrays; ValueError if ``g`` has another n."""
    counts = np.array(cross_link_matrix(d, g), dtype=float)
    return np.array(d.out_degrees(), dtype=float), np.array(d.in_degrees(), dtype=float), counts


def _log_likelihood(margins, delta: NuisanceParams, mu_off: np.ndarray) -> float:
    """sum over i != j of d_ij mu_ij - log(1 + exp(mu_ij)), the first sum
    read from ``margins``; ``mu_off`` holds the off-diagonal mu_ij."""
    out_deg, in_deg, counts = margins
    linear = out_deg @ delta.sender + in_deg @ delta.receiver + np.vdot(counts, delta.mixing)
    return float(linear - np.logaddexp(0.0, mu_off).sum())


def null_log_likelihood(
    d: AdjacencyMatrix, delta: NuisanceParams, g: GroupAssignment
) -> float:
    """Log-likelihood of independent logistic arcs:
    sum over i != j of d_ij mu_ij - log(1 + exp(mu_ij))."""
    margins = _margins(d, g)
    mu = systematic_utility(delta, g)
    return _log_likelihood(margins, delta, mu[~np.eye(d.n, dtype=bool)])


def _null_gradient(margins, P: np.ndarray, Z: np.ndarray):
    """Moment-matching residuals w.r.t. (sender, receiver, mixing): ``margins``
    less their expectations under ``P``, the arc probabilities with a zeroed
    diagonal; ``Z`` is the n x K one-hot group matrix."""
    out_deg, in_deg, counts = margins
    return out_deg - P.sum(axis=1), in_deg - P.sum(axis=0), counts - Z.T @ P @ Z


def null_gradient_sup_norm(
    d: AdjacencyMatrix, delta: NuisanceParams, g: GroupAssignment
) -> float:
    """Largest absolute gradient component of :func:`null_log_likelihood` in
    (sender, receiver, mixing) at ``delta``: how far the fit is from
    reproducing d's margins."""
    P = logistic_cdf(systematic_utility(delta, g))
    np.fill_diagonal(P, 0.0)
    gradient = _null_gradient(_margins(d, g), P, _group_indicator(g))
    return float(max(np.abs(part).max() for part in gradient))


def _free_information(W: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Information matrix of :func:`mle_null`'s free coordinates.

    ``W`` is P(1-P) with a zeroed diagonal and ``Z`` the n x K one-hot group
    matrix.  The free coordinates are the n sender effects, the first n-1
    receiver effects (the last is pinned at zero) and the (K-1) x (K-1)
    lower-right block of the mixing matrix (first row and column pinned at
    zero), so every block is a slice of the full information.
    """
    n = W.shape[0]
    Z1 = Z[:, 1:]
    WZ1 = W @ Z1
    WtZ1 = W.T @ Z1
    sender_mix = (Z1[:, :, None] * WZ1[:, None, :]).reshape(n, -1)
    receiver_mix = (WtZ1[:-1, :, None] * Z1[:-1, None, :]).reshape(n - 1, -1)
    return np.block(
        [
            [np.diag(W.sum(axis=1)), W[:, :-1], sender_mix],
            [W[:, :-1].T, np.diag(W.sum(axis=0)[:-1]), receiver_mix],
            [sender_mix.T, receiver_mix.T, np.diag((Z1.T @ WZ1).ravel())],
        ]
    )


def _degenerate_margins(margins, g: GroupAssignment) -> list[str]:
    """One message per kind of sufficient statistic at an extreme achievable
    value; empty when there is none.

    ``margins`` are the out-degrees, in-degrees, and group-cell arc counts
    of :func:`_margins`; the MLE exists only when each is strictly between
    its bounds (a degree of 0 or n-1, or an empty/saturated group cell,
    pushes the corresponding parameter to infinity).
    """
    out_deg, in_deg, counts = margins
    n = g.n_nodes
    bits = []
    for what, degrees, extreme in (
        ("with no outgoing arcs", out_deg, 0),
        ("linking to everyone", out_deg, n - 1),
        ("with no incoming arcs", in_deg, 0),
        ("receiving from everyone", in_deg, n - 1),
    ):
        nodes = np.flatnonzero(degrees == extreme).tolist()
        if nodes:
            bits.append(f"nodes {what}: {nodes}")
    sizes = np.bincount(np.asarray(g.codes), minlength=g.n_groups)
    for k in range(g.n_groups):
        for l in range(g.n_groups):
            cap = int(sizes[k] * sizes[l] - (sizes[k] if k == l else 0))
            if cap > 0 and counts[k, l] == 0:
                bits.append(f"no arcs at all from group {k} to group {l}")
            elif cap > 0 and counts[k, l] == cap:
                bits.append(f"every possible arc from group {k} to group {l} present")
    return bits


def mle_null(d: AdjacencyMatrix, g: GroupAssignment) -> NuisanceParams:
    """Maximum-likelihood nuisance parameters under the null.

    Damped Newton ascent, with analytic gradient and information matrix
    (:func:`_free_information`), in free coordinates that pin the last
    receiver effect and the first row and column of the mixing matrix at
    zero.  Each iterate is reported in the normalization of
    :class:`NuisanceParams` (the receiver mean moves into the senders), and
    the ascent stops once the gradient in that normalization is below
    ``MLE_TOL``.  Newton steps do not depend on the linear coordinates they
    are taken in.  At the optimum the fitted model reproduces the observed
    out-degrees, in-degrees, and cross-group arc counts exactly — those are
    the gradient components.  The network enters only through these
    margins, so every network with the same margins gets the same fit, bit
    for bit.  A one-member group has no pair in its diagonal
    cell, which leaves one direction of the free coordinates unidentified;
    the steps are then minimum-norm, so rounding does not choose the fit.

    Raises :class:`SeparationError` when a parameter runs away (perfect
    separation, e.g. a node with empty or full degree) or the ascent fails
    to converge.
    """
    n = d.n
    K = g.n_groups
    margins = _margins(d, g)
    degenerate = _degenerate_margins(margins, g)
    if degenerate:
        raise SeparationError(
            "null MLE does not exist (a sufficient statistic is at its "
            "extreme): " + "; ".join(degenerate)
        )
    # Every later failure happens with all margins interior.
    interior = "no degenerate margins found"
    Z = _group_indicator(g)
    offdiag = ~np.eye(n, dtype=bool)
    unidentified = bool((Z.sum(axis=0) == 1).any())

    def unpack(x: np.ndarray) -> NuisanceParams:
        receiver = np.append(x[n : 2 * n - 1], 0.0)
        shift = receiver.mean()
        mixing = np.zeros((K, K))
        mixing[1:, 1:] = x[2 * n - 1 :].reshape(K - 1, K - 1)
        return NuisanceParams(x[:n] + shift, receiver - shift, mixing)

    def loglik_and_parts(x: np.ndarray):
        delta = unpack(x)
        mu_fin = np.where(offdiag, systematic_utility(delta, g), 0.0)
        P = logistic_cdf(mu_fin)
        P[~offdiag] = 0.0
        return delta, P, _log_likelihood(margins, delta, mu_fin[offdiag])

    x = np.zeros(n + (n - 1) + (K - 1) * (K - 1))
    delta, P, ll = loglik_and_parts(x)
    for _ in range(MLE_MAX_ITER):
        ga, gb, glam = _null_gradient(margins, P, Z)
        stop = np.concatenate([ga, gb[:-1] - gb[-1], glam[1:, 1:].ravel()])
        if np.abs(stop).max() < MLE_TOL:
            mu = systematic_utility(delta, g)
            if np.nanmax(np.abs(mu)) > 30.0:
                raise SeparationError(
                    "null MLE stalled with saturated link probabilities; "
                    "likely perfect separation: " + interior
                )
            return delta
        grad = np.concatenate([ga, gb[:-1], glam[1:, 1:].ravel()])
        info = _free_information(P * (1.0 - P), Z)
        try:
            if unidentified:
                raise np.linalg.LinAlgError
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(info, grad, rcond=None)[0]
        scale = 1.0
        for _ in range(40):
            x_new = x + scale * step
            delta_new, P_new, ll_new = loglik_and_parts(x_new)
            if np.isfinite(ll_new) and ll_new >= ll - 1e-12:
                break
            scale *= 0.5
        else:
            raise SeparationError(
                "null MLE line search failed to improve the likelihood; " + interior
            )
        x, delta, P, ll = x_new, delta_new, P_new, ll_new
        worst = max(
            np.abs(delta.sender).max(),
            np.abs(delta.receiver).max(),
            np.abs(delta.mixing).max(),
        )
        if worst > MLE_PARAM_BOUND:
            raise SeparationError(
                f"null MLE diverged (|parameter| > {MLE_PARAM_BOUND:g}); "
                "likely perfect separation: " + interior
            )
    raise SeparationError(
        f"null MLE did not converge in {MLE_MAX_ITER} iterations; " + interior
    )


# -- simulation ---------------------------------------------------------------


def simulate_null(
    delta: NuisanceParams, g: GroupAssignment, rng: np.random.Generator
) -> AdjacencyMatrix:
    """Draw a network of independent arcs: d_ij = 1{mu_ij >= u_ij}, with u
    an n x n matrix of iid standard logistic shocks from ``rng`` (diagonal
    unused)."""
    mu = systematic_utility(delta, g)
    shocks = rng.logistic(size=(g.n_nodes, g.n_nodes))
    dense = (mu >= shocks).astype(np.uint8)  # NaN diagonal compares False
    return AdjacencyMatrix.from_dense(dense)


def simulate_alternative(
    delta: NuisanceParams,
    gamma: float,
    spec: StrategicSpec,
    g: GroupAssignment,
    rng: np.random.Generator,
) -> AdjacencyMatrix:
    """Draw an equilibrium network under interaction strength ``gamma``.

    Shocks are drawn once; the best-response map
    d -> 1{mu + gamma * s(d) >= u} is then iterated from the empty network.
    For gamma >= 0 and a monotone spec the iteration climbs to the least
    equilibrium in at most n(n-1)+1 sweeps.  Otherwise the iteration is
    attempted anyway and a revisited non-fixed state raises ValueError: no
    monotone structure, so a pure-strategy equilibrium is not guaranteed.

    With gamma = 0 and an rng in the same state this reproduces
    :func:`simulate_null` exactly.  A gamma that is not finite raises
    ValueError.
    """
    if not np.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma!r}")
    n = g.n_nodes
    mu = systematic_utility(delta, g)
    shocks = rng.logistic(size=(n, n))
    dense = np.zeros((n, n), dtype=np.uint8)
    monotone = gamma >= 0 and spec.monotone
    seen = {dense.tobytes()}
    while True:
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
