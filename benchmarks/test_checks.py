"""Tests of the benchmark's own correctness checks (standard library and numpy only).

Run from the root of the checkout:

    python3 -m unittest discover -s benchmarks -p "test_*.py"
"""

from __future__ import annotations

import itertools
import math
import unittest

import numpy as np

import checks
from inputs import draw_design_network
from spans import integrated_autocorrelation_time


def logit_fit(arcs: np.ndarray, groups: np.ndarray):
    """Null-model MLE by Newton's method on the full, redundant parameter vector."""
    n = arcs.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    X = np.zeros((len(pairs), 2 * n + 4))
    for row, (i, j) in enumerate(pairs):
        X[row, [i, n + j, 2 * n + 2 * groups[i] + groups[j]]] = 1.0
    y = np.array([arcs[i, j] for i, j in pairs], dtype=float)
    theta = np.zeros(X.shape[1])
    for _ in range(100):
        p = 1.0 / (1.0 + np.exp(-X @ theta))
        grad = X.T @ (y - p)
        if np.abs(grad).max() < 1e-12:
            break
        info = X.T @ (X * (p * (1.0 - p))[:, None])
        theta += np.linalg.lstsq(info, grad, rcond=None)[0]
    return theta[:n], theta[n : 2 * n], theta[2 * n :].reshape(2, 2)


def small_network(seed: int = 3, n: int = 10):
    return draw_design_network(n, np.random.default_rng(seed))


class DensityOracle(unittest.TestCase):
    def test_exact_mean_matches_full_enumeration(self):
        rng = np.random.default_rng(7)
        for n, n_arcs in ((4, 5), (5, 4), (5, 9)):
            prob = rng.random((n, n))
            np.fill_diagonal(prob, 0.0)
            positions = [(i, j) for i in range(n) for j in range(n) if i != j]
            values = []
            for chosen in itertools.combinations(positions, n_arcs):
                arcs = np.zeros((n, n), dtype=np.uint8)
                arcs[tuple(np.array(chosen).T)] = 1
                values.append(checks.locally_best_transitivity(arcs, prob))
            exact = checks.density_null_mean(n, n_arcs, prob)
            self.assertAlmostEqual(np.mean(values), exact, delta=1e-12 * max(1.0, abs(exact)))

    def test_pooled_z_flags_a_shifted_mean(self):
        rng = np.random.default_rng(8)
        samples = [(rng.normal(5.0, 2.0, size=400), 5.0) for _ in range(4)]
        self.assertEqual(checks.check_density_mean(samples), [])
        shifted = [(draws, exact + 0.5) for draws, exact in samples]
        self.assertTrue(checks.check_density_mean(shifted))


class DrawCheck(unittest.TestCase):
    def setUp(self):
        self.arcs, self.groups = small_network()

    def test_unchanged_and_switched_draws_pass(self):
        self.assertEqual(checks.check_draw(self.arcs, self.arcs.copy(), self.groups), [])
        # Swap the targets of two arcs whose targets share a group: every
        # degree and every group count stays.
        a, g = self.arcs, self.groups
        n = a.shape[0]
        for i, k, j, l in itertools.permutations(range(n), 4):
            if a[i, j] and a[k, l] and not a[i, l] and not a[k, j] and g[j] == g[l]:
                break
        else:
            self.fail("no switchable pair of arcs in the fixture")
        draw = a.copy()
        draw[i, j] = draw[k, l] = 0
        draw[i, l] = draw[k, j] = 1
        self.assertEqual(checks.check_draw(a, draw, g), [])

    def test_arc_moved_across_groups_is_rejected(self):
        a, g = self.arcs, self.groups
        n = a.shape[0]
        i, j, k = next(
            (i, j, k)
            for i, j, k in itertools.permutations(range(n), 3)
            if a[i, j] and not a[i, k] and g[j] != g[k]
        )
        draw = a.copy()
        draw[i, j], draw[i, k] = 0, 1
        problems = checks.check_draw(a, draw, g)
        self.assertIn("draw changed the group counts", problems)

    def test_self_loop_is_rejected(self):
        draw = self.arcs.copy()
        draw[0, 0] = 1
        self.assertIn("draw has a self-loop", checks.check_draw(self.arcs, draw, self.groups))

    def test_dense_from_rows_reads_bitmasks(self):
        rows = [sum(1 << j for j in np.nonzero(r)[0]) for r in self.arcs]
        np.testing.assert_array_equal(
            checks.dense_from_rows(rows, self.arcs.shape[0]), self.arcs
        )


class PValueCheck(unittest.TestCase):
    def test_off_by_one_draw_is_rejected(self):
        draws = np.random.default_rng(9).normal(size=19)
        observed = 0.3
        p = (1 + int((draws >= observed).sum())) / 20
        self.assertEqual(checks.check_p_value(p, observed, draws, 19), [])
        self.assertTrue(checks.check_p_value(p + 1 / 20, observed, draws, 19))
        self.assertTrue(checks.check_p_value(p, observed, draws[:-1], 19))


class FitCheck(unittest.TestCase):
    def test_fit_passes_and_a_shifted_fit_is_rejected(self):
        arcs, groups = small_network()
        sender, receiver, mixing = logit_fit(arcs, groups)
        prob = checks.link_probabilities(sender, receiver, mixing, groups)
        self.assertEqual(checks.check_fit(arcs, groups, prob), [])
        shifted = sender.copy()
        shifted[0] += 1e-3
        prob = checks.link_probabilities(shifted, receiver, mixing, groups)
        self.assertTrue(checks.check_fit(arcs, groups, prob))

    def test_observed_statistic_matches_pairwise_sum(self):
        arcs, groups = small_network()
        prob = checks.link_probabilities(*logit_fit(arcs, groups), groups)
        n = arcs.shape[0]
        total = 0.0
        for i in range(n):
            for j in range(n):
                if i != j:
                    s = sum(int(arcs[i, k]) * int(arcs[k, j]) for k in range(n))
                    total += (arcs[i, j] - prob[i, j]) * s
        value = checks.locally_best_transitivity(arcs, prob)
        self.assertEqual(checks.check_observed(total, arcs, prob), [])
        self.assertTrue(checks.check_observed(value * (1 + 1e-6) + 1e-3, arcs, prob))


class PowerChecks(unittest.TestCase):
    def test_binomial_quantile_matches_the_cdf(self):
        for n, p in ((10, 0.05), (60, 0.05), (7, 0.5)):
            k = checks.binomial_quantile(0.999, n, p)

            def cdf(m):
                return sum(
                    math.comb(n, x) * p**x * (1 - p) ** (n - x) for x in range(m + 1)
                )

            self.assertGreaterEqual(cdf(k), 0.999)
            if k > 0:
                self.assertLess(cdf(k - 1), 0.999)

    def test_row_bookkeeping(self):
        row = {"gamma": 0.0, "statistic": "s", "n_used": 3, "n_failures": 1, "rejections": 1}
        self.assertEqual(checks.check_power_rows([row], 4), [])
        self.assertTrue(checks.check_power_rows([dict(row, n_failures=2)], 4))
        self.assertTrue(checks.check_power_rows([dict(row, rejections=4)], 4))
        self.assertTrue(checks.check_size(10, 40, 0.05))
        self.assertEqual(checks.check_size(2, 40, 0.05), [])


class Autocorrelation(unittest.TestCase):
    def test_ar1_series(self):
        phi = 0.8
        rng = np.random.default_rng(10)
        x = np.empty(200_000)
        x[0] = 0.0
        noise = rng.normal(size=x.size)
        for t in range(1, x.size):
            x[t] = phi * x[t - 1] + noise[t]
        expected = (1 + phi) / (1 - phi)
        self.assertAlmostEqual(integrated_autocorrelation_time(x), expected, delta=0.1 * expected)


if __name__ == "__main__":
    unittest.main()
