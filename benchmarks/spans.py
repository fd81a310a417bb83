"""Span recorders wrapped around the package's module boundaries.

A :class:`Tracer` replaces, for the life of one worker process, the names
that ``testing`` and ``harness`` import from ``sampler`` and ``model`` (and
``AdjacencyMatrix.to_array``) with wrappers that record a span per call.  The
program itself is not edited.  Spans stay in memory and are written out as
JSON lines when the worker ends.  Layer names are the module names: a span
named ``sampler.markov_draw`` belongs to the ``sampler`` layer.
"""

from __future__ import annotations

import json
import time

import numpy as np

from checks import check_draw, dense_from_rows

TALLIES = ("steps", "lazy", "accepted", "abandoned", "flips")


class Tracer:
    """In-memory span recorder plus the counts taken at the same boundaries."""

    def __init__(self, run_id: str, unit: int):
        self.run_id = run_id
        self.unit = unit
        self.spans: list[list] = []  # [id, name, start, end, parent id]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.chain = dict.fromkeys(TALLIES, 0)
        self.draw_steps = 0
        self.taus: list[int] = []
        self.separations = 0
        self.checked_draws = 0
        self.draw_problems: list[str] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        span = [len(self.spans), name, 0.0, 0.0, self._stack[-1] if self._stack else None]
        self.spans.append(span)
        self._stack.append(span[0])
        span[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    # -- wrappers -------------------------------------------------------------

    def install(self, graphs, harness, model, testing) -> None:
        """Wrap the cross-module names; :meth:`uninstall` restores them."""
        self._patch(testing, "markov_draw", self._markov_draw(testing.markov_draw))
        self._patch(
            testing,
            "mixing_time_heuristic",
            self._pilot(testing.mixing_time_heuristic),
        )
        for module in (testing, harness):
            self._patch(module, "mle_null", self._fit(module.mle_null, model.SeparationError))
        for name in ("simulate_null", "simulate_alternative"):
            self._patch(harness, name, self._spanned("model." + name, getattr(harness, name)))
        self._patch(
            graphs.AdjacencyMatrix,
            "to_array",
            self._spanned("graphs.to_array", graphs.AdjacencyMatrix.to_array),
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _fit(self, fn, separation_error):
        def mle_null(*args, **kwargs):
            try:
                return self.call("model.mle_null", fn, *args, **kwargs)
            except separation_error:
                self.separations += 1
                raise

        return mle_null

    def _pilot(self, fn):
        def mixing_time_heuristic(*args, **kwargs):
            tau = self.call("sampler.mixing_time_heuristic", fn, *args, **kwargs)
            self.taus.append(tau)
            return tau

        return mixing_time_heuristic

    def _markov_draw(self, fn):
        def markov_draw(d, g, cfg, rng, stats):
            before = [getattr(stats, k) for k in TALLIES]
            draw = self.call("sampler.markov_draw", fn, d, g, cfg, rng, stats)
            for k, b in zip(TALLIES, before):
                self.chain[k] += getattr(stats, k) - b
            self.draw_steps += cfg.tau
            problems = self.call("benchmark.check_draw", _check, d, draw, g)
            self.checked_draws += 1
            self.draw_problems.extend(problems[:1])
            return draw

        return markov_draw

    # -- output ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": f"u{self.unit}.{sid}",
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": None if parent is None else f"u{self.unit}.{parent}",
                        }
                    )
                    + "\n"
                )

    def layer_times(self) -> dict:
        """Per span name: (calls, total seconds, seconds outside the child spans
        of ``sampler``, ``model`` and the benchmark's own checks)."""
        child_time = [0.0] * len(self.spans)
        for _, name, start, end, parent in self.spans:
            if parent is not None and name.split(".")[0] in ("sampler", "model", "benchmark"):
                child_time[parent] += end - start
        out: dict = {}
        for sid, name, start, end, _ in self.spans:
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - child_time[sid])
        return out

    def summary(self) -> dict:
        return {
            "layers": self.layer_times(),
            "chain": self.chain,
            "draw_steps": self.draw_steps,
            "taus": self.taus,
            "separations": self.separations,
            "checked_draws": self.checked_draws,
            "draw_problems": self.draw_problems,
        }


def _check(d, draw, g) -> list[str]:
    n = d.n
    return check_draw(dense_from_rows(d.rows, n), dense_from_rows(draw.rows, n), np.asarray(g.codes))


def integrated_autocorrelation_time(x) -> float:
    """IAT of a series by Geyer's initial monotone sequence estimator.

    Sums of adjacent autocovariance pairs are kept while positive and forced
    to be non-increasing (Geyer 1992, Stat. Sci. 7:473).
    """
    x = np.asarray(x, dtype=float)
    x = x - x.mean()
    m = x.size
    spectrum = np.fft.rfft(x, 2 * m)
    acov = np.fft.irfft(spectrum * np.conj(spectrum))[:m] / m
    if acov[0] <= 0.0:
        return float("nan")
    total = -acov[0]
    prev = float("inf")
    for k in range(0, m - 1, 2):
        pair = acov[k] + acov[k + 1]
        if pair <= 0.0:
            break
        prev = min(prev, pair)
        total += 2.0 * prev
    return total / acov[0]
