"""End-to-end and per-layer benchmark of the conditional test.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload test-n48-r10 --seed 1 --seconds 30 --trace 0

A run repeats *units* until ``--seconds`` have passed.  Each unit is a fresh
worker process (``worker.py``, jobs=1) that sets up and then runs one measured
call into the package's public API; see README.md for the workloads.  The
benchmark makes its inputs from ``--seed``, checks every unit's outputs
against computations of its own (``checks.py``) and prints, as the last line
of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics from spans (``spans.py``) with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

import numpy as np

import checks
from inputs import network_for, read_network, write_network

HERE = Path(__file__).resolve().parent

#: Why each workload exists is in README.md.
WORKLOADS = {
    "test-n48-r10": {
        "kind": "test",
        "n": 48,
        "reference": "degree_and_crosslink",
        "mixing_r": 10.0,
        "draws": 2,
        "walk_steps": 4000,
        "iat_steps": 150_000,
        "iat_thin": 100,
    },
    "power-n24-r1": {
        "kind": "power",
        "n": 24,
        "reps": 16,
        "draws": 19,
        "alpha": 0.05,
        "gammas": [0.0, 0.26],
        "mixing_r": 1.0,
        "walk_steps": 4000,
    },
    "test-density-n96": {
        "kind": "test",
        "n": 96,
        "reference": "density_only",
        "draws": 400,
    },
}

END_TO_END_UNITS = {"setup_s": "s", "draws_per_s": "1/s", "reps_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "sampler.step_us": "us",
    "sampler.draw_ms": "ms",
    "sampler.tau": "steps",
    "sampler.pilot_ms": "ms",
    "sampler.accept_ratio": "share",
    "sampler.abandon_ratio": "share",
    "sampler.flips_per_step": "arcs",
    "sampler.walks_per_attempt": "walks",
    "sampler.stat_iat_steps": "steps",
    "model.fit_ms": "ms",
    "model.simulate_ms": "ms",
    "model.fit_separations": "count",
    "testing.self_us_per_draw": "us",
    "graphs.to_array_us": "us",
    "graphs.read_ms": "ms",
    "harness.rep_ms": "ms",
    "harness.self_ms_per_rep": "ms",
}

UNIT_TIMEOUT_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no package source, or a worker failed)."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def unit_seed(seed: int, unit: int) -> int:
    return int(np.random.SeedSequence([seed, unit]).generate_state(1)[0])


class Run:
    """One benchmark run of one workload: its units, checks and tallies."""

    def __init__(self, root: Path, name: str, seed: int, trace: bool):
        self.root = root
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.trace = trace
        self.run_id = uuid.uuid4().hex
        self.out = HERE / "out" / name / f"seed{seed}"
        self.out.mkdir(parents=True, exist_ok=True)
        self.units: list[dict] = []
        self.problems: list[str] = []
        self.density_samples: list = []
        self.null_rejections: dict = {}
        self.null_used = 0
        self.checked_draws = 0
        if self.wl["kind"] == "test":
            sys.path.insert(0, str(root / "src"))
            import netformtest

            self.nt = netformtest

    # -- inputs ---------------------------------------------------------------

    def _fit_exists(self, arcs, groups) -> bool:
        nt = self.nt
        d = nt.AdjacencyMatrix.from_dense(arcs)
        g = nt.GroupAssignment(tuple(int(x) for x in groups), 2)
        try:
            nt.mle_null(d, g)
        except nt.SeparationError:
            return False
        return True

    def spec(self, unit: int, trace: bool, extras: bool = True) -> dict:
        wl = self.wl
        spec = {
            "src": str(self.root / "src"),
            "kind": wl["kind"],
            "unit": unit,
            "seed": unit_seed(self.seed, unit),
            "trace": trace,
            "run_id": self.run_id,
            "spans_path": str(self.out / f"unit{unit}.jsonl"),
        }
        spec.update(wl)
        if not (trace and unit == 0 and extras):
            spec.pop("walk_steps", None)
            spec.pop("iat_steps", None)
        if wl["kind"] == "test":
            arcs, groups = network_for(wl["n"], self.seed, unit, self._fit_exists)
            edges, nodes = write_network(self.out / f"net{unit}", arcs, groups)
            spec.update(edges=str(edges), nodes=str(nodes))
        return spec

    # -- workers --------------------------------------------------------------

    def run_unit(self, unit: int, trace: bool, check: bool = True) -> dict:
        spec = self.spec(unit, trace, extras=check)
        spec["t_spawn"] = now()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=self.root,
            capture_output=True,
            text=True,
            timeout=UNIT_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchmarkError(
                f"worker for unit {unit} exited with {proc.returncode}:\n{proc.stderr}"
            )
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if check:
            self.check(spec, res)
        return res

    # -- checks ---------------------------------------------------------------

    def check(self, spec: dict, res: dict) -> None:
        tag = f"unit {spec['unit']}: "
        if spec["kind"] == "test":
            arcs, groups = read_network(Path(spec["edges"]), Path(spec["nodes"]))
            prob = checks.link_probabilities(res["sender"], res["receiver"], res["mixing"], groups)
            found = checks.check_fit(arcs, groups, prob)
            found += checks.check_observed(res["observed"], arcs, prob)
            found += checks.check_p_value(
                res["p_value"], res["observed"], res["null_draws"], spec["draws"]
            )
            if spec["reference"] == "density_only":
                exact = checks.density_null_mean(arcs.shape[0], int(arcs.sum()), prob)
                self.density_samples.append((res["null_draws"], exact))
        else:
            found = checks.check_power_rows(res["rows"], spec["reps"])
            for row in res["rows"]:
                if row["gamma"] == 0.0:
                    key = row["statistic"]
                    self.null_rejections[key] = self.null_rejections.get(key, 0) + row["rejections"]
            self.null_used += next(r["n_used"] for r in res["rows"] if r["gamma"] == 0.0)
        if "trace" in res:
            found += res["trace"]["draw_problems"]
            self.checked_draws += res["trace"]["checked_draws"]
        self.problems.extend(tag + p for p in found)

    def final_checks(self) -> None:
        if self.trace and self.wl.get("reference") != "density_only" and not self.checked_draws:
            self.problems.append("no chain draw reached the draw check")
        if self.density_samples:
            self.problems += checks.check_density_mean(self.density_samples)
        for stat, rejections in self.null_rejections.items():
            self.problems += [
                f"{stat}: {p}"
                for p in checks.check_size(rejections, self.null_used, self.wl["alpha"])
            ]

    # -- the loop -------------------------------------------------------------

    def measure(self, seconds: float) -> None:
        start = now()
        unit = 0
        while unit == 0 or now() - start < seconds:
            self.units.append(self.run_unit(unit, self.trace))
            unit += 1
        self.final_checks()

    # -- metrics --------------------------------------------------------------

    def tallies(self) -> dict:
        wl = self.wl
        if wl["kind"] == "test":
            reps = len(self.units)
            draws = sum(u["n_draws"] for u in self.units)
            excluded = 0
        else:
            reps = len(self.units) * wl["reps"] * len(wl["gammas"])
            used = sum(
                r["n_used"]
                for u in self.units
                for r in u["rows"]
                if r["statistic"] == "locally_best_fitted"
            )
            draws = used * wl["draws"]
            excluded = reps - used
        return {"reps": reps, "draws": draws, "excluded": excluded}

    def end_to_end(self) -> dict:
        t = self.tallies()
        phase = sum(u["phase_s"] for u in self.units)
        if self.wl["kind"] == "test":
            reps_per_s = t["reps"] / sum(u["setup_s"] + u["phase_s"] for u in self.units)
        else:
            reps_per_s = t["reps"] / phase
        return {
            "setup_s": statistics.median(u["setup_s"] for u in self.units),
            "draws_per_s": t["draws"] / phase,
            "reps_per_s": reps_per_s,
            "peak_rss_mb": max(u["maxrss_mb"] for u in self.units),
        }

    def per_layer(self) -> dict:
        layers: dict = {}
        chain = dict.fromkeys(("steps", "lazy", "accepted", "abandoned", "flips"), 0)
        draw_steps = separations = 0
        taus: list = []
        for u in self.units:
            tr = u["trace"]
            for name, (calls, total, own) in tr["layers"].items():
                c, t, o = layers.get(name, (0, 0.0, 0.0))
                layers[name] = (c + calls, t + total, o + own)
            for k in chain:
                chain[k] += tr["chain"][k]
            draw_steps += tr["draw_steps"]
            separations += tr["separations"]
            taus += tr["taus"]
        def calls(name):
            return layers.get(name, (0, 0.0, 0.0))[0]

        def total(name):
            return layers.get(name, (0, 0.0, 0.0))[1]

        def own(name):
            return layers.get(name, (0, 0.0, 0.0))[2]

        def mean(name):
            return total(name) / calls(name) if calls(name) else 0.0

        t = self.tallies()
        non_lazy = chain["steps"] - chain["lazy"]
        simulate = ("model.simulate_null", "model.simulate_alternative")
        sim_calls = sum(calls(s) for s in simulate)
        power = self.wl["kind"] == "power"
        first = self.units[0]
        return {
            "sampler.step_us": 1e6 * total("sampler.markov_draw") / draw_steps if draw_steps else 0.0,
            "sampler.draw_ms": 1e3 * mean("sampler.markov_draw"),
            "sampler.tau": statistics.fmean(taus) if taus else 0.0,
            "sampler.pilot_ms": 1e3 * mean("sampler.mixing_time_heuristic"),
            "sampler.accept_ratio": chain["accepted"] / non_lazy if non_lazy else 0.0,
            "sampler.abandon_ratio": chain["abandoned"] / non_lazy if non_lazy else 0.0,
            "sampler.flips_per_step": chain["flips"] / chain["steps"] if chain["steps"] else 0.0,
            "sampler.walks_per_attempt": first.get("walks_per_attempt", 0.0),
            "sampler.stat_iat_steps": first.get("stat_iat_steps", 0.0),
            "model.fit_ms": 1e3 * mean("model.mle_null"),
            "model.simulate_ms": 1e3 * sum(total(s) for s in simulate) / sim_calls if sim_calls else 0.0,
            "model.fit_separations": separations,
            "testing.self_us_per_draw": 0.0 if power else 1e6 * own("testing.conditional_p_value") / t["draws"],
            "graphs.to_array_us": 1e6 * mean("graphs.to_array"),
            "graphs.read_ms": 0.0 if power else 1e3 * sum(
                total(s) for s in ("graphs.read_edge_csv", "graphs.read_node_csv", "graphs.from_edge_list")
            ) / len(self.units),
            "harness.rep_ms": 1e3 * total("harness.run_experiment") / t["reps"] if power else 0.0,
            "harness.self_ms_per_rep": 1e3 * own("harness.run_experiment") / t["reps"] if power else 0.0,
        }

    def tracing_overhead(self, pairs: int = 3) -> dict:
        """Median time that spans add to unit 0, from alternating untraced and
        traced runs of identical work (the machine's speed drifts, so one pair
        is not enough)."""
        gaps, plain, traced, checking = [], [], [], []
        for _ in range(pairs):
            p = self.run_unit(0, False, check=False)
            t = self.run_unit(0, True, check=False)
            plain.append(p["setup_s"] + p["phase_s"])
            traced.append(t["setup_s"] + t["phase_s"])
            gaps.append(traced[-1] - plain[-1])
            checking.append(t["trace"]["layers"].get("benchmark.check_draw", (0, 0.0))[1])
        return {
            "pairs": pairs,
            "untraced_s": statistics.median(plain),
            "traced_s": statistics.median(traced),
            "overhead_s": statistics.median(gaps),
            "draw_check_s": statistics.median(checking),
        }

    def write_trace(self, overhead: dict, metrics: dict) -> None:
        """Merge the units' span files into one JSON-lines file, plus a summary."""
        base = self.out.parent / f"seed{self.seed}"
        with open(base.with_suffix(".spans.jsonl"), "w") as merged:
            for unit in range(len(self.units)):
                part = self.out / f"unit{unit}.jsonl"
                merged.write(part.read_text())
                part.unlink()
        summary = {"run": self.run_id, "units": len(self.units), "tracing_overhead": overhead, "metrics": metrics}
        base.with_suffix(".summary.json").write_text(json.dumps(summary, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "netformtest" / "__init__.py").is_file():
        print(f"no package source at {root / 'src' / 'netformtest'}; run from the checkout root",
              file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed, bool(args.trace))
    try:
        overhead = run.tracing_overhead() if run.trace else None
        run.measure(args.seconds)
        if run.trace:
            values = run.per_layer()
            run.write_trace(overhead, values)
            units = PER_LAYER_UNITS
        else:
            values = run.end_to_end()
            units = END_TO_END_UNITS
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    t = run.tallies()
    print(f"{args.workload} seed {args.seed}: {len(run.units)} units, {t['reps']} replications, "
          f"{t['draws']} reference draws, {t['excluded']} replications excluded "
          f"(null fit does not exist)")
    fits = [1e3 * u["fit_s"] for u in run.units if "fit_s" in u]
    if fits:
        print(f"null fit in the set-up: median {statistics.median(fits):.1f} ms, "
              f"max {max(fits):.1f} ms over {len(fits)} processes")
    taus = [u["tau"] for u in run.units if u.get("tau")]
    if taus:
        steps = sum(u["tau"] * u["n_draws"] for u in run.units)
        print(f"walk length tau: mean {statistics.fmean(taus):.0f}, range {min(taus)}-{max(taus)}; "
              f"{1e6 * sum(u['phase_s'] for u in run.units) / steps:.2f} us per chain step "
              f"in the draw phase")
    if overhead:
        print(f"tracing overhead on unit 0: {overhead['overhead_s']:+.3f} s, median of "
              f"{overhead['pairs']} pairs (medians {overhead['untraced_s']:.3f} s untraced, "
              f"{overhead['traced_s']:.3f} s traced; the traced unit spends "
              f"{overhead['draw_check_s']:.3f} s checking chain draws)")
    for problem in run.problems[:20]:
        print(f"CHECK FAILED {problem}")
    if len(run.problems) > 20:
        print(f"CHECK FAILED ... and {len(run.problems) - 20} more")
    attempted = t["reps"] if run.wl["kind"] == "power" else t["draws"]
    result = {
        "correct": not run.problems,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
