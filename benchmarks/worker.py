"""One unit of a benchmark workload, run in a fresh process with jobs=1.

``python3 benchmarks/worker.py SPEC`` imports the package from the checkout,
sets up (reads the network, fits the null model, runs the tau pilot), then
runs the measured phase: one ``conditional_p_value`` call for a ``test`` unit
or one ``run_experiment`` call for a ``power`` unit.  SPEC is a JSON object
written by ``run.py``.  The last line of standard output is a JSON object
with the timings, the outputs the checks need and, when tracing, the span
summary.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import netformtest as nt
    from netformtest import graphs, harness, model, testing

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer(spec["run_id"], spec["unit"])
        tracer.install(graphs, harness, model, testing)
        call = tracer.call
    else:
        def call(name, fn, *args, **kwargs):
            return fn(*args, **kwargs)

    seed = spec["seed"]
    out: dict = {}
    if spec["kind"] == "test":
        edges = call("graphs.read_edge_csv", nt.read_edge_csv, spec["edges"])
        n, g = call("graphs.read_node_csv", nt.read_node_csv, spec["nodes"])
        d = call("graphs.from_edge_list", nt.from_edge_list, edges, n)
        t = now()
        delta = call("model.mle_null", nt.mle_null, d, g)
        out["fit_s"] = now() - t
        cfg = None
        if spec["reference"] != "density_only":
            tau = call(
                "sampler.mixing_time_heuristic",
                nt.mixing_time_heuristic,
                d,
                g,
                r=spec["mixing_r"],
                q=0.5,
                rng=random.Random(seed),
            )
            if tracer:
                tracer.taus.append(tau)
            cfg = nt.ChainConfig(tau=tau, q=0.5)
        stat = nt.TestStatisticSpec("locally_best", "transitivity", "provided", delta)
        ready = now()
        result = call(
            "testing.conditional_p_value",
            nt.conditional_p_value,
            d,
            g,
            stat,
            reference=spec["reference"],
            n_draws=spec["draws"],
            cfg=cfg,
            seed=seed,
            jobs=1,
        )
        done = now()
        out.update(
            sender=delta.sender.tolist(),
            receiver=delta.receiver.tolist(),
            mixing=delta.mixing.tolist(),
            observed=result.observed,
            p_value=result.p_value,
            n_draws=result.n_draws,
            null_draws=result.null_draws.tolist(),
            tau=result.tau,
        )
        network = (d, g, delta)
    else:
        cfg = nt.ExperimentConfig(
            n_nodes=spec["n"],
            n_reps=spec["reps"],
            n_draws=spec["draws"],
            alpha=spec["alpha"],
            gammas=tuple(spec["gammas"]),
            statistics=("locally_best_fitted", "transitivity_index"),
            mixing_r=spec["mixing_r"],
        )
        if tracer:
            first_fit = []
            fit = harness.mle_null

            def keep_first(d, g):
                delta = fit(d, g)
                if not first_fit:
                    first_fit.append((d.copy(), g, delta))
                return delta

            harness.mle_null = keep_first
        ready = now()
        table = call("harness.run_experiment", nt.run_experiment, cfg, seed=seed, jobs=1)
        done = now()
        out["rows"] = [
            {
                "gamma": r.gamma,
                "statistic": r.statistic,
                "n_used": r.n_used,
                "n_failures": r.n_failures,
                "rejections": r.rejections,
            }
            for r in table.rows
        ]
        network = None
        if tracer and first_fit:
            network = first_fit[0]

    out["setup_s"] = ready - spec["t_spawn"]
    out["phase_s"] = done - ready
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        tracer.write_spans(spec["spans_path"])
        out["trace"] = tracer.summary()
        if network is not None and spec.get("walk_steps"):
            out["walks_per_attempt"] = walks_per_attempt(nt, network, spec["walk_steps"], seed)
        if network is not None and spec.get("iat_steps"):
            out["stat_iat_steps"] = statistic_iat(
                nt, network, spec["iat_steps"], spec["iat_thin"], seed
            )
    print(json.dumps(out))


def walks_per_attempt(nt, network, steps: int, seed: int) -> float:
    """Mean walks per non-lazy attempt over a fixed markov_step loop."""
    d, g, _ = network
    d = d.copy()
    cfg = nt.ChainConfig(tau=1, q=0.5)
    rng = random.Random(seed + 1)
    walks = attempts = 0
    for _ in range(steps):
        info = nt.markov_step(d, g, cfg, rng)
        if info.kind != "lazy":
            attempts += 1
            walks += info.n_walks
    return walks / attempts


def statistic_iat(nt, network, steps: int, thin: int, seed: int) -> float:
    """IAT, in chain steps, of the locally best statistic along one chain."""
    import numpy as np

    from checks import dense_from_rows, link_probabilities, locally_best_transitivity
    from spans import integrated_autocorrelation_time

    d, g, delta = network
    prob = link_probabilities(delta.sender, delta.receiver, delta.mixing, np.asarray(g.codes))
    cfg = nt.ChainConfig(tau=thin, q=0.5)
    rng = random.Random(seed + 2)
    series = []
    for _ in range(steps // thin):
        d = nt.markov_draw(d, g, cfg, rng)
        series.append(locally_best_transitivity(dense_from_rows(d.rows, d.n), prob))
    return thin * integrated_autocorrelation_time(series)


if __name__ == "__main__":
    main()
