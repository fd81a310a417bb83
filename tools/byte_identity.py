"""Run a fixed set of CLI commands on one source tree, for byte-identity checks.

    python3 tools/byte_identity.py ROOT OUTDIR

runs every command below as ``python3 -m netformtest`` with ``ROOT/src`` on
the import path, ``OPENBLAS_NUM_THREADS=1``, a fixed ``--seed`` and, for
``test`` and ``mc-experiment`` when the command sets none, ``--jobs 1``, from
inside OUTDIR, so that the paths recorded in the manifests are relative and
the same for every ROOT.  The input networks are written to OUTDIR/inputs
first, drawn with numpy alone.  Command NAME writes its artifacts to
OUTDIR/runs/NAME, next to ``exit_code``, ``stdout`` and ``stderr``; its
``manifest.json`` is rewritten without the timing fields ``started_at`` and
``wall_clock_sec``.  Two trees give the same outputs when

    diff -r OUTDIR_A OUTDIR_B

prints nothing.  Every command runs even if an earlier one failed.  The
script refuses an OUTDIR that is not empty.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SEED = "7"
TIMING_FIELDS = ("started_at", "wall_clock_sec")

NET = ["--edges", "inputs/edges.csv", "--nodes", "inputs/nodes.csv"]
TINY = ["--edges", "inputs/tiny_edges.csv", "--nodes", "inputs/tiny_nodes.csv"]
CHAIN = ["--draws", "30", "--tau", "120"]
ALL_STATISTICS = "locally_best_fitted,locally_best_true,transitivity_index,reciprocity_index"
EXPERIMENT = ["--n-nodes", "24", "--n-reps", "6", "--n-draws", "19", "--gammas", "0,0.13"]


def commands() -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) in run order; later commands may read the
    outputs of earlier ones.  The commands whose names end in ``q0.5`` give
    the trade share 0.5 explicitly, so that across a change of the default
    share their outputs can be compared with the default-share outputs of the
    older tree: ``sample_groups``, ``test_pilot_tuned`` and
    ``mc_degree-crosslink_jobs1``."""
    cmds = [
        ("calibrate", ["calibrate"]),
        ("fit", ["fit", *NET]),
        ("fit_one_group", ["fit", "--edges", "inputs/edges.csv"]),
        ("fit_tiny", ["fit", *TINY]),
        ("fit_separated", ["fit", "--edges", "inputs/tiny_edges.csv", "--n-nodes", "6"]),
        ("simulate_null", ["simulate", "--params", "runs/fit/params.json"]),
        (
            "simulate_alternative",
            ["simulate", "--params", "runs/fit/params.json", "--gamma", "0.2"],
        ),
        (
            "simulate_alternative_reciprocity",
            ["simulate", "--params", "runs/fit/params.json", "--gamma", "0.2",
             "--spec", "reciprocity"],
        ),
        (
            "simulate_alternative_customer-product",
            ["simulate", "--params", "runs/fit/params.json", "--gamma", "0.2",
             "--spec", "customer-product"],
        ),
        ("sample_groups", ["sample", *NET, *CHAIN]),
        ("sample_groups_q0.5", ["sample", *NET, *CHAIN, "--q", "0.5"]),
        ("sample_one_group", ["sample", "--edges", "inputs/edges.csv", "--draws", "20"]),
        (
            "sample_pilot_tuned_q0.9",
            ["sample", *NET, "--draws", "20", "--q", "0.9", "--tau-auto", "2"],
        ),
        (
            "sample_pilot_tuned_q0",
            ["sample", *NET, "--draws", "20", "--q", "0", "--tau-auto", "2"],
        ),
        ("enumerate", ["enumerate", *TINY, "--write-members"]),
        (
            "enumerate_one_group",
            ["enumerate", "--edges", "inputs/tiny_edges.csv", "--write-members"],
        ),
    ]
    for statistic in ("locally-best", "ti", "reciprocity"):
        for reference in ("density", "degree", "degree-crosslink"):
            for jobs in ("1", "2"):
                cmds.append(
                    (
                        f"test_{statistic}_{reference}_jobs{jobs}",
                        ["test", *NET, *CHAIN, "--statistic", statistic,
                         "--reference", reference, "--jobs", jobs],
                    )
                )
    for spec in ("reciprocity", "customer-product"):
        for jobs in ("1", "2"):
            cmds.append(
                (
                    f"test_locally-best_{spec}_jobs{jobs}",
                    ["test", *NET, *CHAIN, "--spec", spec, "--jobs", jobs],
                )
            )
    cmds += [
        (
            "test_provided_delta",
            ["test", *NET, *CHAIN, "--params", "runs/fit/params.json", "--jobs", "2"],
        ),
        ("test_q0", ["test", *NET, *CHAIN, "--q", "0"]),
        ("test_pilot_tuned", ["test", *NET, "--draws", "20", "--tau-auto", "2"]),
        (
            "test_pilot_tuned_q0.5",
            ["test", *NET, "--draws", "20", "--tau-auto", "2", "--q", "0.5"],
        ),
        (
            "test_pilot_tuned_q0.2_jobs2",
            ["test", *NET, "--draws", "20", "--q", "0.2", "--tau-auto", "2", "--jobs", "2"],
        ),
        ("test_enumerated", ["test", *TINY, "--statistic", "ti", "--reference", "enumerated"]),
        (
            "test_enumerated_one_group",
            ["test", "--edges", "inputs/tiny_edges.csv", "--statistic", "ti",
             "--reference", "enumerated"],
        ),
        (
            "test_enumerated_reciprocity",
            ["test", *TINY, "--statistic", "reciprocity", "--reference", "enumerated"],
        ),
        (
            "test_enumerated_locally-best",
            ["test", *TINY, "--statistic", "locally-best", "--reference", "enumerated"],
        ),
        ("test_zero_draws", ["test", *NET, "--draws", "0", "--tau", "5"]),
    ]
    for reference, jobs in (
        ("degree-crosslink", "1"),
        ("degree-crosslink", "2"),
        ("density", "2"),
    ):
        cmds.append(
            (
                f"mc_{reference}_jobs{jobs}",
                ["mc-experiment", *EXPERIMENT, "--statistics", ALL_STATISTICS,
                 "--reference", reference, "--jobs", jobs],
            )
        )
    cmds.append(
        (
            "mc_degree-crosslink_jobs1_config_q0.5",
            ["mc-experiment", "--config", "inputs/experiment_q0.5.json", *EXPERIMENT,
             "--statistics", ALL_STATISTICS, "--reference", "degree-crosslink", "--jobs", "1"],
        )
    )
    cmds.append(
        (
            "mc_enumerated",
            ["mc-experiment", "--n-nodes", "5", "--n-reps", "4", "--gammas", "0,0.3",
             "--statistics", "transitivity_index,reciprocity_index",
             "--reference", "enumerated"],
        )
    )
    cmds.append(
        (
            "mc_customer-product",
            ["mc-experiment", *EXPERIMENT, "--spec", "customer-product"],
        )
    )
    cmds.append(
        (
            "mc_config_q0.2_r2_jobs2",
            ["mc-experiment", "--config", "inputs/experiment.json", *EXPERIMENT,
             "--jobs", "2"],
        )
    )
    return cmds


def write_inputs(inputs: Path) -> None:
    """A 16-node two-group network with homophily, a 5-node network small
    enough to enumerate, an experiment configuration file that sets the
    trade probability and the pilot's target to values other than their
    defaults, and one that sets the trade probability to 0.5."""
    inputs.mkdir(parents=True)
    rng = np.random.default_rng(2026)
    groups = np.arange(16) % 2
    same = groups[:, None] == groups[None, :]
    arcs = rng.random((16, 16)) < np.where(same, 0.5, 0.2)
    np.fill_diagonal(arcs, False)
    tiny = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (1, 3)]
    for stem, edges, codes in (
        ("", list(zip(*np.nonzero(arcs))), groups.tolist()),
        ("tiny_", tiny, [0, 0, 1, 1, 0]),
    ):
        with open(inputs / f"{stem}edges.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([("source", "target"), *edges])
        with open(inputs / f"{stem}nodes.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([("node", "group"), *enumerate(codes)])
    (inputs / "experiment.json").write_text(json.dumps({"q": 0.2, "mixing_r": 2}))
    (inputs / "experiment_q0.5.json").write_text(json.dumps({"q": 0.5}))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    root, outdir = Path(argv[0]).resolve(), Path(argv[1])
    if outdir.exists() and any(outdir.iterdir()):
        print(f"{outdir} is not empty", file=sys.stderr)
        return 1
    write_inputs(outdir / "inputs")
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    for name, args in commands():
        run = outdir / "runs" / name
        run.mkdir(parents=True)
        out = ["--out", f"runs/{name}", "--seed", SEED]
        if args[0] in ("test", "mc-experiment") and "--jobs" not in args:
            out += ["--jobs", "1"]
        proc = subprocess.run(
            [sys.executable, "-m", "netformtest", *args, *out],
            cwd=outdir,
            env=env,
            capture_output=True,
            text=True,
        )
        (run / "exit_code").write_text(f"{proc.returncode}\n")
        (run / "stdout").write_text(proc.stdout)
        (run / "stderr").write_text(proc.stderr)
        manifest = run / "manifest.json"
        if manifest.exists():
            record = json.loads(manifest.read_text())
            for key in TIMING_FIELDS:
                record.pop(key, None)
            manifest.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"{name}: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
