"""Command-line interface.

Subcommands: sample, fit, simulate, test, mc-experiment, enumerate,
calibrate.  Every run writes its artifacts plus exactly one manifest.json
(provenance: resolved configuration, seed, package and numpy versions, input
digests, wall clock, warnings) into --out.  Given identical inputs, --seed and
numpy version, result artifacts are byte-identical across reruns and --jobs
settings; the manifest differs only in its timing fields.

Exit codes: 0 success, 2 usage errors, 3 data errors (malformed/inconsistent
input files), 4 numerical failures (MLE separation, frozen sampler).

Floats in JSON/CSV outputs are written with 17 significant digits so that
values round-trip exactly; NaN and infinities serialize as JSON null.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import secrets
import sys
import time
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .graphs import (
    AdjacencyMatrix,
    DataError,
    GroupAssignment,
    from_edge_list,
    read_edge_csv,
    read_node_csv,
)
from .harness import ExperimentConfig, run_experiment, table1_calibration
from .model import (
    NuisanceParams,
    SeparationError,
    mle_null,
    null_gradient_sup_norm,
    null_log_likelihood,
    simulate_alternative,
    simulate_null,
    strategic_spec,
)
from . import __version__
from ._rng import substream_generator
from .sampler import ChainConfig, ChainStats, FrozenChainError, enumerate_reference_set
from .testing import TestStatisticSpec, conditional_p_value, reference_draws

__all__ = ["get_parser", "main"]

_STATISTIC_OF = {
    "locally-best": "locally_best",
    "ti": "transitivity_index",
    "reciprocity": "reciprocity_index",
}
_SPEC_OF = {
    "reciprocity": "reciprocity",
    "transitivity": "transitivity",
    "customer-product": "customer_product",
}
_REFERENCE_OF = {
    "density": "density_only",
    "degree": "degree_only",
    "degree-crosslink": "degree_and_crosslink",
    "enumerated": "enumerated",
}


# -- deterministic serialization ---------------------------------------------


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        return "null"
    return format(x, ".17g")


def _json_dumps(obj, indent: int = 0) -> str:
    """Minimal JSON writer with sorted keys and fixed 17-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [inner + _json_dumps(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            inner + json.dumps(str(k)) + ": " + _json_dumps(obj[k], indent + 1)
            for k in sorted(obj, key=str)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_json(path: Path, obj) -> None:
    path.write_text(_json_dumps(obj) + "\n")


def _csv_cell(v) -> str:
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float):
        return _format_float(v)
    return str(v)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])


@dataclass
class _RunContext:
    outdir: Path
    seed: int
    digests: dict = field(default_factory=dict)

    def track(self, path) -> Path:
        p = Path(path)
        self.digests[str(p)] = hashlib.sha256(p.read_bytes()).hexdigest()
        return p


# -- input loading -------------------------------------------------------------


def _load_network(args, ctx: _RunContext) -> tuple[AdjacencyMatrix, GroupAssignment]:
    base = args.index_base
    edges = read_edge_csv(ctx.track(args.edges), base)
    if args.nodes:
        n, g = read_node_csv(ctx.track(args.nodes), base)
        if args.n_nodes is not None and args.n_nodes != n:
            raise DataError(f"--n-nodes {args.n_nodes} disagrees with the {n} nodes of --nodes")
        return from_edge_list(edges, n), g
    if args.n_nodes is not None:
        n = args.n_nodes
    elif edges:
        n = max(max(i, j) for i, j in edges) + 1
    else:
        raise DataError("empty edge list and no --nodes/--n-nodes given")
    d = from_edge_list(edges, n)  # refuses n < 1 before the group does
    return d, GroupAssignment.single_group(n)


def _load_params(path, ctx: _RunContext) -> tuple[NuisanceParams, GroupAssignment]:
    raw = json.loads(ctx.track(path).read_text())
    try:
        delta = NuisanceParams(
            np.asarray(raw["sender"], dtype=float),
            np.asarray(raw["receiver"], dtype=float),
            np.asarray(raw["mixing"], dtype=float),
        )
        codes = tuple(int(c) for c in raw["groups"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed parameter file: {exc}") from exc
    for name in ("sender", "receiver", "mixing"):
        if not np.isfinite(getattr(delta, name)).all():
            raise DataError(f"{path}: {name} has an entry that is not finite")
    g = GroupAssignment(codes, delta.n_groups)
    if g.n_nodes != delta.n_nodes:
        raise DataError(f"{path}: groups and effects disagree on node count")
    return delta, g


def _arc_rows(networks, index_base: int) -> list[tuple[int, int, int]]:
    """(index, source, target) for every arc of each network, an
    ``AdjacencyMatrix`` or a dense 0/1 array, in row-major order."""
    return [
        (idx, i + index_base, j + index_base)
        for idx, d in enumerate(networks)
        for i, j in np.argwhere(np.asarray(d)).tolist()
    ]


# -- subcommand handlers ---------------------------------------------------------


def _cmd_sample(args, ctx: _RunContext) -> dict:
    d, g = _load_network(args, ctx)
    conditioning = "degree_and_crosslink" if args.nodes else "degree_only"
    draws = reference_draws(
        d,
        g,
        conditioning,
        args.draws,
        ChainConfig(args.tau, args.q, args.tau_auto),
        ctx.seed,
    )
    stats = ChainStats()
    rows = _arc_rows((draws.draw(b, stats) for b in range(draws.n_draws)), args.index_base)
    _write_csv(ctx.outdir / "draws.csv", ["draw", "source", "target"], rows)
    cfg = draws.cfg
    print(
        f"wrote {args.draws} draws (tau={cfg.tau}, q={cfg.q:g}, "
        f"acceptance rate {stats.acceptance_rate:.3f})"
    )
    return {
        "edges": str(args.edges),
        "nodes": str(args.nodes) if args.nodes else None,
        "conditioning": conditioning,
        "draws": args.draws,
        "tau": cfg.tau,
        "q": cfg.q,
        "index_base": args.index_base,
    }


def _cmd_fit(args, ctx: _RunContext) -> dict:
    d, g = _load_network(args, ctx)
    delta = mle_null(d, g)
    ll = null_log_likelihood(d, delta, g)
    out = {
        "sender": delta.sender,
        "receiver": delta.receiver,
        "mixing": delta.mixing,
        "groups": list(g.codes),
        "n_nodes": d.n,
        "log_likelihood": ll,
        "gradient_sup_norm": null_gradient_sup_norm(d, delta, g),
        "converged": True,
        "normalization": "mixing[0, :] = mixing[:, 0] = 0; mean(receiver) = 0",
    }
    _write_json(ctx.outdir / "params.json", out)
    print(f"fitted {d.n}-node null model; log-likelihood {ll:.6f}")
    return {
        "edges": str(args.edges),
        "nodes": str(args.nodes) if args.nodes else None,
        "index_base": args.index_base,
    }


def _cmd_simulate(args, ctx: _RunContext) -> dict:
    delta, g = _load_params(args.params, ctx)
    rng = substream_generator(ctx.seed, 0)
    if args.gamma == 0.0:
        d = simulate_null(delta, g, rng)
    else:
        spec = strategic_spec(_SPEC_OF[args.spec])
        d = simulate_alternative(delta, args.gamma, spec, g, rng)
    arcs = [(i, j) for _, i, j in _arc_rows([d], args.index_base)]
    _write_csv(ctx.outdir / "edges.csv", ["source", "target"], arcs)
    print(f"simulated network with {d.arc_count()} arcs on {d.n} nodes")
    return {
        "params": str(args.params),
        "gamma": args.gamma,
        "spec": args.spec if args.gamma != 0.0 else None,
        "index_base": args.index_base,
    }


def _cmd_test(args, ctx: _RunContext) -> dict:
    d, g = _load_network(args, ctx)
    kind = _STATISTIC_OF[args.statistic]
    reference = _REFERENCE_OF[args.reference]
    delta = None
    delta_source = "provided" if args.params else "fitted"
    if args.params:
        delta, g_params = _load_params(args.params, ctx)
        if g_params.n_nodes != d.n:
            raise DataError(
                f"{args.params} covers {g_params.n_nodes} nodes, but the "
                f"network from --edges has {d.n}"
            )
        if args.nodes:
            # Both files must make the same partition, whatever its codes;
            # mixing is indexed by the codes of the parameter file.
            to_params, to_nodes = {}, {}
            for i, (a, b) in enumerate(zip(g.codes, g_params.codes)):
                if to_params.setdefault(a, b) != b or to_nodes.setdefault(b, a) != a:
                    raise DataError(
                        f"{args.params} and {args.nodes} disagree on the group "
                        f"of node {i + args.index_base}"
                    )
        g = g_params
    spec = args.spec
    if spec is None and kind == "locally_best":
        spec = "transitivity"
    stat = TestStatisticSpec(
        kind=kind,
        strategic=_SPEC_OF[spec] if spec is not None else None,
        delta_source=delta_source,
        delta=delta,
    )
    result = conditional_p_value(
        d,
        g,
        stat,
        reference=reference,
        n_draws=args.draws,
        cfg=ChainConfig(args.tau, args.q, args.tau_auto),
        seed=ctx.seed,
        jobs=args.jobs,
    )
    _write_json(
        ctx.outdir / "result.json",
        {
            "statistic": result.statistic,
            "observed": result.observed,
            "p_value": result.p_value,
            "quantile": result.quantile,
            "reference": result.reference,
            "draws": result.n_draws,
            "tau": result.tau,
            "q": result.q,
            "seed": result.seed,
            "diagnostics": result.diagnostics,
        },
    )
    _write_csv(
        ctx.outdir / "null_draws.csv",
        ["draw", "value"],
        list(enumerate(result.null_draws)),
    )
    obs = "undefined" if result.observed != result.observed else f"{result.observed:.6g}"
    pval = "undefined" if result.p_value != result.p_value else f"{result.p_value:.6g}"
    print(f"{result.statistic}: observed {obs}, p-value {pval} ({result.reference}, {result.n_draws} draws)")
    return {
        "edges": str(args.edges),
        "nodes": str(args.nodes) if args.nodes else None,
        "params": str(args.params) if args.params else None,
        "statistic": kind,
        "spec": stat.strategic,
        "delta_source": delta_source,
        "reference": reference,
        "draws": args.draws,
        "tau": result.tau,
        "q": result.q,
        "index_base": args.index_base,
    }


def _cmd_mc_experiment(args, ctx: _RunContext) -> dict:
    overrides = {}
    if args.config:
        raw = json.loads(ctx.track(args.config).read_text())
        if not isinstance(raw, dict):
            raise DataError(f"{args.config}: expected a JSON object")
        overrides.update(raw)
    given = {"n_nodes": args.n_nodes, "n_reps": args.n_reps, "n_draws": args.n_draws,
             "alpha": args.alpha, "mixing_r": args.mixing_r}
    overrides.update((key, value) for key, value in given.items() if value is not None)
    if args.spec is not None:
        overrides["strategic"] = _SPEC_OF[args.spec]
    if args.reference is not None:
        overrides["reference"] = _REFERENCE_OF[args.reference]
    if args.gammas is not None:
        overrides["gammas"] = [float(x) for x in args.gammas.split(",")]
    if args.statistics is not None:
        overrides["statistics"] = args.statistics.split(",")
    try:
        for key in ("gammas", "statistics"):
            if key in overrides:
                overrides[key] = tuple(overrides[key])
        cfg = ExperimentConfig(**overrides)
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad experiment configuration: {exc}") from exc
    table = run_experiment(cfg, ctx.seed, jobs=args.jobs)
    _write_csv(
        ctx.outdir / "power.csv",
        ["gamma", "statistic", "reject_rate", "se", "reps", "failures"],
        [
            (
                row.gamma,
                row.statistic,
                row.reject_rate,
                row.std_error,
                row.n_used,
                row.n_failures,
            )
            for row in table.rows
        ],
    )
    for row in table.rows:
        print(
            f"gamma={row.gamma:g} {row.statistic}: "
            f"reject rate {row.reject_rate:.3f} (se {row.std_error:.3f}, "
            f"{row.n_used} used, {row.n_failures} failed)"
        )
    config_echo = {f: getattr(cfg, f) for f in cfg.__dataclass_fields__}
    config_echo["gammas"] = list(cfg.gammas)
    config_echo["statistics"] = list(cfg.statistics)
    return config_echo


def _cmd_enumerate(args, ctx: _RunContext) -> dict:
    d, g = _load_network(args, ctx)
    members = enumerate_reference_set(d, g)
    summary = {
        "n_nodes": d.n,
        "arc_count": d.arc_count(),
        "n_groups": g.n_groups,
        "reference_set_size": len(members),
    }
    _write_json(ctx.outdir / "enumeration.json", summary)
    if args.write_members:
        rows = _arc_rows(members, args.index_base)
        _write_csv(ctx.outdir / "members.csv", ["member", "source", "target"], rows)
    print(f"reference set contains {len(members)} networks")
    return {
        "edges": str(args.edges),
        "nodes": str(args.nodes) if args.nodes else None,
        "write_members": bool(args.write_members),
        "index_base": args.index_base,
    }


def _cmd_calibrate(args, ctx: _RunContext) -> dict:
    rows = table1_calibration()
    _write_csv(
        ctx.outdir / "calibration.csv",
        ["sender_level", "receiver_level", "same_group", "utility", "link_prob"],
        [
            (r.sender_level, r.receiver_level, int(r.same_group), r.utility, r.link_prob)
            for r in rows
        ],
    )
    for r in rows:
        scope = "same group" if r.same_group else "across groups"
        print(
            f"sender {r.sender_level:+.1f}, receiver {r.receiver_level:+.1f}, "
            f"{scope}: utility {r.utility:+.1f}, link probability {r.link_prob:.3f}"
        )
    return {}


# -- parser -----------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=".", help="output directory (default: current)")
    p.add_argument("--seed", type=int, default=None, help="root seed (default: system entropy)")


def _add_jobs(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs",
        type=_positive_int,
        default=os.cpu_count() or 1,
        help="worker processes (default: all cores)",
    )


def _add_network_inputs(p: argparse.ArgumentParser, nodes_help: str) -> None:
    p.add_argument("--edges", required=True, help="edge CSV with header source,target")
    p.add_argument("--nodes", default=None, help=nodes_help)
    p.add_argument(
        "--n-nodes",
        type=int,
        default=None,
        help="node count when --nodes is absent (default: max id + 1); "
        "beside --nodes it must match the node file",
    )
    p.add_argument(
        "--index-base",
        type=int,
        choices=(0, 1),
        default=0,
        help="node ids in the CSV files are 0- or 1-based",
    )


def _add_chain_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--draws", type=int, default=200, help="number of reference draws")
    walk = p.add_mutually_exclusive_group()
    walk.add_argument(
        "--tau",
        type=int,
        default=None,
        help="chain steps per draw (default: tuned as --tau-auto says)",
    )
    walk.add_argument(
        "--tau-auto",
        type=float,
        default=ChainConfig.mixing_r,
        metavar="R",
        help=(
            "tune tau so that trades alone modify each arc about R times per "
            "draw (a cycle-switch pilot only where no trade moves an arc or --q "
            "is 0; default: %(default)s)"
        ),
    )
    p.add_argument(
        "--q",
        type=float,
        default=ChainConfig.q,
        help=(
            "same-group trade probability of each chain step, which also scales "
            "the rate that --tau-auto reads; must lie in [0, 1) "
            "(default: %(default)s)"
        ),
    )


def get_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netformtest",
        description="Conditional tests for strategic interaction in directed networks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sample", help="draw uniform reference networks")
    _add_network_inputs(p, "node CSV (node,group); fixes cross-group arc counts too")
    _add_chain_options(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("fit", help="fit the dyad-independent null model")
    _add_network_inputs(p, "node CSV (node,group)")
    _add_common(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("simulate", help="simulate a network from fitted parameters")
    p.add_argument("--params", required=True, help="params.json from `fit`")
    p.add_argument("--gamma", type=float, default=0.0, help="interaction strength")
    p.add_argument(
        "--spec",
        default="transitivity",
        choices=sorted(_SPEC_OF),
        help="interaction term (used when gamma != 0)",
    )
    p.add_argument("--index-base", type=int, choices=(0, 1), default=0)
    _add_common(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("test", help="conditional p-value for one statistic")
    _add_network_inputs(p, "node CSV (node,group)")
    p.add_argument(
        "--statistic",
        default="locally-best",
        choices=sorted(_STATISTIC_OF),
        help="locally-best (score), ti (transitivity index), or reciprocity (index)",
    )
    p.add_argument(
        "--spec",
        default=None,
        choices=sorted(_SPEC_OF),
        help="interaction term for the locally-best statistic (default transitivity)",
    )
    p.add_argument(
        "--params",
        default=None,
        help="params.json from `fit`: take the nuisance parameters from it "
        "instead of fitting them on the observed network",
    )
    p.add_argument(
        "--reference",
        default="degree-crosslink",
        choices=sorted(_REFERENCE_OF),
        help="conditioning level of the null reference set; density and enumerated "
        "run no chain and ignore --q, --tau and --tau-auto, enumerated --draws too",
    )
    _add_chain_options(p)
    _add_common(p)
    _add_jobs(p)
    p.set_defaults(handler=_cmd_test)

    p = sub.add_parser("mc-experiment", help="size/power Monte Carlo study")
    p.add_argument("--config", default=None, help="JSON file of experiment settings")
    p.add_argument("--n-nodes", type=int, default=None)
    p.add_argument("--n-reps", type=int, default=None)
    p.add_argument("--n-draws", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--gammas", default=None, help="comma-separated gamma grid")
    p.add_argument("--spec", default=None, choices=sorted(_SPEC_OF))
    p.add_argument("--statistics", default=None, help="comma-separated statistic names")
    p.add_argument("--reference", default=None, choices=sorted(_REFERENCE_OF))
    p.add_argument("--mixing-r", type=float, default=None)
    _add_common(p)
    _add_jobs(p)
    p.set_defaults(handler=_cmd_mc_experiment)

    p = sub.add_parser("enumerate", help="exhaustively enumerate the reference set")
    _add_network_inputs(p, "node CSV (node,group)")
    p.add_argument("--write-members", action="store_true", help="also write members.csv")
    _add_common(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("calibrate", help="print the study-design link probabilities")
    _add_common(p)
    p.set_defaults(handler=_cmd_calibrate)

    return parser


def main(argv=None) -> int:
    parser = get_parser()
    args = parser.parse_args(argv)
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    seed = args.seed if args.seed is not None else secrets.randbits(63)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    ctx = _RunContext(outdir=outdir, seed=seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            config = args.handler(args, ctx)
        except (SeparationError, FrozenChainError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 4
        except (ValueError, OSError) as exc:  # DataError, JSONDecodeError too
            print(f"data error: {exc}", file=sys.stderr)
            return 3
    manifest = {
        "subcommand": args.subcommand,
        "config": config,
        "seed": seed,
        "version": __version__,
        "numpy_version": np.__version__,
        "input_digests": ctx.digests,
        "started_at": started,
        "wall_clock_sec": time.perf_counter() - t0,
        "warnings": [str(w.message) for w in caught],
    }
    _write_json(outdir / "manifest.json", manifest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
