"""Command-line interface.

Subcommands: sample, fit, simulate, test, mc-experiment, enumerate,
calibrate.  Every run writes its artifacts plus exactly one manifest.json
(provenance: resolved configuration, seed, input digests, wall clock,
warnings) into --out.  Given identical inputs and --seed, result artifacts
are byte-identical across reruns and --jobs settings; the manifest differs
only in its timing fields.

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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .graphs import (
    AdjacencyMatrix,
    DataError,
    GroupAssignment,
    cross_link_matrix,
    degree_sequence,
    from_edge_list,
    read_edge_csv,
    read_node_csv,
)
from .harness import ExperimentConfig, run_experiment, table1_calibration
from .model import (
    NuisanceParams,
    SeparationError,
    mle_null,
    null_log_likelihood,
    simulate_alternative,
    simulate_null,
    strategic_spec,
)
from ._rng import substream_generator
from .sampler import ChainConfig, ChainStats, FrozenChainError, enumerate_reference_set
from .testing import TestStatisticSpec, conditional_p_value, reference_draws

__version__ = "0.1.0"

__all__ = ["RunManifest", "dispatch", "get_parser", "main"]

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
class RunManifest:
    """Provenance record; exactly one is written per output directory."""

    subcommand: str
    config: dict
    seed: int
    version: str
    input_digests: dict
    started_at: str
    wall_clock_sec: float
    warnings: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "config": self.config,
            "seed": self.seed,
            "version": self.version,
            "input_digests": self.input_digests,
            "started_at": self.started_at,
            "wall_clock_sec": self.wall_clock_sec,
            "warnings": list(self.warnings),
        }


@dataclass
class _RunContext:
    outdir: Path
    seed: int
    jobs: int
    digests: dict = field(default_factory=dict)

    def track(self, path) -> Path:
        p = Path(path)
        self.digests[str(p)] = hashlib.sha256(p.read_bytes()).hexdigest()
        return p


# -- input loading -------------------------------------------------------------


def _load_network(args, ctx: _RunContext) -> tuple[AdjacencyMatrix, GroupAssignment]:
    base = args.index_base
    edges = read_edge_csv(ctx.track(args.edges), base)
    if getattr(args, "nodes", None):
        n, g = read_node_csv(ctx.track(args.nodes), base)
    else:
        if getattr(args, "n_nodes", None):
            n = args.n_nodes
        elif edges:
            n = max(max(i, j) for i, j in edges) + 1
        else:
            raise DataError("empty edge list and no --nodes/--n-nodes given")
        g = GroupAssignment.single_group(n)
    return from_edge_list(edges, n), g


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
    g = GroupAssignment(codes, delta.n_groups)
    if g.n_nodes != delta.n_nodes:
        raise DataError(f"{path}: groups and effects disagree on node count")
    return delta, g


def _chain_config(args) -> ChainConfig | None:
    """The walk that --tau and --q fix; None means pilot-tuned (--tau-auto)."""
    if args.tau is not None:
        return ChainConfig(tau=args.tau, q=args.q)
    return None


def _fit_gradient_sup_norm(d, delta, g) -> float:
    from .model import _null_gradient, logistic_cdf, systematic_utility

    mu = systematic_utility(delta, g)
    P = logistic_cdf(np.where(np.isnan(mu), 0.0, mu))
    np.fill_diagonal(P, 0.0)
    n = d.n
    codes = np.asarray(g.codes)
    Z = np.zeros((n, g.n_groups))
    Z[np.arange(n), codes] = 1.0
    ga, gb, glam = _null_gradient(d.to_array().astype(float), P, Z)
    return float(max(np.abs(ga).max(), np.abs(gb).max(), np.abs(glam).max()))


# -- subcommand handlers ---------------------------------------------------------


def _cmd_sample(args, ctx: _RunContext) -> dict:
    d, g = _load_network(args, ctx)
    conditioning = "degree_and_crosslink" if args.nodes else "degree_only"
    draws = reference_draws(
        d,
        g,
        conditioning,
        args.draws,
        _chain_config(args),
        ctx.seed,
        mixing_r=args.tau_auto,
        q=args.q,
    )
    stats = ChainStats()
    rows = []
    for b in range(draws.n_draws):
        for i, j in draws.draw(b, stats).arcs():
            rows.append((b, i + args.index_base, j + args.index_base))
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
        "gradient_sup_norm": _fit_gradient_sup_norm(d, delta, g),
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
        spec = strategic_spec(_SPEC_OF[args.spec], g.n_nodes)
        d = simulate_alternative(delta, args.gamma, spec, g, rng)
    _write_csv(
        ctx.outdir / "edges.csv",
        ["source", "target"],
        [(i + args.index_base, j + args.index_base) for i, j in d.arcs()],
    )
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
    if args.delta_source == "provided":
        if not args.params:
            raise DataError("--delta-source provided requires --params")
        delta, g_params = _load_params(args.params, ctx)
        if not getattr(args, "nodes", None):
            g = g_params
    stat = TestStatisticSpec(
        kind=kind,
        strategic=_SPEC_OF[args.spec] if kind == "locally_best" else None,
        delta_source=args.delta_source,
        delta=delta,
    )
    result = conditional_p_value(
        d,
        g,
        stat,
        reference=reference,
        n_draws=args.draws,
        cfg=_chain_config(args),
        seed=ctx.seed,
        jobs=ctx.jobs,
        mixing_r=args.tau_auto,
        q=args.q,
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
        "delta_source": args.delta_source,
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
    for key in ("n_nodes", "n_reps", "n_draws", "alpha", "mixing_r"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    if args.spec is not None:
        overrides["strategic"] = _SPEC_OF[args.spec]
    if args.reference is not None:
        overrides["reference"] = _REFERENCE_OF[args.reference]
    if args.gammas is not None:
        overrides["gammas"] = tuple(float(x) for x in args.gammas.split(","))
    if args.statistics is not None:
        overrides["statistics"] = tuple(args.statistics.split(","))
    if "gammas" in overrides:
        overrides["gammas"] = tuple(overrides["gammas"])
    if "statistics" in overrides:
        overrides["statistics"] = tuple(overrides["statistics"])
    try:
        cfg = ExperimentConfig(**overrides)
    except TypeError as exc:
        raise DataError(f"bad experiment configuration: {exc}") from exc
    table = run_experiment(cfg, ctx.seed, jobs=ctx.jobs)
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
    members = enumerate_reference_set(degree_sequence(d), cross_link_matrix(d, g), g)
    summary = {
        "n_nodes": d.n,
        "arc_count": d.arc_count(),
        "n_groups": g.n_groups,
        "reference_set_size": len(members),
    }
    _write_json(ctx.outdir / "enumeration.json", summary)
    if args.write_members:
        rows = []
        for idx, member in enumerate(members):
            for i, j in member.arcs():
                rows.append((idx, i + args.index_base, j + args.index_base))
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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=".", help="output directory (default: current)")
    p.add_argument("--seed", type=int, default=None, help="root seed (default: system entropy)")
    p.add_argument(
        "--jobs",
        type=int,
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
        help="node count when --nodes is absent (default: max id + 1)",
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
    p.add_argument(
        "--tau", type=int, default=None, help="chain steps per draw (default: pilot-tuned)"
    )
    p.add_argument(
        "--tau-auto",
        type=float,
        default=10.0,
        metavar="R",
        help="pilot-tune tau to modify each arc R times per draw (ignored with --tau)",
    )
    p.add_argument(
        "--q", type=float, default=0.5, help="laziness probability of the pilot and the draws"
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
        default="transitivity",
        choices=sorted(_SPEC_OF),
        help="interaction term for the locally-best statistic",
    )
    p.add_argument(
        "--delta-source",
        default="fitted",
        choices=("fitted", "provided"),
        help="nuisance parameters: fit on the observed network, or take --params",
    )
    p.add_argument("--params", default=None, help="params.json (with --delta-source provided)")
    p.add_argument(
        "--reference",
        default="degree-crosslink",
        choices=sorted(_REFERENCE_OF),
        help="conditioning level of the null reference set",
    )
    _add_chain_options(p)
    _add_common(p)
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
    ctx = _RunContext(outdir=outdir, seed=seed, jobs=max(1, args.jobs))
    import warnings as _warnings

    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        try:
            config = args.handler(args, ctx)
        except DataError as exc:
            print(f"data error: {exc}", file=sys.stderr)
            return 3
        except (OSError, json.JSONDecodeError) as exc:
            print(f"data error: {exc}", file=sys.stderr)
            return 3
        except (SeparationError, FrozenChainError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 4
        except ValueError as exc:
            print(f"data error: {exc}", file=sys.stderr)
            return 3
    manifest = RunManifest(
        subcommand=args.subcommand,
        config=config,
        seed=seed,
        version=__version__,
        input_digests=ctx.digests,
        started_at=started,
        wall_clock_sec=time.perf_counter() - t0,
        warnings=[str(w.message) for w in caught],
    )
    _write_json(outdir / "manifest.json", manifest.as_dict())
    return 0


#: Entry point alias: parse argv, run the subcommand, return the exit code.
dispatch = main


if __name__ == "__main__":
    raise SystemExit(main())
