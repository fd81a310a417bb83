"""End-to-end tests of the command-line interface.

Subcommands are exercised in process through ``main`` (fast, keeps coverage);
one smoke test runs the console script wherever the distribution is installed.
Every CLI contract under test comes in pairs: artifacts on disk plus the
provenance manifest.
"""

import argparse
import ast
import csv
import importlib.metadata
import inspect
import json
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netformtest as nt
import netformtest.cli
from netformtest.cli import main
from netformtest.graphs import transitivity_index
from netformtest.model import logistic_cdf

from _fixtures import CHAIN_FIXTURES, arcs_of, build_fixture, fittable_network

N4_CYCLE = CHAIN_FIXTURES[0]
N4_K2 = CHAIN_FIXTURES[2]


def write_edges(path, arcs, index_base=0):
    lines = ["source,target"] + [f"{i + index_base},{j + index_base}" for i, j in arcs]
    path.write_text("\n".join(lines) + "\n")


def write_nodes(path, codes, index_base=0):
    lines = ["node,group"] + [f"{i + index_base},g{c}" for i, c in enumerate(codes)]
    path.write_text("\n".join(lines) + "\n")


def read_manifest(outdir):
    manifests = list(Path(outdir).glob("manifest*"))
    assert [p.name for p in manifests] == ["manifest.json"]
    return json.loads(manifests[0].read_text())


def read_csv_rows(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


@pytest.fixture(scope="module")
def interior12(tmp_path_factory):
    """A 12-node two-group network whose null MLE exists, written to disk."""
    d, g = fittable_network()
    root = tmp_path_factory.mktemp("interior12")
    write_edges(root / "edges.csv", arcs_of(d))
    write_nodes(root / "nodes.csv", g.codes)
    return d, g, root / "edges.csv", root / "nodes.csv"


# -- calibrate -------------------------------------------------------------------


def test_calibrate_writes_the_probability_table(tmp_path, capsys):
    assert main(["calibrate", "--out", str(tmp_path), "--seed", "1"]) == 0
    header, rows = read_csv_rows(tmp_path / "calibration.csv")
    assert header == ["sender_level", "receiver_level", "same_group", "utility", "link_prob"]
    assert len(rows) == 6
    for row in rows:
        # 17-significant-digit cells round-trip the binary values exactly
        assert float(row["link_prob"]) == float(logistic_cdf(float(row["utility"])))
    printed = [round(float(r["link_prob"]), 2) for r in rows]
    assert printed[:5] == [0.90, 0.50, 0.10, 0.50, 0.10]
    assert round(float(rows[5]["link_prob"]), 3) == 0.012
    manifest = read_manifest(tmp_path)
    assert manifest["subcommand"] == "calibrate"
    assert manifest["seed"] == 1
    assert "probability" in capsys.readouterr().out


# -- enumerate -------------------------------------------------------------------


def test_enumerate_reports_the_reference_set_size(tmp_path):
    name, n, groups, arcs, size = N4_K2
    write_edges(tmp_path / "edges.csv", arcs)
    write_nodes(tmp_path / "nodes.csv", groups)
    out = tmp_path / "out"
    assert (
        main(
            [
                "enumerate",
                "--edges", str(tmp_path / "edges.csv"),
                "--nodes", str(tmp_path / "nodes.csv"),
                "--write-members",
                "--out", str(out),
                "--seed", "1",
            ]
        )
        == 0
    )
    summary = json.loads((out / "enumeration.json").read_text())
    assert summary == {
        "n_nodes": 4,
        "arc_count": len(arcs),
        "n_groups": 2,
        "reference_set_size": size,
    }
    _, member_rows = read_csv_rows(out / "members.csv")
    members = {row["member"] for row in member_rows}
    assert len(members) == size
    assert len(member_rows) == size * len(arcs)  # arc count is preserved
    digests = read_manifest(out)["input_digests"]
    assert sorted(Path(p).name for p in digests) == ["edges.csv", "nodes.csv"]


def test_enumerate_is_insensitive_to_the_index_base(tmp_path):
    name, n, groups, arcs, size = N4_CYCLE
    write_edges(tmp_path / "base0.csv", arcs, index_base=0)
    write_edges(tmp_path / "base1.csv", arcs, index_base=1)
    for base, fname in ((0, "base0.csv"), (1, "base1.csv")):
        out = tmp_path / f"out{base}"
        assert (
            main(
                [
                    "enumerate",
                    "--edges", str(tmp_path / fname),
                    "--index-base", str(base),
                    "--out", str(out),
                    "--seed", "1",
                ]
            )
            == 0
        )
    size0 = json.loads((tmp_path / "out0" / "enumeration.json").read_text())
    size1 = json.loads((tmp_path / "out1" / "enumeration.json").read_text())
    assert size0 == size1
    assert size0["reference_set_size"] == size


# -- sample ----------------------------------------------------------------------


def test_sample_reruns_are_byte_identical(tmp_path):
    arcs = N4_CYCLE[3]
    write_edges(tmp_path / "edges.csv", arcs)
    argv = [
        "sample",
        "--edges", str(tmp_path / "edges.csv"),
        "--draws", "6",
        "--tau", "40",
        "--seed", "11",
    ]
    for sub in ("a", "b"):
        assert main(argv + ["--out", str(tmp_path / sub)]) == 0
    draws_a = (tmp_path / "a" / "draws.csv").read_bytes()
    assert draws_a == (tmp_path / "b" / "draws.csv").read_bytes()
    header, rows = read_csv_rows(tmp_path / "a" / "draws.csv")
    assert header == ["draw", "source", "target"]
    assert {row["draw"] for row in rows} == {str(b) for b in range(6)}
    manifest = read_manifest(tmp_path / "a")
    assert manifest["config"]["conditioning"] == "degree_only"
    assert manifest["config"]["tau"] == 40
    # each draw preserves both degree sequences
    for b in range(6):
        draw_arcs = [
            (int(r["source"]), int(r["target"])) for r in rows if r["draw"] == str(b)
        ]
        d = nt.from_edge_list(draw_arcs, 4)
        assert sorted(d.out_degrees()) == [1, 1, 1, 1]
        assert sorted(d.in_degrees()) == [1, 1, 1, 1]


def test_sample_with_one_based_ids_shifts_both_ways(tmp_path):
    arcs = N4_CYCLE[3]
    write_edges(tmp_path / "edges0.csv", arcs, index_base=0)
    write_edges(tmp_path / "edges1.csv", arcs, index_base=1)
    for base, fname, sub in ((0, "edges0.csv", "a"), (1, "edges1.csv", "b")):
        assert (
            main(
                [
                    "sample",
                    "--edges", str(tmp_path / fname),
                    "--index-base", str(base),
                    "--draws", "4",
                    "--tau", "30",
                    "--seed", "7",
                    "--out", str(tmp_path / sub),
                ]
            )
            == 0
        )
    _, rows0 = read_csv_rows(tmp_path / "a" / "draws.csv")
    _, rows1 = read_csv_rows(tmp_path / "b" / "draws.csv")
    shifted = [
        (r["draw"], str(int(r["source"]) + 1), str(int(r["target"]) + 1)) for r in rows0
    ]
    assert shifted == [(r["draw"], r["source"], r["target"]) for r in rows1]


@pytest.mark.parametrize("q", ["0.5", "0.2"])
def test_test_and_sample_tune_and_draw_the_same_walk(tmp_path, interior12, q):
    """Without --tau, --q sets the trade probability of the pilot and of the
    draws in both subcommands, so the same inputs and seed give the same
    draws."""
    d, g, edges, nodes = interior12
    common = [
        "--edges", str(edges),
        "--nodes", str(nodes),
        "--draws", "6",
        "--tau-auto", "1",
        "--q", q,
        "--seed", "23",
    ]
    test_out, sample_out = tmp_path / "test", tmp_path / "sample"
    assert main(["test", "--statistic", "ti", "--jobs", "1", "--out", str(test_out)] + common) == 0
    assert main(["sample", "--out", str(sample_out)] + common) == 0
    result = json.loads((test_out / "result.json").read_text())
    sampled = read_manifest(sample_out)["config"]
    assert result["q"] == sampled["q"] == float(q)
    assert result["tau"] == sampled["tau"] == read_manifest(test_out)["config"]["tau"]
    _, rows = read_csv_rows(sample_out / "draws.csv")
    expected = [
        transitivity_index(
            nt.from_edge_list(
                [(int(r["source"]), int(r["target"])) for r in rows if r["draw"] == str(b)],
                d.n,
            )
        )
        for b in range(6)
    ]
    _, null_rows = read_csv_rows(test_out / "null_draws.csv")
    assert [float(r["value"]) for r in null_rows] == expected


def test_every_walk_default_reads_the_chain_configs_trade_share():
    default = nt.ChainConfig()
    heuristic = inspect.signature(nt.mixing_time_heuristic).parameters
    assert heuristic["q"].default == default.q
    assert heuristic["r"].default == default.mixing_r
    assert nt.ExperimentConfig().q == default.q
    parser = netformtest.cli.get_parser()
    for subcommand in ("test", "sample"):
        args = parser.parse_args([subcommand, "--edges", "e.csv"])
        assert (args.q, args.tau_auto) == (default.q, default.mixing_r)


@pytest.mark.parametrize("order", ["tau-first", "tau-auto-first"])
@pytest.mark.parametrize("subcommand", ["test", "sample"])
def test_tau_and_tau_auto_exclude_each_other(subcommand, order):
    flags = [["--tau", "5"], ["--tau-auto", "2"]]
    if order == "tau-auto-first":
        flags.reverse()
    parser = netformtest.cli.get_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([subcommand, "--edges", "e.csv", *flags[0], *flags[1]])
    assert exc.value.code == 2
    # Either flag alone parses.
    for flag in flags:
        parser.parse_args([subcommand, "--edges", "e.csv", *flag])


# -- fit -------------------------------------------------------------------------


def test_fit_writes_a_moment_matched_parameter_file(tmp_path, interior12):
    d, g, edges, nodes = interior12
    out = tmp_path / "fit"
    assert (
        main(
            [
                "fit",
                "--edges", str(edges),
                "--nodes", str(nodes),
                "--out", str(out),
                "--seed", "1",
            ]
        )
        == 0
    )
    params = json.loads((out / "params.json").read_text())
    assert params["n_nodes"] == 12
    assert params["groups"] == list(g.codes)
    assert len(params["sender"]) == 12 and len(params["receiver"]) == 12
    assert params["mixing"][0] == [0.0, 0.0]  # identification normalization
    assert params["gradient_sup_norm"] < 1e-6
    assert params["converged"] is True
    delta = nt.mle_null(d, g)
    assert params["log_likelihood"] == nt.null_log_likelihood(d, delta, g)


# -- simulate / test round trip ----------------------------------------------------


def test_fit_simulate_test_pipeline(tmp_path, interior12):
    d, g, edges, nodes = interior12
    fit_dir, sim_dir = tmp_path / "fit", tmp_path / "sim"
    assert main(["fit", "--edges", str(edges), "--nodes", str(nodes),
                 "--out", str(fit_dir), "--seed", "1"]) == 0
    assert (
        main(
            [
                "simulate",
                "--params", str(fit_dir / "params.json"),
                "--gamma", "0.3",
                "--spec", "transitivity",
                "--out", str(sim_dir),
                "--seed", "5",
            ]
        )
        == 0
    )
    sim_manifest = read_manifest(sim_dir)
    assert sim_manifest["config"]["gamma"] == 0.3
    test_argv = [
        "test",
        "--edges", str(sim_dir / "edges.csv"),
        "--nodes", str(nodes),
        "--statistic", "locally-best",
        "--spec", "transitivity",
        "--params", str(fit_dir / "params.json"),
        "--reference", "degree-crosslink",
        "--tau", "30",
        "--draws", "25",
        "--seed", "9",
    ]
    assert main(test_argv + ["--out", str(tmp_path / "t1"), "--jobs", "1"]) == 0
    assert main(test_argv + ["--out", str(tmp_path / "t2"), "--jobs", "2"]) == 0
    result = json.loads((tmp_path / "t1" / "result.json").read_text())
    assert set(result) == {
        "statistic", "observed", "p_value", "quantile", "reference",
        "draws", "tau", "q", "seed", "diagnostics",
    }
    assert result["statistic"] == "locally_best"
    assert result["reference"] == "degree_and_crosslink"
    assert result["draws"] == 25
    assert result["tau"] == 30
    assert result["seed"] == 9
    assert 1 / 26 <= result["p_value"] <= 1.0
    assert 0.0 <= result["quantile"] <= 1.0
    assert set(result["diagnostics"]) == {
        "missing_draws", "acceptance_rate", "per_arc_modifications",
    }
    # artifacts are byte-identical across reruns and --jobs settings
    for name in ("result.json", "null_draws.csv"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()
    m1, m2 = read_manifest(tmp_path / "t1"), read_manifest(tmp_path / "t2")
    for manifest in (m1, m2):
        manifest.pop("started_at")
        manifest.pop("wall_clock_sec")
    assert m1 == m2


def test_params_alone_selects_the_given_parameters(tmp_path, interior12):
    """``test --params P`` tests at the parameters of P, as the library does
    with ``delta_source="provided"``; without ``--params`` they are fitted."""
    d, g, edges, nodes = interior12
    fitted = nt.mle_null(d, g)
    delta = nt.NuisanceParams(fitted.sender + 0.3, fitted.receiver, fitted.mixing)
    params = tmp_path / "params.json"
    params.write_text(
        json.dumps(
            {
                "sender": delta.sender.tolist(),
                "receiver": delta.receiver.tolist(),
                "mixing": delta.mixing.tolist(),
                "groups": list(g.codes),
            }
        )
    )
    argv = ["test", "--edges", str(edges), "--nodes", str(nodes), "--draws", "20"]
    argv += ["--tau", "30", "--seed", "9", "--jobs", "1"]
    given, own = tmp_path / "given", tmp_path / "own"
    assert main(argv + ["--params", str(params), "--out", str(given)]) == 0
    assert main(argv + ["--out", str(own)]) == 0
    expected = nt.conditional_p_value(
        d,
        g,
        nt.TestStatisticSpec("locally_best", "transitivity", "provided", delta),
        reference="degree_and_crosslink",
        n_draws=20,
        cfg=nt.ChainConfig(30),
        seed=9,
    )
    result = json.loads((given / "result.json").read_text())
    for key in ("statistic", "observed", "p_value", "quantile", "reference", "tau", "q"):
        assert result[key] == getattr(expected, key), key
    _, rows = read_csv_rows(given / "null_draws.csv")
    assert [float(r["value"]) for r in rows] == list(expected.null_draws)
    config = read_manifest(given)["config"]
    assert (config["delta_source"], config["params"]) == ("provided", str(params))
    assert str(params) in read_manifest(given)["input_digests"]
    config = read_manifest(own)["config"]
    assert (config["delta_source"], config["params"]) == ("fitted", None)
    assert json.loads((own / "result.json").read_text())["observed"] != result["observed"]


def test_density_reference_is_byte_identical_across_reruns_and_jobs(tmp_path, interior12):
    d, g, edges, nodes = interior12
    argv = [
        "test",
        "--edges", str(edges),
        "--nodes", str(nodes),
        "--statistic", "ti",
        "--reference", "density",
        "--draws", "50",
        "--seed", "13",
    ]
    runs = {"a": ["--jobs", "1"], "b": ["--jobs", "1"], "c": ["--jobs", "2"]}
    for out, extra in runs.items():
        assert main(argv + ["--out", str(tmp_path / out)] + extra) == 0
    result = json.loads((tmp_path / "a" / "result.json").read_text())
    assert result["reference"] == "density_only"
    assert result["draws"] == 50
    manifests = {}
    for out in runs:
        for name in ("result.json", "null_draws.csv"):
            assert (tmp_path / out / name).read_bytes() == (tmp_path / "a" / name).read_bytes()
        manifests[out] = read_manifest(tmp_path / out)
        manifests[out].pop("started_at")
        manifests[out].pop("wall_clock_sec")
    assert manifests["a"] == manifests["b"] == manifests["c"]
    assert manifests["a"]["numpy_version"] == np.__version__


def test_enumerated_reference_gives_the_exact_tail(tmp_path):
    name, n, groups, arcs, size = N4_CYCLE
    write_edges(tmp_path / "edges.csv", arcs)
    out = tmp_path / "out"
    assert (
        main(
            [
                "test",
                "--edges", str(tmp_path / "edges.csv"),
                "--statistic", "reciprocity",
                "--reference", "enumerated",
                "--out", str(out),
                "--seed", "1",
            ]
        )
        == 0
    )
    result = json.loads((out / "result.json").read_text())
    d, g, _ = build_fixture(N4_CYCLE)
    expected = nt.conditional_p_value(
        d, g, nt.TestStatisticSpec(kind="reciprocity_index"), reference="enumerated"
    )
    assert result["p_value"] == expected.p_value  # 17-digit round trip is exact
    assert result["observed"] == expected.observed
    assert result["draws"] == size - 1
    assert result["tau"] is None and result["q"] is None
    assert result["diagnostics"]["acceptance_rate"] is None


# -- mc-experiment -----------------------------------------------------------------


def test_mc_experiment_writes_the_power_table(tmp_path):
    out = tmp_path / "out"
    assert (
        main(
            [
                "mc-experiment",
                "--n-nodes", "16",
                "--n-reps", "3",
                "--n-draws", "15",
                "--alpha", "0.2",
                "--gammas", "0,0.3",
                "--statistics", "transitivity_index",
                "--out", str(out),
                "--seed", "4",
                "--jobs", "1",
            ]
        )
        == 0
    )
    header, rows = read_csv_rows(out / "power.csv")
    assert header == ["gamma", "statistic", "reject_rate", "se", "reps", "failures"]
    assert [(r["gamma"], r["statistic"]) for r in rows] == [
        ("0", "transitivity_index"),
        ("0.29999999999999999", "transitivity_index"),
    ]
    for row in rows:
        assert int(row["reps"]) + int(row["failures"]) == 3
        assert 0.0 <= float(row["reject_rate"]) <= 1.0
    config = read_manifest(out)["config"]
    assert config["alpha"] == 0.2
    assert config["gammas"] == [0.0, 0.3]
    assert config["statistics"] == ["transitivity_index"]


def test_mc_experiment_flags_override_the_config_file(tmp_path):
    cfg_file = tmp_path / "experiment.json"
    cfg_file.write_text(
        json.dumps(
            {
                "n_nodes": 16,
                "n_reps": 2,
                "n_draws": 10,
                "alpha": 0.5,
                "gammas": [0.0],
                "statistics": ["transitivity_index"],
            }
        )
    )
    out = tmp_path / "out"
    assert (
        main(
            [
                "mc-experiment",
                "--config", str(cfg_file),
                "--alpha", "0.2",
                "--out", str(out),
                "--seed", "4",
                "--jobs", "1",
            ]
        )
        == 0
    )
    manifest = read_manifest(out)
    assert manifest["config"]["alpha"] == 0.2  # flag wins over the file
    assert manifest["config"]["n_reps"] == 2
    assert str(cfg_file) in manifest["input_digests"]


# -- failure modes -----------------------------------------------------------------


def test_usage_errors_exit_with_code_2(tmp_path):
    for argv in (
        ["sample"],
        ["no-such-command"],
        [],
        ["test", "--edges", "e.csv", "--jobs", "0", "--out", str(tmp_path)],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "content, message",
    [
        ("from,to\n0,1\n", "expected header"),
        ("source,target\n0,1\nx,2\n", "line 3: non-integer id"),
        ("source,target\n0,1\n4\n", "line 3: expected 2 columns"),
        ("source,target\n0,1\n0,-1\n", "line 3: id below index base"),
    ],
)
def test_malformed_edge_files_exit_with_code_3(tmp_path, capsys, content, message):
    (tmp_path / "edges.csv").write_text(content)
    code = main(
        ["enumerate", "--edges", str(tmp_path / "edges.csv"), "--out", str(tmp_path / "o"), "--seed", "1"]
    )
    assert code == 3
    assert message in capsys.readouterr().err


def test_empty_edge_list_without_node_count_exits_3(tmp_path, capsys):
    (tmp_path / "edges.csv").write_text("source,target\n")
    code = main(
        ["enumerate", "--edges", str(tmp_path / "edges.csv"), "--out", str(tmp_path / "o"), "--seed", "1"]
    )
    assert code == 3
    assert "empty edge list" in capsys.readouterr().err


def test_bad_experiment_settings_exit_3(tmp_path, capsys):
    cfg_file = tmp_path / "experiment.json"
    for bad in (
        {"n_nodes": 16, "walk_length": 9},
        {"gammas": 0.5},
        {"statistics": 5},
        {"n_reps": 1.5},
        {"n_nodes": 12.5},
    ):
        cfg_file.write_text(json.dumps(bad))
        code = main(
            ["mc-experiment", "--config", str(cfg_file), "--out", str(tmp_path / "o"), "--seed", "1"]
        )
        assert code == 3, bad
        assert "bad experiment configuration" in capsys.readouterr().err
    # refused when the configuration is built, before any replication runs
    for bad in (
        {"reference": "bogus"},
        {"q": 1.5},
        {"mixing_r": -1},
        {"reference": "enumerated"},
        {"statistics": []},
        {"gammas": []},
    ):
        cfg_file.write_text(json.dumps(bad))
        code = main(
            ["mc-experiment", "--config", str(cfg_file), "--n-nodes", "8", "--n-reps", "2"]
            + ["--out", str(tmp_path / "o"), "--seed", "1"]
        )
        assert code == 3, bad
        assert "bad experiment configuration" in capsys.readouterr().err
    code = main(
        ["mc-experiment", "--alpha", "0", "--n-reps", "1", "--out", str(tmp_path / "o2"), "--seed", "1"]
    )
    assert code == 3
    assert "alpha" in capsys.readouterr().err
    # non-finite numbers on the command line
    for flags, message in (
        (["--mixing-r", "inf"], "mixing_r must be finite"),
        (["--gammas", "inf"], "gammas must be finite"),
        (["--gammas", "nan"], "gammas must be finite"),
    ):
        code = main(
            ["mc-experiment", "--n-nodes", "16", *flags]
            + ["--out", str(tmp_path / "o3"), "--seed", "1"]
        )
        assert code == 3, flags
        assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["fit", "--edges", "e.csv"],
        ["sample", "--edges", "e.csv"],
        ["simulate", "--params", "p.json"],
        ["enumerate", "--edges", "e.csv"],
        ["calibrate"],
    ],
    ids=lambda command: command[0],
)
def test_jobs_is_offered_only_where_work_runs_in_parallel(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--jobs", "1", "--out", str(tmp_path / "o"), "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "r, message",
    [
        ("inf", "mixing_r must be finite"),
        ("nan", "mixing_r must be finite"),
        ("1e308", "walk length that is not finite"),
    ],
)
def test_non_finite_walk_settings_exit_3(tmp_path, capsys, interior12, r, message):
    _, _, edges, nodes = interior12
    code = main(
        ["test", "--edges", str(edges), "--nodes", str(nodes), "--draws", "5"]
        + ["--tau-auto", r, "--out", str(tmp_path / "o"), "--seed", "1"]
    )
    assert code == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "gamma", [["--gamma", "nan"], ["--gamma", "inf"], ["--gamma=-inf"]],
    ids=["nan", "inf", "=-inf"],
)
def test_non_finite_gamma_exits_3(tmp_path, capsys, interior12, gamma):
    _, _, edges, nodes = interior12
    fit_dir, sim_dir = tmp_path / "fit", tmp_path / "sim"
    assert main(["fit", "--edges", str(edges), "--nodes", str(nodes),
                 "--out", str(fit_dir), "--seed", "1"]) == 0
    code = main(
        ["simulate", "--params", str(fit_dir / "params.json"), *gamma]
        + ["--out", str(sim_dir), "--seed", "5"]
    )
    assert code == 3
    assert "gamma must be finite" in capsys.readouterr().err
    assert not (sim_dir / "edges.csv").exists()


def test_unread_network_inputs_exit_3(tmp_path, capsys, interior12):
    _, _, edges, nodes = interior12
    for command in (["fit"], ["sample", "--draws", "5", "--tau", "5"]):
        code = main(
            command + ["--edges", str(edges), "--n-nodes", "0"]
            + ["--out", str(tmp_path / "o"), "--seed", "1"]
        )
        assert code == 3, command
        assert "need at least one node" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, entry",
    [("sender", None), ("sender", float("nan")), ("receiver", float("inf")),
     ("mixing", float("-inf"))],
    ids=["sender-null", "sender-nan", "receiver-inf", "mixing-neg-inf"],
)
def test_non_finite_parameters_exit_3(tmp_path, capsys, field, entry):
    raw = {
        "sender": [0.5, -0.3, 0.1, -0.2],
        "receiver": [0.2, 0.0, -0.1, -0.1],
        "mixing": [[0.0, 0.0], [0.0, 0.4]],
        "groups": [0, 0, 1, 1],
    }
    if field == "mixing":
        raw["mixing"][1][1] = entry
    else:
        raw[field][1] = entry
    params = tmp_path / "params.json"
    params.write_text(json.dumps(raw))
    code = main(["simulate", "--params", str(params), "--out", str(tmp_path / "o"), "--seed", "1"])
    assert code == 3
    assert f"{field} has an entry that is not finite" in capsys.readouterr().err
    assert not (tmp_path / "o" / "edges.csv").exists()


@pytest.mark.parametrize(
    "flags, n",
    [([], 10), (["--reference", "density"], 10), (["--n-nodes", "14"], 14)],
    ids=["chain", "density", "more-nodes"],
)
def test_provided_parameters_must_cover_the_network_nodes(tmp_path, capsys, interior12, flags, n):
    _, _, edges, nodes = interior12
    fit_dir = tmp_path / "fit"
    assert main(["fit", "--edges", str(edges), "--nodes", str(nodes),
                 "--out", str(fit_dir), "--seed", "1"]) == 0
    capsys.readouterr()
    write_edges(tmp_path / "edges10.csv", [(i, (i + k) % 10) for i in range(10) for k in (1, 3)])
    code = main(
        ["test", "--edges", str(tmp_path / "edges10.csv"), "--draws", "5"]
        + ["--params", str(fit_dir / "params.json"), *flags]
        + ["--out", str(tmp_path / "t"), "--seed", "1"]
    )
    assert code == 3
    assert f"covers 12 nodes, but the network from --edges has {n}" in capsys.readouterr().err


def test_provided_parameters_must_group_the_nodes_as_the_node_file_does(tmp_path, capsys, interior12):
    _, g, edges, nodes = interior12
    fit_dir = tmp_path / "fit"
    assert main(["fit", "--edges", str(edges), "--nodes", str(nodes),
                 "--out", str(fit_dir), "--seed", "1"]) == 0
    capsys.readouterr()

    def run_test(node_file, out):
        return main(
            ["test", "--edges", str(edges), "--nodes", str(node_file), "--draws", "5"]
            + ["--tau", "5", "--params", str(fit_dir / "params.json")]
            + ["--out", str(out), "--seed", "1"]
        )

    # Nodes 0-5 moved to the other group: codes 0, 0, 1, 1, 0, 1 pair the two
    # groups crosswise, so node 6, left in group 0, is the first to disagree.
    write_nodes(tmp_path / "moved.csv", [1 - c for c in g.codes[:6]] + list(g.codes[6:]))
    assert run_test(tmp_path / "moved.csv", tmp_path / "moved") == 3
    assert "disagree on the group of node 6" in capsys.readouterr().err
    assert not (tmp_path / "moved" / "result.json").exists()

    # The same partition under labels that sort the other way round is read
    # with the codes of the parameter file, so the result does not change.
    write_nodes(tmp_path / "relabelled.csv", [1 - c for c in g.codes])
    assert run_test(nodes, tmp_path / "same") == 0
    assert run_test(tmp_path / "relabelled.csv", tmp_path / "relabelled") == 0
    same = (tmp_path / "same" / "result.json").read_bytes()
    assert (tmp_path / "relabelled" / "result.json").read_bytes() == same


def test_node_count_beside_a_node_file_must_match_it(tmp_path, capsys, interior12):
    _, _, edges, nodes = interior12
    network = ["--edges", str(edges), "--nodes", str(nodes)]
    for command in (["fit"], ["enumerate"], ["sample", "--draws", "5", "--tau", "5"],
                    ["test", "--draws", "5", "--tau", "5"]):
        code = main(
            command + network + ["--n-nodes", "5", "--out", str(tmp_path / "o"), "--seed", "1"]
        )
        assert code == 3, command
        assert "--n-nodes 5 disagrees with the 12 nodes of --nodes" in capsys.readouterr().err
    out = tmp_path / "fit"
    assert main(["fit", *network, "--n-nodes", "12", "--out", str(out), "--seed", "1"]) == 0
    assert json.loads((out / "params.json").read_text())["n_nodes"] == 12


@pytest.mark.parametrize("statistic", ["ti", "reciprocity"])
def test_an_index_statistic_refuses_provided_parameters(tmp_path, capsys, interior12, statistic):
    _, _, edges, nodes = interior12
    fit_dir = tmp_path / "fit"
    assert main(["fit", "--edges", str(edges), "--nodes", str(nodes),
                 "--out", str(fit_dir), "--seed", "1"]) == 0
    capsys.readouterr()
    code = main(
        ["test", "--edges", str(edges), "--nodes", str(nodes), "--statistic", statistic]
        + ["--params", str(fit_dir / "params.json")]
        + ["--draws", "5", "--tau", "5", "--out", str(tmp_path / "t"), "--seed", "1"]
    )
    assert code == 3
    assert "reads no nuisance parameters" in capsys.readouterr().err
    assert not (tmp_path / "t" / "result.json").exists()


@pytest.mark.parametrize("statistic", ["ti", "reciprocity"])
def test_an_index_statistic_refuses_a_given_spec(tmp_path, capsys, interior12, statistic):
    _, _, edges, nodes = interior12
    network = ["--edges", str(edges), "--nodes", str(nodes), "--draws", "5", "--tau", "5"]
    code = main(
        ["test", *network, "--statistic", statistic, "--spec", "customer-product"]
        + ["--out", str(tmp_path / "t"), "--seed", "1"]
    )
    assert code == 3
    assert "reads no strategic term" in capsys.readouterr().err
    assert not (tmp_path / "t" / "result.json").exists()
    # Without --spec the index statistic runs, and locally-best reads transitivity.
    for args, spec in ((["--statistic", statistic], None), ([], "transitivity")):
        out = tmp_path / f"ok_{spec}"
        assert main(["test", *network, *args, "--out", str(out), "--seed", "1"]) == 0
        assert read_manifest(out)["config"]["spec"] == spec


def test_mc_experiment_records_a_gamma_without_usable_replications(tmp_path):
    out = tmp_path / "mc"
    code = main(
        ["mc-experiment", "--n-nodes", "24", "--n-reps", "3", "--n-draws", "5"]
        + ["--gammas", "0,0.13", "--spec", "customer-product"]
        + ["--statistics", "transitivity_index", "--out", str(out), "--seed", "5", "--jobs", "1"]
    )
    assert code == 0
    _, rows = read_csv_rows(out / "power.csv")
    assert [int(row["reps"]) for row in rows] == [3, 0]
    assert read_manifest(out)["warnings"] == [
        "gamma = 0.13: all 3 replication(s) failed (separated fit or frozen chain), "
        "so the rejection rates of transitivity_index are undefined"
    ]


@pytest.mark.parametrize(
    "command", [["sample"], ["test", "--statistic", "reciprocity"]], ids=["sample", "test"]
)
def test_zero_draws_exit_with_code_3(tmp_path, capsys, command):
    write_edges(tmp_path / "edges.csv", N4_CYCLE[3])
    out = tmp_path / "o"
    code = main(
        command
        + ["--edges", str(tmp_path / "edges.csv"), "--draws", "0", "--tau", "5"]
        + ["--out", str(out), "--seed", "1"]
    )
    assert code == 3
    assert "need at least one reference draw" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_separated_network_exits_with_code_4(tmp_path, capsys):
    write_edges(tmp_path / "edges.csv", [(0, 1), (1, 0)])
    code = main(
        [
            "fit",
            "--edges", str(tmp_path / "edges.csv"),
            "--n-nodes", "3",
            "--out", str(tmp_path / "o"),
            "--seed", "1",
        ]
    )
    assert code == 4
    assert "numerical failure" in capsys.readouterr().err


def test_frozen_reference_set_exits_with_code_4(tmp_path, capsys):
    write_edges(tmp_path / "edges.csv", [(0, 1)])
    code = main(
        [
            "sample",
            "--edges", str(tmp_path / "edges.csv"),
            "--draws", "2",
            "--out", str(tmp_path / "o"),
            "--seed", "1",
        ]
    )
    assert code == 4
    assert "numerical failure" in capsys.readouterr().err


def test_duplicate_arcs_are_warned_into_the_manifest(tmp_path):
    arcs = N4_CYCLE[3]
    write_edges(tmp_path / "edges.csv", arcs + [arcs[0]])
    out = tmp_path / "out"
    assert (
        main(
            ["enumerate", "--edges", str(tmp_path / "edges.csv"), "--out", str(out), "--seed", "1"]
        )
        == 0
    )
    warnings_list = read_manifest(out)["warnings"]
    assert any("duplicate" in w for w in warnings_list)


def test_seed_defaults_to_recorded_entropy(tmp_path):
    assert main(["calibrate", "--out", str(tmp_path)]) == 0
    seed = read_manifest(tmp_path)["seed"]
    assert isinstance(seed, int)
    assert 0 <= seed < 2**63


# -- entry points ------------------------------------------------------------------


def test_version_flag_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == nt.__version__


def test_package_version_is_the_project_version():
    # One version string: the CLI re-exports the package's, and the project
    # metadata states the same.
    assert nt.__version__ is netformtest.cli.__version__
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == nt.__version__


def test_every_exported_name_is_documented_or_read_by_the_package():
    # A module's public name that neither the top level documents nor any
    # package code reads belongs with the tests, not in the runtime API.
    # Names in __all__ lists and docstrings are strings, so they are no reads.
    src = Path(netformtest.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [
        f"netformtest.{stem}.{name}"
        for stem in trees
        if stem != "__init__"
        for name in getattr(importlib.import_module(f"netformtest.{stem}"), "__all__", ())
        if name not in nt.__all__ and name not in read
    ]
    assert unread == []


def test_every_option_a_subcommand_offers_is_read():
    # Each settable value of a subcommand is read as ``args.<dest>`` by its
    # handler, by ``_load_network`` when the handler calls it, or by ``main``.
    tree = ast.parse(Path(netformtest.cli.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reads(function):
        return {
            node.attr
            for node in ast.walk(function)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
        }

    def calls(function, name):
        return any(
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
            for node in ast.walk(function)
        )

    parser = netformtest.cli.get_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, subparser in subparsers.choices.items():
        handler = functions[subparser.get_default("handler").__name__]
        read = reads(handler) | reads(functions["main"])
        if calls(handler, "_load_network"):
            read |= reads(functions["_load_network"])
        offered = {action.dest for action in subparser._actions if action.dest != "help"}
        assert sorted(offered - read) == [], name


def test_package_import_leaves_the_cli_and_pool_modules_unloaded():
    # The command line's and the worker pools' modules load only when used.
    src = str(Path(netformtest.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    heavy = ["argparse", "json", "hashlib", "secrets", "concurrent.futures", "multiprocessing"]
    probe = f"import sys, netformtest; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    proc = subprocess.run(
        [sys.executable, "-m", "netformtest", "--version"], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stdout.strip()) == (0, nt.__version__)


def test_console_script_is_installed():
    try:
        importlib.metadata.distribution("netformtest")
        installed = True
    except importlib.metadata.PackageNotFoundError:
        installed = False

    if installed:
        exe = shutil.which("netformtest")
        assert exe, "console script not on PATH"
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == nt.__version__

    # Installed or not, the project must declare the script and point it at
    # the CLI's entry point.
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["netformtest"]
    assert target == "netformtest.cli:main"
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main

    if not installed:
        pytest.skip("the netformtest distribution is not installed "
                    "(importlib.metadata.PackageNotFoundError), so there is "
                    "no console script to run")


# -- public surface ------------------------------------------------------------------

# The README's Python API, the names the benchmark worker calls, and the
# argument and exception types they take or raise.
DOCUMENTED_API = {
    "AdjacencyMatrix",
    "GroupAssignment",
    "DataError",
    "from_edge_list",
    "read_edge_csv",
    "read_node_csv",
    "NuisanceParams",
    "SeparationError",
    "mle_null",
    "null_log_likelihood",
    "simulate_null",
    "simulate_alternative",
    "strategic_spec",
    "ChainConfig",
    "FrozenChainError",
    "markov_step",
    "markov_draw",
    "mixing_time_heuristic",
    "enumerate_reference_set",
    "TestStatisticSpec",
    "conditional_p_value",
    "exact_conditional_critical_values",
    "score_statistic",
    "ExperimentConfig",
    "run_experiment",
    "study_population",
}


def test_package_exports_exactly_the_documented_api():
    assert len(nt.__all__) == len(DOCUMENTED_API) == 26
    assert set(nt.__all__) == DOCUMENTED_API
    modules = [nt] + [
        importlib.import_module(f"netformtest.{info.name}")
        for info in pkgutil.iter_modules(nt.__path__)
    ]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert {m.__name__ for m in exporting} >= {
        "netformtest",
        "netformtest.cli",
        "netformtest.graphs",
        "netformtest.harness",
        "netformtest.model",
        "netformtest.sampler",
        "netformtest.testing",
    }
    for module in exporting:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name} does not resolve"
    for name in ("strategic_term", "dispatch", "RunManifest"):
        assert not hasattr(nt, name)
        assert not any(name in module.__all__ for module in exporting)
