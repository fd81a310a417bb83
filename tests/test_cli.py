"""End-to-end tests of the command-line interface.

Subcommands are exercised in process through ``main`` (fast, keeps coverage);
one smoke test runs the console script wherever the distribution is installed.
Every CLI contract under test comes in pairs: artifacts on disk plus the
provenance manifest.
"""

import csv
import importlib.metadata
import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

import netformtest as nt
import netformtest.cli
from netformtest.cli import main
from netformtest.model import logistic_cdf

from _fixtures import CHAIN_FIXTURES, build_fixture, fittable_network

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
    write_edges(root / "edges.csv", d.arcs())
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
    """Without --tau, --q sets the laziness of the pilot and of the draws in
    both subcommands, so the same inputs and seed give the same draws."""
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
        nt.transitivity_index(
            nt.from_edge_list(
                [(int(r["source"]), int(r["target"])) for r in rows if r["draw"] == str(b)],
                d.n,
            )
        )
        for b in range(6)
    ]
    _, null_rows = read_csv_rows(test_out / "null_draws.csv")
    assert [float(r["value"]) for r in null_rows] == expected


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
        "--delta-source", "provided",
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
    for argv in (["sample"], ["no-such-command"], []):
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
    cfg_file.write_text(json.dumps({"n_nodes": 16, "walk_length": 9}))
    code = main(
        ["mc-experiment", "--config", str(cfg_file), "--out", str(tmp_path / "o"), "--seed", "1"]
    )
    assert code == 3
    assert "bad experiment configuration" in capsys.readouterr().err
    code = main(
        ["mc-experiment", "--alpha", "0", "--n-reps", "1", "--out", str(tmp_path / "o2"), "--seed", "1"]
    )
    assert code == 3
    assert "alpha" in capsys.readouterr().err


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
    # One version string: the package re-exports the CLI's, and the project
    # metadata states the same.
    assert nt.__version__ is netformtest.cli.__version__
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == nt.__version__


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
