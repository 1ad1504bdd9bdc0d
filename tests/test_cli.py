import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import dirlap
from dirlap import fileio
from dirlap.cli import main
from dirlap.errors import (
    DimensionMismatchError,
    FileFormatError,
    NearDefectiveError,
    RankDeficientError,
)


def csv_body(path, header):
    """Rows of a CSV file after checking its header."""
    with open(path, newline="") as fh:
        first, *rows = csv.reader(fh)
    assert first == header
    return rows


SPECTRUM_HEADER = ["k", "re_lambda", "im_lambda", "abs_lambda"]
TRIALS_HEADER = ["sigma", "trial", "graph", "err_l2", "bound"]


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def cycle_csv(tmp_path, runner):
    path = tmp_path / "cycle.csv"
    result = runner.invoke(main, ["gen", "cycle", "--n", "20", "--out", str(path)])
    assert result.exit_code == 0
    return path


@pytest.fixture
def perturbed_csv(tmp_path, runner):
    path = tmp_path / "perturbed.csv"
    result = runner.invoke(
        main,
        ["gen", "perturbed-cycle", "--n", "20", "--p", "0.2", "--w", "0.8",
         "--seed", "7", "--out", str(path)],
    )
    assert result.exit_code == 0
    return path


def test_each_error_type_carries_its_exit_code():
    # the documented exit codes live on the error types, nowhere else
    codes = {FileFormatError: 3, DimensionMismatchError: 4, RankDeficientError: 5,
             NearDefectiveError: 6}
    assert {error: error.exit_code for error in codes} == codes


def leaf_commands(group):
    for cmd in group.commands.values():
        yield from leaf_commands(cmd) if isinstance(cmd, click.Group) else [cmd]


@pytest.mark.parametrize(
    "error", [FileFormatError, DimensionMismatchError, RankDeficientError, NearDefectiveError]
)
def test_every_command_ends_a_fault_with_its_exit_code(error, monkeypatch, capsys):
    commands = list(leaf_commands(main))
    assert sorted(cmd.name for cmd in commands) == [
        "analyze", "fig1", "fig2", "filter", "gen", "gft", "sample"]
    for cmd in commands:
        def fail():
            raise error("boom")

        monkeypatch.setattr(cmd, "callback", fail)
        with click.Context(cmd) as ctx, pytest.raises(SystemExit) as info:
            cmd.invoke(ctx)
        assert info.value.code == error.exit_code
        assert capsys.readouterr().err == "error: boom\n"


class TestGen:
    def test_cycle_has_n_edges(self, cycle_csv):
        assert fileio.read_edge_list(cycle_csv).edge_count == 20

    def test_deterministic_bytes(self, tmp_path, runner):
        args = ["gen", "perturbed-cycle", "--n", "15", "--seed", "3"]
        a = runner.invoke(main, args + ["--out", str(tmp_path / "a.csv")])
        b = runner.invoke(main, args + ["--out", str(tmp_path / "b.csv")])
        assert a.exit_code == b.exit_code == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize(
        "args, sha256",
        [
            (["--n", "20", "--seed", "7"],
             "9ebd53610a6ae6ef2b21992f6966065907cf36ddd0bf8b5c864344d3a40747b7"),
            (["--n", "200", "--p", "0.2", "--w", "0.8", "--seed", "3"],
             "ca888200451cfdc1616d469b7c82c3d5871259beda03ee68de1a8edbb3614564"),
        ],
        ids=["n20", "n200"],
    )
    def test_golden_hash(self, runner, args, sha256):
        # pins the PCG64 stream contract: one variate per candidate pair, lexicographic order
        result = runner.invoke(main, ["gen", "perturbed-cycle"] + args)
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == sha256

    def test_stdout_mode(self, runner):
        result = runner.invoke(main, ["gen", "cycle", "--n", "3"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "src,dst,weight"
        assert len(result.output.splitlines()) == 4

    def test_n_too_small_is_usage_error(self, runner):
        result = runner.invoke(main, ["gen", "cycle", "--n", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("kind", ["cycle", "perturbed-cycle"])
    def test_n_beyond_max_vertices_is_usage_error(self, runner, kind):
        result = runner.invoke(main, ["gen", kind, "--n", "99999999999999999999"])
        assert result.exit_code == 2
        assert "n must be at most MAX_VERTICES = 10000" in result.output


class TestAnalyze:
    def test_cycle_metrics(self, cycle_csv, runner, tmp_path):
        spectrum = tmp_path / "spec.csv"
        result = runner.invoke(
            main, ["analyze", str(cycle_csv), "--spectrum-out", str(spectrum)]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["henrici"] <= 1e-6
        assert payload["kappa"] <= 1 + 1e-6
        assert payload["alpha"] == pytest.approx(1.0, abs=1e-11)
        assert len(csv_body(spectrum, SPECTRUM_HEADER)) == 20

    def test_perturbed_metrics(self, perturbed_csv, runner):
        result = runner.invoke(main, ["analyze", str(perturbed_csv)])
        payload = json.loads(result.output)
        assert payload["henrici"] > 0
        assert payload["kappa"] > 10

    def test_symmetric_two_cycle_alpha_zero(self, tmp_path, runner):
        path = tmp_path / "two.csv"
        runner.invoke(main, ["gen", "cycle", "--n", "2", "--out", str(path)])
        payload = json.loads(runner.invoke(main, ["analyze", str(path)]).output)
        assert payload["alpha"] == 0.0

    def test_golden_hash(self, perturbed_csv, runner, tmp_path, monkeypatch):
        # pins the metrics JSON (with a spectrum path), the metrics CSV (with its null
        # spectrum_csv as an empty cell) and the spectrum CSV of the perturbed 20-cycle
        monkeypatch.chdir(tmp_path)
        as_json = runner.invoke(main, ["analyze", str(perturbed_csv), "--spectrum-out", "spectrum.csv"])
        as_csv = runner.invoke(main, ["analyze", str(perturbed_csv), "--format", "csv"])
        assert as_json.exit_code == as_csv.exit_code == 0
        outputs = (as_json.stdout_bytes, as_csv.stdout_bytes, (tmp_path / "spectrum.csv").read_bytes())
        assert tuple(hashlib.sha256(data).hexdigest() for data in outputs) == (
            "e88bca778de3d8e1074b22b8eb16be9239a133579e0d2ed7faed54cf47d2bfb1",
            "b3dbe718013f9cb9c2471788bbcef2d546befb985e1bdf736917e4138307835d",
            "c06932711e86f969496b932e2198b8d1917e00a5ab2dcfc1e7fd8ee29fbbabba",
        )

    def test_csv_format(self, cycle_csv, runner):
        result = runner.invoke(main, ["analyze", str(cycle_csv), "--format", "csv"])
        assert result.output.splitlines()[0] == "metric,value"

    def test_csv_format_quotes_a_path_with_a_comma(self, cycle_csv, runner, tmp_path):
        spectrum = str(tmp_path / 'a,b"c.csv')
        result = runner.invoke(
            main, ["analyze", str(cycle_csv), "--format", "csv", "--spectrum-out", spectrum]
        )
        assert result.exit_code == 0
        rows = list(csv.reader(result.output.splitlines()))
        assert all(len(row) == 2 for row in rows)
        assert rows[-1] == ["spectrum_csv", spectrum]

    def test_parse_failure_exit_code(self, tmp_path, runner):
        bad = tmp_path / "bad.csv"
        bad.write_text("src,dst\n0,1\n")
        result = runner.invoke(main, ["analyze", str(bad)])
        assert result.exit_code == FileFormatError.exit_code

    def test_vertex_count_beyond_max_is_parse_error(self, tmp_path, runner):
        path = tmp_path / "sparse.csv"
        path.write_text("src,dst,weight\n0,60000,1\n")
        result = runner.invoke(main, ["analyze", str(path)])
        assert result.exit_code == FileFormatError.exit_code
        assert "vertex count 60001 exceeds MAX_VERTICES = 10000" in result.output

    def test_near_defective_exit_code(self, tmp_path, runner):
        # directed path graph: defective Laplacian
        path = tmp_path / "path.csv"
        path.write_text("src,dst,weight\n" + "".join(f"{i},{i+1},1\n" for i in range(7)))
        result = runner.invoke(main, ["analyze", str(path)])
        assert result.exit_code == NearDefectiveError.exit_code


class TestGft:
    def test_round_trip_through_files(self, cycle_csv, runner, tmp_path, rng):
        x = rng.standard_normal(20)
        sig = tmp_path / "x.csv"
        fileio.write_signal(__import__("dirlap").vertex_signal(x), sig)
        fwd = tmp_path / "xhat.csv"
        back = tmp_path / "back.csv"
        assert runner.invoke(
            main, ["gft", str(cycle_csv), str(sig), "--direction", "forward", "--out", str(fwd)]
        ).exit_code == 0
        assert runner.invoke(
            main, ["gft", str(cycle_csv), str(fwd), "--direction", "inverse", "--out", str(back)]
        ).exit_code == 0
        recovered = fileio.read_signal(back)
        assert np.allclose(recovered.values, x, atol=1e-9)

    def test_constant_signal_concentrates_on_dc(self, perturbed_csv, runner, tmp_path):
        sig = tmp_path / "ones.csv"
        fileio.write_signal(__import__("dirlap").vertex_signal(np.ones(20)), sig)
        out = tmp_path / "xhat.csv"
        runner.invoke(main, ["gft", str(perturbed_csv), str(sig), "--out", str(out)])
        xhat = fileio.read_signal(out, domain="spectral").values
        assert abs(xhat[0]) == pytest.approx(np.sqrt(20), abs=1e-6)
        assert np.max(np.abs(xhat[1:])) < 1e-6

    def test_wrong_length_signal_exit_code(self, cycle_csv, runner, tmp_path):
        sig = tmp_path / "short.csv"
        fileio.write_signal(__import__("dirlap").vertex_signal(np.ones(5)), sig)
        result = runner.invoke(
            main, ["gft", str(cycle_csv), str(sig), "--out", str(tmp_path / "o.csv")]
        )
        assert result.exit_code == DimensionMismatchError.exit_code


class TestFilter:
    def test_ideal_low_pass(self, perturbed_csv, runner, tmp_path, rng):
        sig = tmp_path / "x.csv"
        fileio.write_signal(__import__("dirlap").vertex_signal(rng.standard_normal(20)), sig)
        spec = tmp_path / "filter.json"
        spec.write_text(json.dumps({"kind": "ideal", "omega": [0, 1, 2, 3, 4]}))
        out = tmp_path / "y.csv"
        result = runner.invoke(
            main, ["filter", str(perturbed_csv), str(sig), "--spec", str(spec), "--out", str(out)]
        )
        assert result.exit_code == 0
        assert fileio.read_signal(out).n == 20

    def test_repeated_signal_index_exit_code(self, perturbed_csv, runner, tmp_path):
        sig = tmp_path / "x.csv"
        sig.write_text("vertex,re,im\n0,1,0\n1,2,0\n1,5,0\n")
        spec = tmp_path / "filter.json"
        spec.write_text(json.dumps({"kind": "ideal", "omega": [0]}))
        result = runner.invoke(
            main,
            ["filter", str(perturbed_csv), str(sig), "--spec", str(spec),
             "--out", str(tmp_path / "y.csv")],
        )
        assert result.exit_code == FileFormatError.exit_code

    def test_bad_spec_exit_code(self, perturbed_csv, runner, tmp_path):
        sig = tmp_path / "x.csv"
        fileio.write_signal(__import__("dirlap").vertex_signal(np.ones(20)), sig)
        spec = tmp_path / "filter.json"
        non_finite = [[float("nan"), 0.0]] + [[1.0, 0.0]] * 19
        for payload in ({"kind": "nonsense"}, {"kind": "diagonal", "response": non_finite},
                        {"kind": "ideal", "omega": [1e30]},
                        {"kind": "ideal", "omega": [float("inf")]},
                        {"kind": "ideal", "omega": [0.9]}, {"kind": "ideal", "omega": [1.5]},
                        {"kind": "ideal", "omega": [True]}, {"kind": "ideal", "omega": ["2"]},
                        {"kind": "ideal", "omega": "12"}):
            spec.write_text(json.dumps(payload))
            result = runner.invoke(
                main,
                ["filter", str(perturbed_csv), str(sig), "--spec", str(spec),
                 "--out", str(tmp_path / "y.csv")],
            )
            assert result.exit_code == FileFormatError.exit_code, payload


class TestSample:
    def test_plan_json(self, perturbed_csv, runner, tmp_path):
        plan_path = tmp_path / "plan.json"
        result = runner.invoke(
            main,
            ["sample", str(perturbed_csv), "--k", "5", "--m", "8", "--out", str(plan_path)],
        )
        assert result.exit_code == 0
        payload = json.loads(plan_path.read_text())
        assert payload["omega"] == [0, 1, 2, 3, 4]
        assert len(payload["sample_set"]) == 8
        assert payload["gamma"] > 0

    def test_explicit_sample_set_and_recovery(self, perturbed_csv, runner, tmp_path):
        import dirlap

        g = fileio.read_edge_list(perturbed_csv)
        dec = dirlap.decompose(dirlap.directed_laplacian(g))
        band = dirlap.make_band(dec, 3)
        x = dirlap.synthesize_bandlimited(band, np.array([1.0, -0.5 + 0.2j, 0.3]))
        sig = tmp_path / "x.csv"
        fileio.write_signal(x, sig)
        rec = tmp_path / "rec.csv"
        result = runner.invoke(
            main,
            ["sample", str(perturbed_csv), "--k", "3",
             "--sample-set", ",".join(str(v) for v in range(0, 20, 2)),
             "--signal", str(sig), "--recover-out", str(rec),
             "--out", str(tmp_path / "plan.json")],
        )
        assert result.exit_code == 0
        recovered = fileio.read_signal(rec)
        assert np.linalg.norm(recovered.values - x.values) <= 1e-8 * x.norm()

    def test_rank_deficient_exit_code(self, perturbed_csv, runner, tmp_path):
        sig = tmp_path / "x.csv"
        fileio.write_signal(__import__("dirlap").vertex_signal(np.ones(20)), sig)
        result = runner.invoke(
            main,
            ["sample", str(perturbed_csv), "--k", "5", "--sample-set", "0,1",
             "--signal", str(sig), "--recover-out", str(tmp_path / "r.csv")],
        )
        assert result.exit_code == RankDeficientError.exit_code

    def test_signal_without_recover_out_writes_nothing(self, perturbed_csv, runner, tmp_path):
        sig = tmp_path / "x.csv"
        fileio.write_signal(__import__("dirlap").vertex_signal(np.ones(20)), sig)
        plan_path = tmp_path / "plan.json"
        result = runner.invoke(
            main,
            ["sample", str(perturbed_csv), "--k", "3", "--m", "6", "--signal", str(sig),
             "--out", str(plan_path)],
        )
        assert result.exit_code == 2
        assert not plan_path.exists()

    def test_recover_out_without_signal_is_usage_error(self, perturbed_csv, runner, tmp_path):
        plan_path, rec = tmp_path / "plan.json", tmp_path / "rec.csv"
        result = runner.invoke(
            main,
            ["sample", str(perturbed_csv), "--k", "3", "--m", "6", "--recover-out", str(rec),
             "--out", str(plan_path)],
        )
        assert result.exit_code == 2
        assert "--recover-out requires --signal" in result.output
        assert not plan_path.exists() and not rec.exists()

    def test_stdout_plan(self, perturbed_csv, runner):
        result = runner.invoke(main, ["sample", str(perturbed_csv), "--k", "2", "--m", "4"])
        assert result.exit_code == 0
        assert json.loads(result.output)["omega"] == [0, 1]

    def test_sample_set_index_beyond_int64_is_usage_error(self, cycle_csv, runner):
        result = runner.invoke(
            main, ["sample", str(cycle_csv), "--k", "2", "--sample-set", "0,99999999999999999999999"]
        )
        assert result.exit_code == 2
        assert "sample vertices must lie in [0, 20)" in result.output


class TestVertexCount:
    """``--n`` on the commands that read a graph: the edge list carries no vertex count."""

    @pytest.fixture
    def triangle_csv(self, tmp_path):
        path = tmp_path / "triangle.csv"
        path.write_text("src,dst,weight\n0,1,1\n1,2,1\n2,0,1\n")
        return path

    @pytest.fixture
    def signal5(self, tmp_path):
        path = tmp_path / "x5.csv"
        fileio.write_signal(dirlap.vertex_signal(np.arange(1.0, 6.0)), path)
        return path

    @pytest.fixture
    def lowpass(self, tmp_path):
        path = tmp_path / "lowpass.json"
        path.write_text('{"kind": "ideal", "omega": [0, 1]}')
        return path

    def commands(self, graph, signal, spec, out):
        return {
            "analyze": ["analyze", str(graph)],
            "gft": ["gft", str(graph), str(signal), "--out", str(out)],
            "filter": ["filter", str(graph), str(signal), "--spec", str(spec), "--out", str(out)],
            "sample": ["sample", str(graph), "--k", "2", "--m", "3"],
        }

    def test_trailing_isolated_vertices(self, triangle_csv, runner, tmp_path):
        spectrum = tmp_path / "spec.csv"
        result = runner.invoke(
            main, ["analyze", str(triangle_csv), "--n", "5", "--spectrum-out", str(spectrum)]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["n"] == 5
        moduli = [float(row[3]) for row in csv_body(spectrum, SPECTRUM_HEADER)]
        assert len(moduli) == 5
        assert sum(abs(z) < 1e-12 for z in moduli) == 3   # the triangle's DC mode + 2 isolated

    @pytest.mark.parametrize("command", ["analyze", "gft", "filter", "sample"])
    def test_every_graph_command_takes_n(self, command, triangle_csv, signal5, lowpass,
                                         runner, tmp_path):
        out = tmp_path / "out.csv"
        argv = self.commands(triangle_csv, signal5, lowpass, out)[command]
        assert runner.invoke(main, argv + ["--n", "5"]).exit_code == 0
        if command in ("gft", "filter"):
            assert len(fileio.read_signal(out, "spectral" if command == "gft" else "vertex").values) == 5
            # without --n the graph has 3 vertices and the 5-vertex signal does not fit
            assert runner.invoke(main, argv).exit_code == DimensionMismatchError.exit_code

    def test_empty_edge_list(self, tmp_path, runner):
        path = tmp_path / "empty.csv"
        path.write_text("src,dst,weight\n")
        result = runner.invoke(main, ["analyze", str(path), "--n", "3"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["n"] == 3 and payload["kappa"] == 1.0
        missing = runner.invoke(main, ["analyze", str(path)])
        assert missing.exit_code == FileFormatError.exit_code
        assert "needs an explicit vertex count" in missing.output

    @pytest.mark.parametrize("command", ["analyze", "gft", "filter", "sample"])
    def test_n_below_largest_index_is_usage_error(self, command, triangle_csv, signal5, lowpass,
                                                  runner, tmp_path):
        out = tmp_path / "out.csv"
        argv = self.commands(triangle_csv, signal5, lowpass, out)[command]
        result = runner.invoke(main, argv + ["--n", "2"])
        assert result.exit_code == 2
        assert "n=2 is below the largest vertex index plus one" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("n", ["0", "10001", "99999999999999999999"])
    def test_n_outside_vertex_range_is_usage_error(self, n, triangle_csv, runner):
        result = runner.invoke(main, ["analyze", str(triangle_csv), "--n", n])
        assert result.exit_code == 2
        assert "n must lie in [1, MAX_VERTICES = 10000]" in result.output


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "perturbed-cycle", "--n", "20", "--seed", "7"],
        ["analyze", "{graph}"],
        ["analyze", "{graph}", "--format", "csv"],
        ["sample", "{graph}", "--k", "5", "--m", "8"],
    ],
    ids=["gen", "analyze-json", "analyze-csv", "sample"],
)
def test_stdout_matches_out_file(argv, perturbed_csv, runner, tmp_path):
    argv = [arg.format(graph=perturbed_csv) for arg in argv]
    printed = runner.invoke(main, argv)
    out = tmp_path / "out"
    written = runner.invoke(main, argv + ["--out", str(out)])
    assert printed.exit_code == written.exit_code == 0
    assert written.output == ""
    assert printed.stdout_bytes == out.read_bytes()


class TestExperimentCommands:
    def test_fig1_outputs(self, runner, tmp_path):
        out = tmp_path / "fig1"
        result = runner.invoke(
            main, ["experiment", "fig1", "--n", "12", "--seed", "5", "--out-dir", str(out)]
        )
        assert result.exit_code == 0
        bundle = json.loads((out / "metrics.json").read_text())
        assert bundle["graphs"]["cycle"]["henrici"] <= 1e-6
        assert bundle["graphs"]["perturbed"]["kappa"] > 1
        assert len(csv_body(out / "cycle.spectrum.csv", SPECTRUM_HEADER)) == 12
        assert len(csv_body(out / "perturbed.spectrum.csv", SPECTRUM_HEADER)) == 12

    def test_fig1_golden_hash(self, runner, tmp_path):
        out = tmp_path / "fig1"
        result = runner.invoke(main, ["experiment", "fig1", "--seed", "7", "--out-dir", str(out)])
        assert result.exit_code == 0
        names = ("metrics.json", "cycle.spectrum.csv", "perturbed.spectrum.csv")
        assert tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names) == (
            "c561e34d6f7c7bb63533ae93ee62c3f265b0be730d45813a81fcdd19f4479b20",
            "2064913930e07940834a9cd02b86f77f4d9b8f45d0c3559980234720610d09ff",
            "c06932711e86f969496b932e2198b8d1917e00a5ab2dcfc1e7fd8ee29fbbabba",
        )

    def test_fig2_outputs_and_determinism(self, runner, tmp_path):
        args = ["experiment", "fig2", "--n", "10", "--k", "3", "--trials", "10",
                "--sigmas", "0.1,0.3", "--seed", "2"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, args + ["--out-dir", str(a)]).exit_code == 0
        assert runner.invoke(main, args + ["--out-dir", str(b)]).exit_code == 0
        assert (a / "trials.csv").read_bytes() == (b / "trials.csv").read_bytes()
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
        trials = csv_body(a / "trials.csv", TRIALS_HEADER)
        assert len(trials) == 2 * 2 * 10
        summary = csv_body(
            a / "summary.csv",
            ["graph", "sigma", "err_mean", "err_std", "err_abs_mean", "bound_mean"],
        )
        assert len(summary) == 4
        bundle = json.loads((a / "bundle.json").read_text())
        assert bundle["config"]["n"] == 10
        assert bundle["generator"] == "PCG64"

    def test_fig2_config_file_with_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 8, "k": 2, "trials": 5, "sigmas": [0.1], "seed": 1}))
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["experiment", "fig2", "--config", str(cfg), "--trials", "6",
             "--out-dir", str(out)],
        )
        assert result.exit_code == 0
        bundle = json.loads((out / "bundle.json").read_text())
        assert bundle["config"]["n"] == 8
        assert bundle["config"]["trials"] == 6

    def test_fig2_config_sigmas_not_a_list(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigmas": 5}))
        result = runner.invoke(
            main, ["experiment", "fig2", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]
        )
        assert result.exit_code == FileFormatError.exit_code

    def test_fig2_noiseless_sanity(self, runner, tmp_path):
        out = tmp_path / "zero"
        result = runner.invoke(
            main,
            ["experiment", "fig2", "--n", "10", "--k", "3", "--trials", "5",
             "--sigmas", "0", "--out-dir", str(out)],
        )
        assert result.exit_code == 0
        for row in csv_body(out / "trials.csv", TRIALS_HEADER):
            assert float(row[3]) <= 1e-9

    @pytest.mark.parametrize(
        "args, digests",
        [
            ([], ("44791bdfc80c341febaf95906cc08f40668a5ace5598ddd7d878ee3c4107597b",
                  "e2242db767404a8c912142fce0e7e03b0b4d0cb21d5e54d05df13a8138337c63")),
            (["--real-noise"],
             ("a19f97c3e251637ad540188b44393b351b7d98ceb807947ebd1ee03e56674c91",
              "2cf56459857a2dccf8dfd0afc4c128955a5db65defa534bccf3f983da9e25ad9")),
        ],
        ids=["complex", "real"],
    )
    def test_fig2_golden_hash(self, runner, tmp_path, args, digests):
        # pins the per-(graph, sigma, trial) PCG64 streams; 300 trials is not a whole
        # number of sweep blocks
        out = tmp_path / "fig2"
        result = runner.invoke(
            main,
            ["experiment", "fig2", "--n", "10", "--k", "3", "--trials", "300",
             "--sigmas", "0.05,0.3", "--seed", "2", *args, "--out-dir", str(out)],
        )
        assert result.exit_code == 0
        assert tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                     for name in ("summary.csv", "bundle.json")) == digests

    @pytest.mark.parametrize(
        "args, digest",
        [
            ([], "cc46d5b4acdf6749c15ee0d31c5355efb7b7ab0fbc53278bfa6649c108587db7"),
            (["--real-noise"], "a8ebf50a8157c6d321727c091d0e63143ec321cb2e32841acd8e9d2502197213"),
        ],
        ids=["complex", "real"],
    )
    def test_fig2_trials_golden_hash(self, runner, tmp_path, args, digest):
        # the test_fig2_golden_hash sweep: 2 graphs x 2 sigmas x 300 trials
        out = tmp_path / "fig2"
        result = runner.invoke(
            main,
            ["experiment", "fig2", "--n", "10", "--k", "3", "--trials", "300",
             "--sigmas", "0.05,0.3", "--seed", "2", *args, "--out-dir", str(out)],
        )
        assert result.exit_code == 0
        assert hashlib.sha256((out / "trials.csv").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--sigmas", "nan"], "sigmas must be finite"),
            (["--sigmas", "inf"], "sigmas must be finite"),
            (["--sigmas", "0.1,inf"], "sigmas must be finite"),
            (["--w", "inf"], "w must be finite and positive"),
            (["--trials", "4294967297", "--sigmas", "0.1"], "trials must be below 2**32"),
        ],
    )
    def test_fig2_non_finite_flag_is_usage_error(self, runner, tmp_path, flags, message):
        out = tmp_path / "out"
        result = runner.invoke(main, ["experiment", "fig2", *flags, "--out-dir", str(out)])
        assert result.exit_code == 2
        assert message in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"sigmas": [NaN]}', "sigmas must be finite"),
            ('{"sigmas": [0.1, Infinity]}', "sigmas must be finite"),
            ('{"w": Infinity}', "w must be finite and positive"),
            ('{"trials": 4294967296, "sigmas": [0.1]}', "trials must be below 2**32"),
        ],
    )
    def test_fig2_non_finite_config_is_parse_error(self, runner, tmp_path, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["experiment", "fig2", "--config", str(cfg), "--out-dir", str(out)]
        )
        assert result.exit_code == FileFormatError.exit_code
        assert message in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"n": 20.5}', "n must be an integer, got 20.5"),
            ('{"k": 2.5}', "k must be an integer, got 2.5"),
            ('{"trials": 2.5}', "trials must be an integer, got 2.5"),
            ('{"seed": 1.5}', "seed must be an integer, got 1.5"),
            ('{"p": true, "w": true}', "p must be a real number, got True"),
            ('{"w": "0.8"}', "w must be a real number, got '0.8'"),
            ('{"sigmas": ["0.1"]}', "sigmas must be real numbers, got ['0.1']"),
            ('{"real_noise": "false"}', "real_noise must be true or false, got 'false'"),
        ],
    )
    def test_fig2_non_integer_config_is_parse_error(self, runner, tmp_path, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["experiment", "fig2", "--config", str(cfg), "--out-dir", str(out)]
        )
        assert result.exit_code == FileFormatError.exit_code
        assert isinstance(result.exception, SystemExit)
        assert message in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fig1", "fig2"])
    @pytest.mark.parametrize("via_config, code", [(False, 2), (True, FileFormatError.exit_code)],
                             ids=["flag", "config"])
    def test_negative_seed_names_the_field(self, runner, tmp_path, command, via_config, code):
        # a bad flag is a usage error (2); a config file whose own value is bad is a parse error (3)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        seed = ["--config", str(cfg)] if via_config else ["--seed", "-1"]
        out = tmp_path / "out"
        result = runner.invoke(main, ["experiment", command, *seed, "--out-dir", str(out)])
        assert result.exit_code == code
        assert "seed must be nonnegative, got -1" in result.output
        assert not out.exists()

    def test_config_valid_only_with_flags_is_accepted(self, runner, tmp_path):
        # k = 12 needs n >= 12, which the flag gives; a flag alone at fault is exit 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 12, "trials": 2, "sigmas": [0.1]}))
        args = ["experiment", "fig2", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]
        assert runner.invoke(main, args + ["--n", "30"]).exit_code == 0
        assert runner.invoke(main, args + ["--k", "0"]).exit_code == 2

    @pytest.mark.parametrize("command", ["fig1", "fig2"])
    def test_n_beyond_max_vertices_is_usage_error(self, runner, tmp_path, command):
        result = runner.invoke(
            main, ["experiment", command, "--n", "99999999999999999999",
                   "--out-dir", str(tmp_path / "o")]
        )
        assert result.exit_code == 2
        assert "n must be at most MAX_VERTICES = 10000" in result.output


@pytest.mark.parametrize(
    "argv, culprit",
    [
        (["gen", "cycle", "--n", "5", "--out", "{missing}/g.csv"], "missing"),
        (["analyze", "{graph}", "--out", "{missing}/m.json"], "missing"),
        (["analyze", "{graph}", "--spectrum-out", "{missing}/s.csv"], "missing"),
        (["gft", "{graph}", "{signal}", "--out", "{missing}/x.csv"], "missing"),
        (["filter", "{graph}", "{signal}", "--spec", "{spec}", "--out", "{missing}/y.csv"],
         "missing"),
        (["sample", "{graph}", "--k", "2", "--m", "3", "--out", "{missing}/plan.json"], "missing"),
        (["sample", "{graph}", "--k", "2", "--m", "3", "--out", "{tmp}/plan.json",
          "--signal", "{signal}", "--recover-out", "{missing}/r.csv"], "missing"),
        (["experiment", "fig1", "--n", "6", "--out-dir", "{afile}/sub"], "afile"),
        (["experiment", "fig2", "--n", "6", "--k", "2", "--trials", "2", "--sigmas", "0.1",
          "--out-dir", "{afile}/sub"], "afile"),
    ],
    ids=["gen", "analyze", "analyze-spectrum", "gft", "filter", "sample", "sample-recover",
         "fig1", "fig2"],
)
def test_unwritable_output_path_is_usage_error(argv, culprit, runner, tmp_path):
    graph = tmp_path / "g.csv"
    graph.write_text("src,dst,weight\n0,1,1\n1,2,1\n2,0,1\n")
    signal = tmp_path / "x.csv"
    signal.write_text("vertex,re,im\n0,1,0\n1,2,0\n2,3,0\n")
    spec = tmp_path / "lp.json"
    spec.write_text(json.dumps({"kind": "ideal", "omega": [0]}))
    (tmp_path / "afile").write_text("")
    names = {"graph": graph, "signal": signal, "spec": spec, "tmp": tmp_path,
             "missing": tmp_path / "missing", "afile": tmp_path / "afile"}
    result = runner.invoke(main, [arg.format(**names) for arg in argv])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert culprit in result.output
    assert "Traceback" not in result.output


def test_unwritable_output_path_prints_no_traceback(tmp_path):
    src = str(Path(dirlap.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "dirlap.cli", "gen", "cycle", "--n", "5",
         "--out", str(tmp_path / "missing" / "g.csv")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "No such file or directory" in done.stderr


def test_closed_stdout_pipe_ends_quietly():
    # 10,000 edge rows outgrow the pipe buffer, so the writer meets the closed pipe
    src = str(Path(dirlap.__file__).resolve().parents[1])
    with subprocess.Popen(
        [sys.executable, "-m", "dirlap.cli", "gen", "cycle", "--n", "10000"],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"src,dst,weight\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert stderr == b""


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: the library and its CLI run on numpy alone
    src = str(Path(dirlap.__file__).resolve().parents[1])
    code = "import sys, dirlap.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_no_numpy_random():
    # numpy.random is imported by the first sweep, not at start-up; statistics not at all
    src = str(Path(dirlap.__file__).resolve().parents[1])
    code = "import dirlap.cli, sys; print([m in sys.modules for m in ('numpy.random', 'statistics')])"
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[False, False]"
