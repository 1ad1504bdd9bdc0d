import csv
import gc
import hashlib
import json
import math
import subprocess
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import dirlap
from dirlap import experiments, fileio
from dirlap.cli import _config_from, main
from dirlap.errors import (
    DimensionMismatchError,
    FileFormatError,
    NearDefectiveError,
    NonFiniteError,
    RankDeficientError,
)
from dirlap.graphs import MAX_VERTICES


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


@pytest.fixture
def signal20_csv(tmp_path):
    """A complex signal on 20 vertices, written literally so its bytes depend on no writer."""
    path = tmp_path / "x.csv"
    path.write_text("vertex,re,im\n" + "".join(f"{v},{v % 7 - 3},{(3 * v) % 8 / 4}\n"
                                               for v in range(20)))
    return path


def test_each_error_type_carries_its_exit_code():
    # the documented exit codes live on the error types, nowhere else
    codes = {FileFormatError: 3, DimensionMismatchError: 4, RankDeficientError: 5,
             NearDefectiveError: 6, NonFiniteError: 7}
    assert {error: error.exit_code for error in codes} == codes


def leaf_commands(group):
    for cmd in group.commands.values():
        yield from leaf_commands(cmd) if isinstance(cmd, click.Group) else [cmd]


@pytest.mark.parametrize(
    "error",
    [FileFormatError, DimensionMismatchError, RankDeficientError, NearDefectiveError,
     NonFiniteError],
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

    def test_negative_seed_names_the_option(self, runner):
        result = runner.invoke(main, ["gen", "perturbed-cycle", "--n", "5", "--seed", "-1"])
        assert result.exit_code == 2
        assert "Invalid value for '--seed': -1" in result.output

    @pytest.mark.parametrize("w", ["inf", "nan", "0", "-1"])
    def test_weight_not_finite_and_positive_is_usage_error(self, runner, w):
        result = runner.invoke(main, ["gen", "perturbed-cycle", "--n", "5", f"--w={w}"])
        assert result.exit_code == 2
        message = {"inf": "w must be finite, got inf", "nan": "w must be finite, got nan",
                   "0": "w must lie in [5e-324, inf], got 0.0",
                   "-1": "w must lie in [5e-324, inf], got -1.0"}[w]
        assert message in result.output

    @pytest.mark.parametrize("kind", ["cycle", "perturbed-cycle"])
    def test_n_beyond_max_vertices_is_usage_error(self, runner, kind):
        result = runner.invoke(main, ["gen", kind, "--n", "99999999999999999999"])
        assert result.exit_code == 2
        assert "n must lie in [2, 10000], got 99999999999999999999" in result.output


def _refuse_constant(constant):
    raise ValueError(f"non-finite JSON number {constant}")


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

    def test_metrics_are_the_public_functions_of_the_decomposition(self, perturbed_csv, runner):
        dec = dirlap.decompose(dirlap.directed_laplacian(fileio.read_edge_list(perturbed_csv)))
        metrics = {"alpha": dirlap.asymmetry_index(dec.matrix),
                   "delta": dirlap.normality_departure(dec.matrix),
                   "henrici": dirlap.henrici_departure(dec), "kappa": dec.kappa}
        payload = json.loads(runner.invoke(main, ["analyze", str(perturbed_csv)]).output)
        rounded = {key: fileio.round12(value) for key, value in metrics.items()}
        assert payload == {"n": 20, **rounded, "spectrum_csv": None}

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

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e200, 1e300])
    def test_metrics_are_finite_strict_json_at_any_weight_scale(self, runner, tmp_path, scale):
        # the indices squared unscaled norms: nan (printed as NaN) at 1e200, 0 at 1e-170
        g = dirlap.gen_perturbed_cycle(6, 0.5, 1.0, 3)
        graph = tmp_path / "g.csv"
        fileio.write_edge_list(g, graph)
        ref = json.loads(runner.invoke(main, ["analyze", str(graph)]).output)
        fileio.write_edge_list(dirlap.DirectedGraph(6, g.src, g.dst, g.weight * scale), graph)
        result = runner.invoke(main, ["analyze", str(graph)])
        assert result.exit_code == 0
        payload = json.loads(result.output, parse_constant=_refuse_constant)
        for key in ("alpha", "delta", "kappa"):
            assert payload[key] == pytest.approx(ref[key], rel=1e-9), key
        assert payload["henrici"] == pytest.approx(scale * ref["henrici"], rel=1e-6)

    def test_cycle_in_the_top_binade(self, runner, tmp_path):
        # 1e308 > 2**1023: a unit scale of 2**1024 read every index as a plausible 0
        graph = tmp_path / "c.csv"
        graph.write_text("src,dst,weight\n0,1,1e308\n1,2,1e308\n2,0,1e308\n")
        result = runner.invoke(main, ["analyze", str(graph)])
        assert result.exit_code == 0
        payload = json.loads(result.output, parse_constant=_refuse_constant)
        assert (payload["alpha"], payload["delta"], payload["henrici"]) == (1.0, 0.0, 0.0)
        # the 4-cycle's eigenvalue 2e308 overflows: refused, nothing printed
        graph.write_text("src,dst,weight\n0,1,1e308\n1,2,1e308\n2,3,1e308\n3,0,1e308\n")
        result = runner.invoke(main, ["analyze", str(graph)])
        assert result.exit_code == NonFiniteError.exit_code
        assert result.stdout == ""
        assert "eigenvalue's modulus overflows" in result.stderr

    @pytest.mark.parametrize("form", [
        ["--spectrum-out", "s.csv", "--out", "m.json"],
        ["--format", "csv"],
        ["--format", "csv", "--spectrum-out", "s.csv", "--out", "m.csv"],
    ], ids=["json-files", "csv-stdout", "csv-files"])
    def test_overflowing_metric_writes_nothing(self, runner, tmp_path, monkeypatch, form):
        # two arcs of 1.7e308: every eigenvalue is finite, but the Henrici departure,
        # sqrt(2) * 1.7e308, is not; the spectrum was written first, and the CSV printed inf
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.csv").write_text("src,dst,weight\n0,1,1.7e308\n2,3,1.7e308\n")
        result = runner.invoke(main, ["analyze", "g.csv", *form])
        assert result.exit_code == NonFiniteError.exit_code
        assert result.stdout == ""
        assert result.stderr == ("error: henrici is inf: the computation overflowed float64, "
                                 "and no output was written\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv"]

    def test_undirected_path_reads_zero_henrici(self, runner, tmp_path):
        # a normal L whose two Henrici sums differ by 1.6 n eps ||L||_F^2 in rounding alone
        graph = tmp_path / "p4.csv"
        graph.write_text("src,dst,weight\n0,1,1\n1,0,1\n1,2,1\n2,1,1\n2,3,1\n3,2,1\n")
        result = runner.invoke(main, ["analyze", str(graph)])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert (payload["delta"], payload["henrici"], payload["kappa"]) == (0.0, 0.0, 1.0)

    def test_fig1_metrics_are_strict_json_at_a_huge_weight(self, runner, tmp_path):
        out = tmp_path / "fig1"
        result = runner.invoke(main, ["experiment", "fig1", "--w", "1e200", "--out-dir", str(out)])
        assert result.exit_code == 0
        bundle = json.loads((out / "metrics.json").read_text(), parse_constant=_refuse_constant)
        assert bundle["graphs"]["perturbed"]["henrici"] > 1e200

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
        assert f"{path}: vertex count must lie in [1, 10000], got 60001" in result.output

    def test_near_defective_exit_code(self, tmp_path, runner):
        # directed path graph: defective Laplacian
        path = tmp_path / "path.csv"
        path.write_text("src,dst,weight\n" + "".join(f"{i},{i+1},1\n" for i in range(7)))
        result = runner.invoke(main, ["analyze", str(path)])
        assert result.exit_code == NearDefectiveError.exit_code


@pytest.mark.parametrize("args", [
    ["analyze", "{graph}"],
    ["sample", "{graph}", "--k", "2", "--m", "2"],
    ["experiment", "fig1", "--n", "5", "--k", "2", "--p", "1", "--w", "1.7e308",
     "--out-dir", "{out}"],
], ids=["analyze", "sample", "fig1"])
def test_out_degree_overflow_exits_non_finite(tmp_path, runner, args):
    # two finite out-arcs of vertex 0 whose sum, its out-degree, overflows float64
    graph = tmp_path / "g.csv"
    graph.write_text("src,dst,weight\n0,1,1.7e308\n0,2,1.7e308\n1,2,1\n2,0,1\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would fail the command
        result = runner.invoke(main, [arg.format(graph=graph, out=out) for arg in args])
    assert result.exit_code == NonFiniteError.exit_code
    assert result.stderr == ("error: out-degree of vertex 0 overflows float64; "
                             "scale the weights down\n")
    assert result.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("args, what", [
    (["gft", "{graph}", "{signal}"], "forward transform"),
    (["gft", "{graph}", "{signal}", "--direction", "inverse"], "inverse transform"),
    (["filter", "{graph}", "{signal}", "--spec", "{spec}"], "filter"),
    (["sample", "{graph}", "--k", "2", "--m", "3", "--signal", "{signal}"], "recovery"),
], ids=["gft", "gft-inverse", "filter", "sample"])
def test_overflowing_transform_exits_non_finite(tmp_path, runner, args, what):
    # every signal entry 1e308 on the 4-cycle: the transform's sums pass float64. The
    # signal's own finiteness check used to fire on the result (exit 2, after numpy warnings)
    graph, signal, spec = tmp_path / "c4.csv", tmp_path / "x.csv", tmp_path / "taps.json"
    assert runner.invoke(main, ["gen", "cycle", "--n", "4", "--out", str(graph)]).exit_code == 0
    signal.write_text("vertex,re,im\n" + "".join(f"{v},1e308,1e308\n" for v in range(4)))
    spec.write_text(json.dumps({"kind": "diagonal", "response": [[1e300, 0]] * 4}))
    out = tmp_path / "out.csv"
    argv = [arg.format(graph=graph, signal=signal, spec=spec) for arg in args]
    argv += ["--recover-out" if args[0] == "sample" else "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would fail the command
        result = runner.invoke(main, argv)
    assert result.exit_code == NonFiniteError.exit_code
    assert result.stderr == f"error: the {what} overflowed float64\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "gft", "filter", "sample"])
@pytest.mark.parametrize("n", [3, 8, 40])
def test_directed_path_exits_near_defective_from_every_command(tmp_path, runner, n, command):
    # the path's Laplacian has one Jordan block of size n - 1 at eigenvalue 1: LAPACK
    # returns (nearly) parallel eigenvectors, refused as a singular basis or by max s_i
    graph = tmp_path / "path.csv"
    graph.write_text("src,dst,weight\n" + "".join(f"{i},{i + 1},1\n" for i in range(n - 1)))
    signal = tmp_path / "x.csv"
    fileio.write_signal(np.ones(n), signal)
    spec = tmp_path / "lp.json"
    spec.write_text(json.dumps({"kind": "ideal", "omega": [0]}))
    out = tmp_path / "out.csv"
    argv = {
        "analyze": ["analyze", str(graph), "--out", str(out)],
        "gft": ["gft", str(graph), str(signal), "--out", str(out)],
        "filter": ["filter", str(graph), str(signal), "--spec", str(spec), "--out", str(out)],
        "sample": ["sample", str(graph), "--k", "2", "--m", "2", "--out", str(out)],
    }[command]
    result = runner.invoke(main, argv)
    assert result.exit_code == NearDefectiveError.exit_code
    assert "numerically defective" in result.output
    assert not out.exists()


#: each command line given an input of the wrong length on a 3-cycle, its exit code and its
#: error text: one text for every length refusal, a spec's wrapped as a file fault
WRONG_LENGTH = {
    "gft": (["gft", "{graph}", "{short}", "--out", "{out}"],
            DimensionMismatchError.exit_code, "signal must have length 3, got 1"),
    "gft-inverse": (["gft", "{graph}", "{short}", "--direction", "inverse", "--out", "{out}"],
                    DimensionMismatchError.exit_code, "signal must have length 3, got 1"),
    "filter": (["filter", "{graph}", "{short}", "--spec", "{ideal}", "--out", "{out}"],
               DimensionMismatchError.exit_code, "signal must have length 3, got 1"),
    "sample": (["sample", "{graph}", "--k", "1", "--m", "2", "--signal", "{short}",
                "--recover-out", "{out}", "--out", "{plan}"],
               DimensionMismatchError.exit_code, "signal must have length 3, got 1"),
    "filter-spec": (["filter", "{graph}", "{fits}", "--spec", "{diagonal}", "--out", "{out}"],
                    FileFormatError.exit_code,
                    "bad diagonal filter spec: filter response must have length 3, got 1"),
}


@pytest.mark.parametrize("command", list(WRONG_LENGTH))
def test_wrong_length_signal_is_one_refusal(runner, tmp_path, command):
    names = {name: tmp_path / file for name, file in (
        ("graph", "c3.csv"), ("short", "x.csv"), ("fits", "x3.csv"), ("ideal", "lp.json"),
        ("diagonal", "diag.json"), ("out", "out.csv"), ("plan", "plan.json"))}
    gen = runner.invoke(main, ["gen", "cycle", "--n", "3", "--out", str(names["graph"])])
    assert gen.exit_code == 0
    names["short"].write_text("vertex,re,im\n0,1,0\n")
    names["fits"].write_text("vertex,re,im\n0,1,0\n1,1,0\n2,1,0\n")
    names["ideal"].write_text(json.dumps({"kind": "ideal", "omega": [0]}))
    names["diagonal"].write_text(json.dumps({"kind": "diagonal", "response": [[1, 0]]}))
    argv, exit_code, message = WRONG_LENGTH[command]
    result = runner.invoke(main, [arg.format(**names) for arg in argv])
    assert result.exit_code == exit_code
    assert result.stderr == f"error: {message}\n"
    assert not names["out"].exists() and not names["plan"].exists()


@pytest.mark.parametrize("first, second", [("m.json", "m.json"), ("m.json", "./m.json"),
                                           ("m.json", "{tmp}/m.json")],
                         ids=["same", "dot-slash", "absolute"])
@pytest.mark.parametrize("command", ["analyze", "sample"])
def test_two_outputs_naming_one_file_are_refused(runner, tmp_path, monkeypatch, command, first,
                                                 second):
    # the check runs before the graph is read, so an unreadable graph still exits 2
    monkeypatch.chdir(tmp_path)
    Path("bad.csv").write_text("not,a,graph\n")
    Path("x.csv").write_text("vertex,re,im\n0,1,0\n")
    second = second.format(tmp=tmp_path)
    options, argv = {
        "analyze": ("--out and --spectrum-out",
                    ["analyze", "bad.csv", "--out", first, "--spectrum-out", second]),
        "sample": ("--out and --recover-out",
                   ["sample", "bad.csv", "--k", "1", "--m", "2", "--out", first, "--signal",
                    "x.csv", "--recover-out", second]),
    }[command]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert f"Error: {options} name the same file" in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv", "x.csv"]


@pytest.mark.parametrize("argv, message", [
    (["experiment", "fig2", "--sigmas", "0.1,,1", "--out-dir", "o"],
     "bad --sigmas: could not convert string to float: ''"),
    (["experiment", "fig2", "--sigmas", "0.1,x", "--out-dir", "o"],
     "bad --sigmas: could not convert string to float: 'x'"),
    (["sample", "g.csv", "--k", "1", "--sample-set", "0,,1"],
     "bad --sample-set: invalid literal for int: ''"),
    (["sample", "g.csv", "--k", "1", "--sample-set", "0,1.5"],
     "bad --sample-set: invalid literal for int: '1.5'"),
], ids=["sigmas-blank", "sigmas-word", "sample-set-blank", "sample-set-float"])
def test_comma_lists_are_read_token_by_token(runner, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert runner.invoke(main, ["gen", "cycle", "--n", "3", "--out", "g.csv"]).exit_code == 0
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert result.output.endswith(f"Error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv"]


class TestGft:
    def test_round_trip_through_files(self, cycle_csv, runner, tmp_path, rng):
        x = rng.standard_normal(20)
        sig = tmp_path / "x.csv"
        fileio.write_signal(x, sig)
        fwd = tmp_path / "xhat.csv"
        back = tmp_path / "back.csv"
        assert runner.invoke(
            main, ["gft", str(cycle_csv), str(sig), "--direction", "forward", "--out", str(fwd)]
        ).exit_code == 0
        assert runner.invoke(
            main, ["gft", str(cycle_csv), str(fwd), "--direction", "inverse", "--out", str(back)]
        ).exit_code == 0
        recovered = fileio.read_signal(back)
        assert np.allclose(recovered, x, atol=1e-9)

    def test_constant_signal_concentrates_on_dc(self, perturbed_csv, runner, tmp_path):
        sig = tmp_path / "ones.csv"
        fileio.write_signal(np.ones(20), sig)
        out = tmp_path / "xhat.csv"
        runner.invoke(main, ["gft", str(perturbed_csv), str(sig), "--out", str(out)])
        xhat = fileio.read_signal(out)
        assert abs(xhat[0]) == pytest.approx(np.sqrt(20), abs=1e-6)
        assert np.max(np.abs(xhat[1:])) < 1e-6

    @pytest.mark.parametrize("direction, sha256", [
        ("forward", "154ed50a0d2aa42be3fbde3c36364565e7f5d48f91355ef45b4d6f26c4c4200c"),
        ("inverse", "b961f038d068ef22215180b673b553678da4177c6cfd5c5e7cf5338fdd610499"),
    ])
    def test_golden_hash(self, perturbed_csv, signal20_csv, runner, tmp_path, direction, sha256):
        # one input read as vertex values (forward) and as spectral coefficients (inverse)
        out = tmp_path / "out.csv"
        result = runner.invoke(main, ["gft", str(perturbed_csv), str(signal20_csv),
                                      "--direction", direction, "--out", str(out)])
        assert result.exit_code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


class TestFilter:
    def test_ideal_low_pass(self, perturbed_csv, runner, tmp_path, rng):
        sig = tmp_path / "x.csv"
        fileio.write_signal(rng.standard_normal(20), sig)
        spec = tmp_path / "filter.json"
        spec.write_text(json.dumps({"kind": "ideal", "omega": [0, 1, 2, 3, 4]}))
        out = tmp_path / "y.csv"
        result = runner.invoke(
            main, ["filter", str(perturbed_csv), str(sig), "--spec", str(spec), "--out", str(out)]
        )
        assert result.exit_code == 0
        assert fileio.read_signal(out).shape == (20,)

    @pytest.mark.parametrize("spec, sha256", [
        ({"kind": "ideal", "omega": [0, 1, 2, 3, 4]},
         "fedb94210e76e2e8e029d1cf94540d6fd09fc1b29611e14bc5702a6ebfa3b102"),
        ({"kind": "diagonal", "response": [[1 / (1 + k), k / 8] for k in range(20)]},
         "555c4de6744c03c1b47f9f35358a6f0ecd5ac093180bba3892878df9702ae28c"),
    ], ids=["ideal", "diagonal"])
    def test_golden_hash(self, perturbed_csv, signal20_csv, runner, tmp_path, spec, sha256):
        spec_path, out = tmp_path / "spec.json", tmp_path / "y.csv"
        spec_path.write_text(json.dumps(spec))
        result = runner.invoke(main, ["filter", str(perturbed_csv), str(signal20_csv),
                                      "--spec", str(spec_path), "--out", str(out)])
        assert result.exit_code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

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
        fileio.write_signal(np.ones(20), sig)
        spec = tmp_path / "filter.json"
        non_finite = [[float("nan"), 0.0]] + [[1.0, 0.0]] * 19
        ones = [[1, 0]] * 19
        for payload in ({"kind": "nonsense"}, {"kind": "diagonal", "response": non_finite},
                        {"kind": "ideal", "omega": [1e30]},
                        {"kind": "ideal", "omega": [float("inf")]},
                        {"kind": "ideal", "omega": [0.9]}, {"kind": "ideal", "omega": [1.5]},
                        {"kind": "ideal", "omega": [True]}, {"kind": "ideal", "omega": ["2"]},
                        {"kind": "ideal", "omega": "12"},
                        {"kind": "diagonal", "response": [[True, 0]] + ones},
                        {"kind": "diagonal", "response": [[1, False]] + ones},
                        {"kind": "diagonal", "response": [["1", 0]] + ones},
                        {"kind": "diagonal", "response": [[10**400, 0]] + ones},
                        # the file contract is "exactly once": no unknown key, no repeated index
                        {"kind": "ideal", "omega": [0], "extra": 1},
                        {"kind": "diagonal", "response": [[1, 0]] + ones, "omega": [0]},
                        {"kind": "ideal", "omega": [0, 0]},
                        {"kind": ["ideal"], "omega": [0]}):
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
        band = dirlap.BandModel(dec, 3)
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
        assert np.linalg.norm(recovered - x) <= 1e-8 * np.linalg.norm(x)

    def test_signal_is_gated_once(self, perturbed_csv, signal20_csv, runner, tmp_path,
                                  gate_calls):
        # read_signal's gate is the signal's one, the command checks only its length; then
        # recover gates its samples and write_signal the recovered signal
        result = runner.invoke(main, ["sample", str(perturbed_csv), "--k", "5", "--m", "8",
                                      "--signal", str(signal20_csv), "--recover-out",
                                      str(tmp_path / "rec.csv"), "--out", str(tmp_path / "p.json")])
        assert result.exit_code == 0
        assert gate_calls == ["signal", "samples", "signal"]

    def test_golden_hash(self, perturbed_csv, signal20_csv, runner, tmp_path):
        # pins the greedy plan JSON and the recovery of a signal outside the band
        plan_path, rec = tmp_path / "plan.json", tmp_path / "rec.csv"
        result = runner.invoke(main, ["sample", str(perturbed_csv), "--k", "5", "--m", "8",
                                      "--signal", str(signal20_csv), "--recover-out", str(rec),
                                      "--out", str(plan_path)])
        assert result.exit_code == 0
        assert tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (plan_path, rec)) == (
            "679a0e1541ff2622ae1132235565499db633c8bcb703d504e77cc7d243702212",
            "54e7f34a7855f9eb0c22aa0e271f896cc38a1efc9728a879db31c87b94917fc2",
        )

    def test_rank_deficient_exit_code(self, perturbed_csv, runner, tmp_path):
        sig = tmp_path / "x.csv"
        fileio.write_signal(np.ones(20), sig)
        result = runner.invoke(
            main,
            ["sample", str(perturbed_csv), "--k", "5", "--sample-set", "0,1",
             "--signal", str(sig), "--recover-out", str(tmp_path / "r.csv")],
        )
        assert result.exit_code == RankDeficientError.exit_code

    def test_signal_without_recover_out_writes_nothing(self, perturbed_csv, runner, tmp_path):
        sig = tmp_path / "x.csv"
        fileio.write_signal(np.ones(20), sig)
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

    @pytest.mark.parametrize("rows, code", [
        ("0,1,0\n1,1,0\n2,1,0\n", DimensionMismatchError.exit_code),
        ("0,1,0\n1,x,0\n2,1,0\n3,1,0\n", FileFormatError.exit_code),
        ("".join(f"{v},1e308,1e308\n" for v in range(4)), NonFiniteError.exit_code),
    ], ids=["short-signal", "bad-row", "recovery-overflows"])
    def test_failed_recovery_writes_neither_file(self, runner, tmp_path, rows, code):
        # the signal is read and recovered before the plan is written
        graph, sig = tmp_path / "c4.csv", tmp_path / "x.csv"
        assert runner.invoke(main, ["gen", "cycle", "--n", "4", "--out", str(graph)]).exit_code == 0
        sig.write_text("vertex,re,im\n" + rows)
        plan_path, rec = tmp_path / "plan.json", tmp_path / "rec.csv"
        result = runner.invoke(
            main,
            ["sample", str(graph), "--k", "2", "--m", "3", "--signal", str(sig),
             "--recover-out", str(rec), "--out", str(plan_path)],
        )
        assert result.exit_code == code
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

    @pytest.mark.parametrize("sample_set", ["1,,2", "1,2,", ",1", " ", ""])
    def test_blank_sample_set_token_is_usage_error(self, cycle_csv, runner, tmp_path, sample_set):
        plan_path = tmp_path / "plan.json"
        result = runner.invoke(
            main, ["sample", str(cycle_csv), "--k", "2", "--sample-set", sample_set,
                   "--out", str(plan_path)]
        )
        assert result.exit_code == 2
        assert "bad --sample-set" in result.output
        assert not plan_path.exists()

    def test_negative_random_seed_names_the_option(self, cycle_csv, runner):
        result = runner.invoke(
            main, ["sample", str(cycle_csv), "--k", "2", "--m", "4", "--strategy", "random",
                   "--seed", "-1"]
        )
        assert result.exit_code == 2
        assert "Invalid value for '--seed': -1" in result.output

    def test_aliasing_plan_prints_null_certificate(self, runner, tmp_path):
        # bidirectional 5-cycle: vertices {1, 4} alias its 2-mode band up to rounding
        graph = tmp_path / "bi5.csv"
        graph.write_text("src,dst,weight\n" + "".join(
            f"{i},{(i + 1) % 5},1\n{(i + 1) % 5},{i},1\n" for i in range(5)))
        result = runner.invoke(main, ["sample", str(graph), "--k", "2", "--sample-set", "1,4"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert 0 < payload["gamma"] <= 1e-12 * payload["b_norm"]
        assert payload["certificate"] is None


@pytest.mark.parametrize("args", [
    ["sample", "{graph}", "--k", "\u0662", "--m", "3"],
    ["sample", "{graph}", "--k", "2", "--sample-set", "0,\u0663"],
    ["sample", "{graph}", "--k", "2", "--sample-set", "0,0_1"],
    ["sample", "{graph}", "--k", "2", "--m", "3", "--strategy", "random", "--seed", "\u0663"],
    ["gen", "cycle", "--n", "1_0"],
    ["gen", "cycle", "--n", "\u20074"],
    ["gen", "cycle", "--n", "4", "--seed", "1_0"],
    ["analyze", "{graph}", "--n", "\u0664"],
    ["experiment", "fig1", "--n", "1_0", "--out-dir", "{out}"],
    ["experiment", "fig2", "--trials", "\u0663", "--out-dir", "{out}"],
], ids=["k-arabic-indic", "sample-set-arabic-indic", "sample-set-underscore", "seed-arabic-indic",
        "gen-underscore", "gen-figure-space", "gen-seed-underscore",
        "analyze-arabic-indic", "fig1-underscore", "fig2-arabic-indic"])
def test_integer_options_follow_the_csv_integer_grammar(tmp_path, runner, args):
    # one integer rule for the command line and the CSV readers: ASCII decimal digits, an
    # optional sign, ASCII spaces around; int() alone read "1_0" as 10 and "\u0663" as 3
    graph, out = tmp_path / "c4.csv", tmp_path / "out"
    assert runner.invoke(main, ["gen", "cycle", "--n", "4", "--out", str(graph)]).exit_code == 0
    result = runner.invoke(main, [arg.format(graph=graph, out=out) for arg in args])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("n", ["4", " 4 ", "+4", "04", "\t4"])
def test_integer_options_take_signs_spaces_and_leading_zeros(runner, n):
    result = runner.invoke(main, ["gen", "cycle", "--n", n])
    assert result.exit_code == 0
    assert result.stdout.count("\n") == 5


@pytest.mark.parametrize("args", [
    ["gen", "perturbed-cycle", "--n", "4", "--w", "1_0"],
    ["gen", "perturbed-cycle", "--n", "4", "--p", "\u0660.\u0662"],
    ["gen", "perturbed-cycle", "--n", "4", "--p", "0x1p-2"],
    ["experiment", "fig1", "--n", "4", "--k", "2", "--w", "1_0", "--out-dir", "{out}"],
    ["experiment", "fig1", "--n", "4", "--k", "2", "--p", "\u0660.\u0662", "--out-dir", "{out}"],
    ["experiment", "fig2", "--n", "4", "--k", "2", "--trials", "1", "--sigmas", "0.1,1_0",
     "--out-dir", "{out}"],
    ["experiment", "fig2", "--n", "4", "--k", "2", "--trials", "1", "--sigmas", "\u0660.\u0661",
     "--out-dir", "{out}"],
], ids=["gen-w-underscore", "gen-p-arabic-indic", "gen-p-hex", "fig1-w-underscore",
        "fig1-p-arabic-indic", "fig2-sigmas-underscore", "fig2-sigmas-arabic-indic"])
def test_float_options_follow_the_csv_float_grammar(tmp_path, runner, args):
    # one float rule for the command line and the CSV readers; float() alone read "1_0"
    # as 10 and "\u0660.\u0661" as 0.1
    out = tmp_path / "out"
    result = runner.invoke(main, [arg.format(out=out) for arg in args])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("p", [" .5 ", "+5e-1", "5.E-1", "\t0.50", "500e-3"])
def test_float_options_take_the_csv_float_forms(runner, p):
    expected = runner.invoke(main, ["gen", "perturbed-cycle", "--n", "6", "--p", "0.5"])
    result = runner.invoke(main, ["gen", "perturbed-cycle", "--n", "6", "--p", p])
    assert result.exit_code == 0
    assert result.stdout == expected.stdout


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
        fileio.write_signal(np.arange(1.0, 6.0), path)
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
            assert len(fileio.read_signal(out)) == 5
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
        assert f"n must lie in [1, 10000], got {n}" in result.output


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

    def test_fig2_overflow_is_refused_before_any_file(self, runner, tmp_path):
        # the noise norms overflow to inf: refused by name, with no half-written bundle
        out = tmp_path / "fig2"
        result = runner.invoke(main, ["experiment", "fig2", "--trials", "5", "--sigmas", "1e200",
                                      "--out-dir", str(out)])
        assert result.exit_code == NonFiniteError.exit_code
        assert result.stderr == ("error: err_l2 of the cycle graph at sigma 1e+200 "
                                 "overflowed float64\n")
        assert not out.exists()

    def test_fig2_summary_survives_a_sum_past_float64(self, runner, tmp_path):
        # every err_l2 is finite, but fsum of their squared deviations overflowed and
        # raised OverflowError (a traceback)
        sigma = 8e152
        # the premise, on the sweep the command runs: every err_l2 and every squared
        # deviation is finite, and on some cell the plain sum of the squares is not
        sums = []
        config = experiments.ExperimentConfig(sigmas=(sigma,))
        for cell in experiments.run_noise_sweep(config).cells:
            errs = cell.err_l2.tolist()
            squares = [(e - cell.err_mean) ** 2 for e in errs]
            assert all(map(math.isfinite, errs + squares))
            sums.append(sum(squares))
        assert math.inf in sums
        out = tmp_path / "fig2"
        result = runner.invoke(main, ["experiment", "fig2", "--sigmas", f"{sigma!r}",
                                      "--out-dir", str(out)])
        assert result.exit_code == 0
        bundle = json.loads((out / "bundle.json").read_text(), parse_constant=_refuse_constant)
        assert all(row["err_std"] > 1e151 for row in bundle["summary"])

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

    @pytest.mark.parametrize(
        "sigmas, message",
        [
            ("0.1", "sigmas must be a sequence of real numbers, got 0.1"),
            ("null", "sigmas must be a sequence of real numbers, got None"),
            ('{"0.1": 1}', "sigmas must be a sequence of real numbers, got {'0.1': 1}"),
            ('"0.1"', "sigmas must be a real number, got '0.1'"),
        ],
        ids=["number", "null", "object", "string"],
    )
    def test_fig2_config_sigmas_not_a_list_names_the_field(self, runner, tmp_path, sigmas,
                                                          message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"sigmas": {sigmas}}}')
        out = tmp_path / "o"
        result = runner.invoke(
            main, ["experiment", "fig2", "--config", str(cfg), "--out-dir", str(out)]
        )
        assert result.exit_code == FileFormatError.exit_code
        assert result.stderr == f"error: bad config {cfg}: {message}\n"
        assert not out.exists()

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
            ([], ("59ba85d18b03db77722b314911dc674d4d766b1b560b5fbfaf988c23a0bbf74e",
                  "1abaae8d62cdfcf1e37d386ccffbdff8236ac24e0b33eee9b37510f5d7bfba34")),
            (["--real-noise"],
             ("cb796048cee5b72bf3ba76c85ea4cbc5868f0b6511bc7a3996ef2a343ab2634b",
              "4b160fa0d28024a85cec85b20b170df0edb895adac8c64ba3a57370f84683b0f")),
        ],
        ids=["complex", "real"],
    )
    def test_fig2_golden_hash(self, runner, tmp_path, args, digests):
        # pins the per-(graph, sigma) PCG64 streams; at n = 10 the 300 trials
        # fit in one sweep block (test_fig2_bytes_do_not_depend_on_block_size splits them)
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
            ([], "28efe04cf134b7ee8197c0140b37a037cfde20f1ccf0fd2ae76fd731261fb52e"),
            (["--real-noise"], "ecaf3e90681aeab95f48d27a73ac70f03d8b9215bc40fb471b5fea12f64b9488"),
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
        "args, digest",
        [
            ([], "cb9c7ce6833f89237b18a6417a5f476feffc40dae09569bc0f26e71c9f96792f"),
            (["--real-noise"], "818e1d8cf68e143559544a15d9f79548747545fe6e9f1b314304f006d19c943e"),
        ],
        ids=["complex", "real"],
    )
    def test_fig2_trials_golden_hash_at_full_block_width(self, runner, tmp_path, args, digest):
        # at n = 20 a block is 1024 trials, as in the paper-size benchmark, so each cell of
        # 1100 trials is one full block and one of 76 columns
        out = tmp_path / "fig2"
        result = runner.invoke(
            main,
            ["experiment", "fig2", "--n", "20", "--k", "5", "--trials", "1100",
             "--sigmas", "0.05,0.3", "--seed", "2", *args, "--out-dir", str(out)],
        )
        assert result.exit_code == 0
        assert hashlib.sha256((out / "trials.csv").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "args, digests",
        [
            ([], ("f8a1d1976835d9e289310c2862eca6256f12a5fb96d0b4352d5fd79461488969",
                  "9db6e37217f88567e552ec3ed5ac717992928bce14a7cd567978d1585f54a962")),
            (["--real-noise"],
             ("a4bd1667f4c27bcb4fc69ed132db1ad7104d9f4469210c62fd365044b62e476d",
              "15d3d0b0a4989a07e22779110763c8053b07d5c0344c26a7a6c42669923f488d")),
        ],
        ids=["complex", "real"],
    )
    def test_fig2_golden_hash_at_one_mode(self, runner, tmp_path, args, digests):
        # at k = 1 the sweep keeps a second, unused row of U_omega^*, so numpy multiplies by
        # gemm as at every other k; one row would take gemv, which rounds differently
        out = tmp_path / "fig2"
        result = runner.invoke(
            main,
            ["experiment", "fig2", "--n", "20", "--k", "1", "--trials", "1100",
             "--sigmas", "0,0.05,0.3", "--seed", "2", *args, "--out-dir", str(out)],
        )
        assert result.exit_code == 0
        assert tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                     for name in ("trials.csv", "summary.csv")) == digests

    @pytest.mark.parametrize("args", [[], ["--real-noise"]], ids=["complex", "real"])
    @pytest.mark.parametrize("trials", [16, 32, 128])
    def test_fig2_bytes_do_not_depend_on_block_size(self, runner, tmp_path, monkeypatch,
                                                    args, trials):
        # blocks of a power of two trials, as the sweep picks them, keep each trial's
        # place in the matrix-product kernels' column panels, so the golden bytes hold
        def fig2(out):
            result = runner.invoke(
                main,
                ["experiment", "fig2", "--n", "10", "--k", "3", "--trials", "300",
                 "--sigmas", "0.05,0.3", "--seed", "2", *args, "--out-dir", str(out)],
            )
            assert result.exit_code == 0
            return [(out / name).read_bytes()
                    for name in ("trials.csv", "summary.csv", "bundle.json")]

        expected = fig2(tmp_path / "default")
        monkeypatch.setattr(experiments, "_block_trials", lambda n: trials)
        assert fig2(tmp_path / "blocks") == expected

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--sigmas", "nan"], "sigmas must be finite"),
            (["--sigmas", "inf"], "sigmas must be finite"),
            (["--sigmas", "0.1,inf"], "sigmas must be finite"),
            (["--w", "inf"], "w must be finite, got inf"),
            (["--trials", "4294967297", "--sigmas", "0.1"],
             "trials must lie in [1, 4294967295], got 4294967297"),
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
            ('{"w": Infinity}', "w must be finite, got inf"),
            ('{"trials": 4294967296, "sigmas": [0.1]}',
             "trials must lie in [1, 4294967295], got 4294967296"),
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
            ('{"sigmas": ["0.1"]}', "sigmas must be a real number, got '0.1'"),
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
        assert "seed must lie in [0, inf], got -1" in result.output
        assert not out.exists()

    def test_config_valid_only_with_flags_is_accepted(self, runner, tmp_path):
        # k = 12 needs n >= 12, which the flag gives; a flag alone at fault is exit 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 12, "trials": 2, "sigmas": [0.1]}))
        args = ["experiment", "fig2", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]
        assert runner.invoke(main, args + ["--n", "30"]).exit_code == 0
        assert runner.invoke(main, args + ["--k", "0"]).exit_code == 2

    @pytest.mark.parametrize("command", ["fig1", "fig2"])
    @pytest.mark.parametrize("via_config, code", [(False, 2), (True, FileFormatError.exit_code)],
                             ids=["flag", "config"])
    def test_n_beyond_max_vertices_blames_its_source(self, runner, tmp_path, command, via_config,
                                                     code):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 20000}))
        n = ["--config", str(cfg)] if via_config else ["--n", "20000"]
        out = tmp_path / "out"
        result = runner.invoke(main, ["experiment", command, *n, "--out-dir", str(out)])
        assert result.exit_code == code
        assert "n must lie in [2, 10000], got 20000" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fig1", "fig2"])
    def test_n_beyond_max_vertices_is_usage_error(self, runner, tmp_path, command):
        result = runner.invoke(
            main, ["experiment", command, "--n", "99999999999999999999",
                   "--out-dir", str(tmp_path / "o")]
        )
        assert result.exit_code == 2
        assert "n must lie in [2, 10000], got 99999999999999999999" in result.output


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


def test_unwritable_output_path_prints_no_traceback(tmp_path, fresh_python):
    done = fresh_python("-m", "dirlap.cli", "gen", "cycle", "--n", "5",
                        "--out", str(tmp_path / "missing" / "g.csv"))
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "No such file or directory" in done.stderr


def test_closed_stdout_pipe_ends_quietly(fresh_python):
    # 10,000 edge rows outgrow the pipe buffer, so the writer meets the closed pipe
    with fresh_python("-m", "dirlap.cli", "gen", "cycle", "--n", "10000", spawn=subprocess.Popen,
                      stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"src,dst,weight\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert stderr == b""


class TestProcessEntry:
    """``python -m dirlap.cli`` and the installed command run through ``cli.run``."""

    @pytest.mark.parametrize(
        "args, code",
        [
            (["gen", "cycle", "--n", "5", "--out", "{out}"], 0),
            (["gen", "perturbed-cycle", "--n", "20", "--seed", "-1"], 2),
            (["analyze", "{header_only}"], FileFormatError.exit_code),
            (["gft", "{cycle3}", "{one_entry}", "--out", "{out}"],
             DimensionMismatchError.exit_code),
            (["sample", "{perturbed}", "--k", "5", "--sample-set", "0,1", "--signal", "{ones}",
              "--recover-out", "{out}"], RankDeficientError.exit_code),
            (["analyze", "{path}"], NearDefectiveError.exit_code),
            (["analyze", "{overflow}"], NonFiniteError.exit_code),
        ],
        ids=["ok", "usage", "parse", "dimension", "rank", "defective", "non-finite"],
    )
    def test_each_exit_code_without_traceback(self, perturbed_csv, tmp_path, fresh_python, args,
                                              code):
        # the inputs of the in-process tests of each code
        files = {"header_only": "src,dst\n0,1\n",
                 "cycle3": "src,dst,weight\n0,1,1\n1,2,1\n2,0,1\n",
                 "one_entry": "vertex,re,im\n0,1,0\n",
                 "path": "src,dst,weight\n" + "".join(f"{i},{i + 1},1\n" for i in range(7)),
                 "overflow": "src,dst,weight\n0,1,1.7e308\n0,2,1.7e308\n1,2,1\n2,0,1\n"}
        names = {"perturbed": perturbed_csv, "out": tmp_path / "out.csv"}
        for name, text in files.items():
            names[name] = tmp_path / f"{name}.csv"
            names[name].write_text(text)
        names["ones"] = tmp_path / "ones.csv"
        fileio.write_signal(np.ones(20), names["ones"])
        done = fresh_python("-m", "dirlap.cli", *(arg.format(**names) for arg in args))
        assert done.returncode == code
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: ") == (code > 2)

    #: each process entry, with ``{probe}`` where the collection counter goes in, and whether
    #: it runs its command with the collector off and exits frozen
    ENTRIES = {
        "run": ("from dirlap.cli import run; {probe}; run()", True),
        "module": ("import runpy; {probe}; runpy.run_module('dirlap.cli', run_name='__main__')",
                   True),
        "main": ("from dirlap.cli import main; {probe}; main()", False),
    }

    @pytest.mark.parametrize(
        "args, first_line",
        [(["--version"], f"dirlap, version {dirlap.__version__}"),
         (["experiment", "fig1", "--n", "20", "--trials", "3", "--out-dir", "{out}"],
          "{out}/metrics.json")],
        ids=["version", "fig1"],
    )
    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_process_collector_policy(self, fresh_python, tmp_path, entry, args, first_line):
        # the counter starts on an empty young generation, so it counts what the entry runs:
        # the module entry's imports and each entry's command; the atexit probe runs after the
        # entry's freeze, as the first step of either exit: the process entry's own, or under
        # main the interpreter's, before its finalization collects
        code, process_entry = self.ENTRIES[entry]
        probe = ("gc.collect(); collections = []; "
                 "gc.callbacks.append(lambda phase, info: collections.append(phase)); "
                 "atexit.register(lambda: print(len(collections), gc.isenabled(), "
                 "gc.get_freeze_count() > 0))")
        out = tmp_path / "fig1"
        argv = ["dirlap", *(arg.format(out=out) for arg in args)]
        done = fresh_python("-c", f"import atexit, gc, sys; sys.argv = {argv!r}; "
                            + code.format(probe=probe))
        assert done.returncode == 0 and done.stderr == ""
        lines = done.stdout.splitlines()
        assert lines[0] == first_line.format(out=out)
        collections, enabled, frozen = lines[-1].split()
        if process_entry:
            assert (collections, enabled, frozen) == ("0", "False", "True")
        else:
            assert (enabled, frozen) == ("True", "False")

    def test_in_process_calls_leave_the_collector_alone(self, runner, tmp_path):
        # a freeze would keep this process's cyclic garbage for good, and importing the
        # module or calling main leaves the collector on
        assert gc.isenabled()
        before = gc.get_freeze_count()
        assert runner.invoke(main, ["--version"]).exit_code == 0
        assert runner.invoke(main, ["gen", "cycle", "--n", "5"]).exit_code == 0
        main(["gen", "cycle", "--n", "5", "--out", str(tmp_path / "g.csv")], standalone_mode=False)
        assert gc.get_freeze_count() == before and gc.isenabled()

    def test_installed_command_is_the_process_entry(self):
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"dirlap": "dirlap.cli:run"}


class TestProcessExit:
    """``cli.run`` ends the process at its last write, keeping what a program can see of its exit.

    Each run drops ``PYTHONUNBUFFERED``, so stdout is block-buffered when it is not a
    terminal and the exit's own flush has something to write, and pins stdout's encoding,
    which CPython's report of a failed flush names.
    """

    BUFFERED = {"PYTHONUNBUFFERED": None, "PYTHONIOENCODING": "utf-8"}

    def _run(self, fresh_python, prelude, argv, **kwargs):
        """``prelude``, then ``run()`` on ``argv`` in a fresh interpreter."""
        code = f"import sys\nfrom dirlap.cli import main, run\n{prelude}\nsys.argv = {argv!r}\nrun()"
        return fresh_python("-c", code, env=self.BUFFERED, **kwargs)

    def test_atexit_handler_prints_to_stdout(self, fresh_python):
        done = self._run(fresh_python, "import atexit; atexit.register(print, 'atexit ran')",
                         ["dirlap", "--version"])
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == f"dirlap, version {dirlap.__version__}\natexit ran\n"

    @pytest.mark.parametrize("n", ["5", "10000"])
    def test_stdout_pipe_gets_every_byte(self, fresh_python, tmp_path, n):
        # 5 rows stay in stdout's buffer until the exit's flush; 10,000 outgrow the 64 KiB
        # pipe buffer, so the command writes while the reader drains
        out = tmp_path / "g.csv"
        assert fresh_python("-m", "dirlap.cli", "gen", "cycle", "--n", n, "--out", str(out),
                            env=self.BUFFERED).returncode == 0
        done = fresh_python("-m", "dirlap.cli", "gen", "cycle", "--n", n,
                            env=self.BUFFERED, text=False)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == out.read_bytes()
        assert len(done.stdout) > 2**16 or n == "5"

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_full_stdout_exits_120_as_python_does(self, fresh_python):
        # the rows fit stdout's buffer, so only the exit's flush meets the full device
        with open("/dev/full", "w") as full:
            done = fresh_python("-m", "dirlap.cli", "gen", "cycle", "--n", "5",
                                env=self.BUFFERED, capture_output=False, stdout=full,
                                stderr=subprocess.PIPE)
        assert done.returncode == 120
        assert done.stderr == ("Exception ignored in: <_io.TextIOWrapper name='<stdout>' "
                               "mode='w' encoding='utf-8'>\n"
                               "OSError: [Errno 28] No space left on device\n")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("option", ["--version", "--help"])
    @pytest.mark.parametrize(
        "unbuffered, status, after",
        [(None, 120, "Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' "
                     "encoding='utf-8'>\nOSError: [Errno 28] No space left on device\n"),
         ("1", 2, "")],
        ids=["buffered", "unbuffered"],
    )
    def test_option_to_full_stdout_is_one_error_line(self, fresh_python, option, unbuffered,
                                                     status, after):
        # click writes both while it parses the arguments, outside the commands' handler;
        # buffered, the text stays in stdout's buffer, so the exit's flush fails as well
        with open("/dev/full", "w") as full:
            done = fresh_python("-m", "dirlap.cli", option,
                                env={**self.BUFFERED, "PYTHONUNBUFFERED": unbuffered},
                                capture_output=False, stdout=full, stderr=subprocess.PIPE)
        assert done.returncode == status
        assert done.stderr == "error: [Errno 28] No space left on device\n" + after

    @pytest.mark.parametrize("code, status, stderr", [("'text'", 1, "text\n"), ("2**40 + 3", 3, "")],
                             ids=["message", "beyond-c-int"])
    def test_exit_code_is_read_as_python_reads_it(self, fresh_python, code, status, stderr):
        # a message is printed with status 1; an int beyond C's int is cast, as CPython's exit does
        done = self._run(fresh_python, f"main.command('quit')(lambda: sys.exit({code}))",
                         ["dirlap", "quit"])
        assert (done.returncode, done.stdout, done.stderr) == (status, "", stderr)

    def test_uncaught_exception_prints_its_traceback(self, fresh_python):
        done = self._run(fresh_python, "def boom():\n    raise RuntimeError('boom')\n"
                         "main.command('boom')(boom)", ["dirlap", "boom"])
        assert done.returncode == 1
        assert done.stderr.startswith("Traceback (most recent call last):\n")
        assert done.stderr.endswith("RuntimeError: boom\n")

    def test_live_thread_is_joined(self, fresh_python):
        # the thread outlives the command, so the process must wait for it to print
        prelude = ("import threading, time\n"
                   "def late():\n    time.sleep(0.3)\n    print('joined')\n"
                   "main.command('spawn')(lambda: threading.Thread(target=late).start())")
        done = self._run(fresh_python, prelude, ["dirlap", "spawn"])
        assert (done.returncode, done.stdout, done.stderr) == (0, "joined\n", "")

    @pytest.mark.parametrize(
        "flags, stdin, shown",
        [(["-m", "cProfile"], None, "function calls"), (["-i"], "print('prompt ' + 'open')", "prompt open")],
        ids=["profiler", "interactive"],
    )
    def test_what_runs_after_the_program_still_runs(self, fresh_python, flags, stdin, shown):
        # a profiler reports and python -i opens its prompt once the program has exited
        done = fresh_python(*flags, "-m", "dirlap.cli", "--version", input=stdin, env=self.BUFFERED)
        assert done.returncode == 0
        assert shown in done.stdout

    @pytest.mark.parametrize("entry, finalized", [("main", True), ("run", False)])
    def test_object_alive_at_exit_is_not_finalized(self, fresh_python, entry, finalized):
        # what the exit skips: finalization wipes each module still alive, which drops the
        # objects it holds and runs their __del__; a freeze alone does not skip that
        code = ("import os, sys, types\nfrom dirlap.cli import main, run\n"
                "class Noisy:\n    def __del__(self, write=os.write):\n"
                "        write(1, b'finalized\\n')\n"
                "sys.modules['holder'] = holder = types.ModuleType('holder')\n"
                f"holder.keep = Noisy()\nsys.argv = ['dirlap', '--version']\n{entry}()")
        done = fresh_python("-c", code, env=self.BUFFERED)
        assert (done.returncode, done.stderr) == (0, "")
        assert ("finalized" in done.stdout) == finalized


def test_cli_import_loads_no_scipy(fresh_python):
    # scipy is a test-only dependency: the library and its CLI run on numpy alone
    code = "import sys, dirlap.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    done = fresh_python("-c", code, check=True)
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_no_numpy_random(fresh_python):
    # numpy.random is imported by the first sweep, not at start-up; statistics not at all
    code = "import dirlap.cli, sys; print([m in sys.modules for m in ('numpy.random', 'statistics')])"
    done = fresh_python("-c", code, check=True)
    assert done.stdout.strip() == "[False, False]"


#: the dirlap modules that every command loads
_SHARED_MODULES = ("cli", "errors", "fileio", "graphs")
_EXPERIMENT_MODULES = ("eigen", "experiments", "sampling", "transform")


@pytest.mark.parametrize(
    "args, modules, json_loaded, csv_loaded",
    [
        (["--version"], (), False, False),
        (["gen", "perturbed-cycle", "--n", "20", "--out", "{out}/g.csv"], (), False, False),
        (["analyze", "{graph}", "--spectrum-out", "{out}/spectrum.csv", "--out", "{out}/m.json"],
         ("eigen",), True, True),
        (["gft", "{graph}", "{signal}", "--out", "{out}/xhat.csv"],
         ("eigen", "transform"), False, True),
        (["filter", "{graph}", "{signal}", "--spec", "{spec}", "--out", "{out}/y.csv"],
         ("eigen", "transform"), True, True),
        (["sample", "{graph}", "--k", "5", "--m", "8", "--out", "{out}/plan.json"],
         ("eigen", "sampling", "transform"), True, True),
        (["experiment", "fig1", "--out-dir", "{out}/fig1"], _EXPERIMENT_MODULES, True, False),
        (["experiment", "fig2", "--trials", "3", "--out-dir", "{out}/fig2"],
         _EXPERIMENT_MODULES, True, False),
    ],
    ids=["version", "gen", "analyze", "gft", "filter", "sample", "fig1", "fig2"],
)
def test_command_loads_only_the_modules_it_runs(perturbed_csv, tmp_path, fresh_python, args,
                                                modules, json_loaded, csv_loaded):
    # compiling a module costs milliseconds of every process that loads it, so each command
    # imports only the dirlap modules it runs, and json and csv only where it reads or writes them
    signal = tmp_path / "x.csv"
    fileio.write_signal(np.ones(20), signal)
    spec = tmp_path / "lp.json"
    spec.write_text(json.dumps({"kind": "ideal", "omega": [0, 1]}))
    argv = [a.format(graph=perturbed_csv, signal=signal, spec=spec, out=tmp_path) for a in args]
    code = ("import sys; from dirlap.cli import main; main(sys.argv[1:], standalone_mode=False); "
            "print((sorted(m for m in sys.modules if m.startswith('dirlap.')), "
            "'json' in sys.modules, 'csv' in sys.modules))")
    done = fresh_python("-c", code, *argv, check=True)
    loaded = sorted(f"dirlap.{m}" for m in _SHARED_MODULES + modules)
    assert done.stdout.strip().splitlines()[-1] == repr((loaded, json_loaded, csv_loaded))


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "perturbed-cycle", "--n", "20", "--out", "{out}/g.csv"],
        ["sample", "{graph}", "--k", "5", "--m", "8", "--out", "{out}/plan.json"],
        ["experiment", "fig2", "--trials", "3", "--out-dir", "{out}/fig2"],
    ],
    ids=["gen", "sample", "fig2"],
)
def test_command_loads_no_numpy_ma(perturbed_csv, tmp_path, fresh_python, args):
    # numpy's np.unique imports numpy.ma, about 10 ms of every process that calls it
    argv = [a.format(graph=perturbed_csv, out=tmp_path) for a in args]
    code = ("import sys; from dirlap.cli import main; main(sys.argv[1:], standalone_mode=False); "
            "print('numpy.ma' in sys.modules)")
    done = fresh_python("-c", code, *argv, check=True)
    assert done.stdout.strip().splitlines()[-1] == "False"


#: the edges of each field's range, NaN and the infinities (json.dumps writes them as
#: json.load's NaN and Infinity literals), and ints far past int64 and float64
EDGE_VALUES = st.sampled_from((-1, 0, 1, 2, MAX_VERTICES, MAX_VERTICES + 1, 2**32 - 1, 2**32,
                               -0.0, 0.5, 1.5, 1.8e308, float("nan"), float("inf"),
                               float("-inf"))) | st.sampled_from((2**64, 10**309, -(10**309),
                                                                   10**4000))
#: JSON scalars of every type
JSON_SCALARS = st.one_of(EDGE_VALUES, st.none(), st.booleans(),
                         st.text(max_size=4), st.integers(), st.floats())
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6,
)
#: in-range values of the config keys, so that a wild value is the one at fault
VALID_CONFIG_VALUES = {
    "n": st.integers(2, 40), "p": st.floats(0.0, 1.0), "w": st.floats(1e-3, 1e3),
    "k": st.integers(1, 2),
    "sigmas": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3).map(sorted),
    "trials": st.integers(1, 10), "seed": st.integers(0, 2**70), "real_noise": st.booleans(),
}


@st.composite
def config_objects(draw):
    """A config object: some keys in range, then a few keys, known or not, of any JSON value."""
    valid = draw(st.fixed_dictionaries({}, optional=VALID_CONFIG_VALUES))
    keys = st.sampled_from(sorted(VALID_CONFIG_VALUES)) | st.text(max_size=4)
    values = EDGE_VALUES | st.lists(EDGE_VALUES, max_size=3) | JSON_VALUES
    wild = draw(st.dictionaries(keys, values, max_size=2))
    return {**valid, **wild}


def _assert_in_range(cfg):
    def integer(x):
        return isinstance(x, int) and not isinstance(x, bool)

    assert integer(cfg.n) and 2 <= cfg.n <= MAX_VERTICES
    assert integer(cfg.k) and 1 <= cfg.k <= cfg.n
    assert integer(cfg.trials) and 1 <= cfg.trials < 2**32
    assert integer(cfg.seed) and cfg.seed >= 0
    assert not isinstance(cfg.p, bool) and 0.0 <= cfg.p <= 1.0
    assert not isinstance(cfg.w, bool) and 0.0 < float(cfg.w) < math.inf
    assert cfg.sigmas and all(type(s) is float and 0.0 <= s < math.inf for s in cfg.sigmas)
    assert list(cfg.sigmas) == sorted(cfg.sigmas)
    assert type(cfg.real_noise) is bool
    json.dumps(cfg.to_dict(), allow_nan=False)  # the bundle's config header renders


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "cfg.json"


@settings(max_examples=500, deadline=None)
@given(config_objects())
@example({"n": MAX_VERTICES + 1})
@example({"w": 10**309})
@example({"sigmas": [0.1, 10**309]})
def test_config_file_is_in_range_or_refused(config_file, obj):
    # a config file either gives a config whose every field is in range, or is refused
    # as a bad file (exit 3); never another exception, which would end in a traceback
    config_file.write_text(json.dumps(obj))
    try:
        cfg = _config_from(config_file)
    except FileFormatError:
        return
    _assert_in_range(cfg)


# -- fuzzing sample's options --------------------------------------------------

#: the fuzzed graph's vertex count
FUZZ_N = 8
#: a digit string past Python's int-conversion limit, which ``int()`` refuses
TOO_MANY_DIGITS = "1" + "0" * 5000
#: ints past int64 and past the conversion limit, a blank token, separators, other notations
ODD_TOKENS = st.sampled_from(("", " ", " 3 ", "+3", "1_0", "-0", "3.0", "nan", "0x3",
                              "٣", "3,4", str(2**63), str(2**64), str(-(2**63) - 1),
                              str(10**4000), TOO_MANY_DIGITS))
#: range edges and values near them, any int, or an odd token
INT_TOKENS = (st.sampled_from((-1, 0, 1, 2, FUZZ_N - 1, FUZZ_N, FUZZ_N + 1, MAX_VERTICES,
                               MAX_VERTICES + 1, 2**63 - 1)).map(str)
              | st.integers().map(str) | ODD_TOKENS)


def _vertex_list(tokens):
    return st.lists(tokens, min_size=1, max_size=6).map(",".join)


#: in-range values of sample's options on the fuzzed graph, so that a wild value is the one
#: at fault; a sample set smaller than the band is rank deficient (recovery exits 5)
VALID_SAMPLE_OPTIONS = {
    "--k": st.integers(1, FUZZ_N // 2).map(str),
    "--m": st.integers(FUZZ_N // 2, FUZZ_N).map(str),
    "--n": st.sampled_from((FUZZ_N, FUZZ_N + 1, FUZZ_N + 4)).map(str),
    "--strategy": st.sampled_from(("greedy-gamma", "random")),
    "--seed": st.integers(0, 2**70).map(str),
    "--sample-set": _vertex_list(st.integers(0, FUZZ_N - 1).map(str)),
}
#: wild values; ``--n`` in range stays small, since at MAX_VERTICES the graph would be
#: decomposed at full size
WILD_SAMPLE_OPTIONS = {
    "--k": INT_TOKENS,
    "--m": INT_TOKENS,
    "--n": st.sampled_from((0, -1, FUZZ_N - 1, MAX_VERTICES + 1)).map(str) | ODD_TOKENS,
    "--strategy": st.sampled_from(("greedy", "RANDOM", "greedy-gamma,random")) | ODD_TOKENS,
    "--seed": INT_TOKENS,
    # repeated vertices and negatives included
    "--sample-set": _vertex_list(st.integers(-1, FUZZ_N).map(str) | INT_TOKENS),
}


@st.composite
def sample_argv(draw):
    """sample's options, in range or not, in any order; an option given twice counts its last."""
    required, *optional = sorted(VALID_SAMPLE_OPTIONS, key=lambda name: name != "--k")
    valid = draw(st.fixed_dictionaries(
        {required: VALID_SAMPLE_OPTIONS[required]},
        optional={name: VALID_SAMPLE_OPTIONS[name] for name in optional}))
    wild = st.sampled_from(sorted(WILD_SAMPLE_OPTIONS)).flatmap(
        lambda name: st.tuples(st.just(name), WILD_SAMPLE_OPTIONS[name]))
    pairs = draw(st.permutations([*valid.items(), *draw(st.lists(wild, max_size=2))]))
    return [token for pair in pairs for token in pair]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """The fuzzed graph and the signals its --signal draws from: one that fits, one a vertex
    short (exit 4) and one with a bad header (exit 3)."""
    root = tmp_path_factory.mktemp("sample-fuzz")
    fileio.write_edge_list(dirlap.gen_perturbed_cycle(FUZZ_N, 0.3, 0.8, 1), root / "g.csv")
    rows = "".join(f"{v},{v % 3},0\n" for v in range(FUZZ_N))
    (root / "fits.csv").write_text("vertex,re,im\n" + rows)
    (root / "short.csv").write_text("vertex,re,im\n" + rows.rsplit("\n", 2)[0] + "\n")
    (root / "bad.csv").write_text("v,re,im\n" + rows)
    return root


@settings(max_examples=400, deadline=None)
@given(argv=sample_argv(), signal=st.sampled_from((None, "fits", "short", "bad")))
@example(argv=["--k", "3", "--sample-set", ""], signal=None)
@example(argv=["--k", "3", "--sample-set", "1,,2"], signal=None)
@example(argv=["--k", "3", "--sample-set", f"0,{2**64}"], signal=None)
@example(argv=["--k", "3", "--sample-set", TOO_MANY_DIGITS], signal=None)
@example(argv=["--k", "3", "--m", "4", "--strategy", "random", "--seed", str(10**4000)],
         signal=None)
@example(argv=["--k", str(2**64), "--m", "4"], signal=None)
@example(argv=["--k", "3", "--sample-set", "0,1"], signal="fits")
@example(argv=["--k", "3", "--m", "4", "--n", str(FUZZ_N + 1)], signal="fits")
def test_sample_options_give_a_plan_or_their_exit_code(fuzz_files, argv, signal):
    # each case prints a strict-JSON plan and exits 0, or exits with its documented code:
    # 2 bad usage, 3 bad file, 4 dimension mismatch, 5 rank-deficient recovery
    extra = [] if signal is None else ["--signal", str(fuzz_files / f"{signal}.csv"),
                                       "--recover-out", str(fuzz_files / "rec.csv")]
    result = CliRunner().invoke(main, ["sample", str(fuzz_files / "g.csv"), *argv, *extra])
    assert "Traceback" not in result.output
    if result.exit_code == 0:
        plan = json.loads(result.stdout, parse_constant=_refuse_constant)
        assert list(plan) == ["omega", "sample_set", "gamma", "b_norm", "certificate"]
        assert all(0 <= v < FUZZ_N + 4 for v in plan["sample_set"])
    else:
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code in (2, 3, 4, 5), result.output


#: a signal of 1e308 + 1e308i at every vertex, whose transforms overflow
HUGE_SIGNAL = "vertex,re,im\n" + "".join(f"{v},1e308,1e308\n" for v in range(FUZZ_N))


def _entries(draw, count: int) -> list[float]:
    """``count`` numbers of one scale: a mantissa in [-1.7, 1.7] times 10**e, e at most three
    below a top power drawn once in [-290, 308], half the time at 306 to 308, where sums
    and products overflow."""
    top = draw(st.sampled_from(range(-290, 309)) | st.sampled_from((306, 307, 308)))
    entry = st.builds(lambda mantissa, exp: mantissa * 10.0**exp,
                      st.floats(-1.7, 1.7), st.integers(top - 3, top))
    return draw(st.lists(entry, min_size=count, max_size=count))


@st.composite
def transform_cases(draw):
    """``(kind, signal, spec)``: a gft direction or a filter kind, a signal CSV that may be a
    vertex short or long or have a bad header, and the filter spec (None for gft)."""
    kind = draw(st.sampled_from(("forward", "inverse", "ideal", "diagonal")))
    length = draw(st.sampled_from((FUZZ_N, FUZZ_N, FUZZ_N, FUZZ_N - 1, FUZZ_N + 1)))
    header = draw(st.sampled_from(("vertex,re,im",) * 4 + ("vertex,re", "v,re,im", "")))
    values = iter(_entries(draw, 2 * length))
    signal = header + "\n" + "".join(f"{v},{next(values)!r},{next(values)!r}\n"
                                      for v in range(length))
    spec = None
    if kind == "ideal":
        spec = {"kind": "ideal", "omega": draw(st.lists(st.integers(0, FUZZ_N - 1), unique=True))}
    elif kind == "diagonal":
        taps = draw(st.sampled_from((FUZZ_N, FUZZ_N, FUZZ_N, FUZZ_N - 1, FUZZ_N + 1)))
        values = iter(_entries(draw, 2 * taps))
        spec = {"kind": "diagonal", "response": [[next(values), next(values)] for _ in range(taps)]}
    return kind, signal, spec


@pytest.fixture(scope="module")
def transform_fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("transform-fuzz")
    fileio.write_edge_list(dirlap.gen_perturbed_cycle(FUZZ_N, 0.3, 0.8, 1), root / "g.csv")
    return root


@settings(max_examples=300, deadline=None)
@given(case=transform_cases())
@example(case=("forward", HUGE_SIGNAL, None))
@example(case=("inverse", HUGE_SIGNAL, None))
@example(case=("diagonal", HUGE_SIGNAL, {"kind": "diagonal", "response": [[1e300, 0]] * FUZZ_N}))
@example(case=("ideal", HUGE_SIGNAL, {"kind": "ideal", "omega": [0]}))
def test_gft_and_filter_give_finite_output_or_their_exit_code(transform_fuzz_dir, case):
    # each case writes a finite signal and exits 0, or exits with its documented code and
    # writes nothing: 2 bad usage, 3 bad file, 4 dimension mismatch, 6 near-defective,
    # 7 overflow. The suite turns a numpy warning into an error, so a warning fails the case
    kind, signal, spec = case
    root = transform_fuzz_dir
    (root / "x.csv").write_text(signal)
    out = root / "out.csv"
    out.unlink(missing_ok=True)
    if spec is None:
        argv = ["gft", str(root / "g.csv"), str(root / "x.csv"), "--direction", kind]
    else:
        (root / "spec.json").write_text(json.dumps(spec))
        argv = ["filter", str(root / "g.csv"), str(root / "x.csv"), "--spec", str(root / "spec.json")]
    result = CliRunner().invoke(main, [*argv, "--out", str(out)])
    assert "Traceback" not in result.output
    if result.exit_code == 0:
        rows = csv_body(out, ["vertex", "re", "im"])
        assert [int(row[0]) for row in rows] == list(range(FUZZ_N))
        assert all(math.isfinite(float(cell)) for row in rows for cell in row[1:])
    else:
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code in (2, 3, 4, 6, 7), result.output
        assert not out.exists()


# -- fuzzing the experiment commands' options -------------------------------------

#: range edges, non-finite and overflowing values, other notations and blank tokens
FLOAT_TOKENS = (st.sampled_from(("0", "-0.0", "1", "1.0000001", "-1e-300", "5e-324", "1e-400",
                                 "1e300", "1.7976931348623157e308", "1e400", "-1e400", "nan",
                                 "-NaN", "inf", "Infinity", "1_0", "\u0660.\u0661",
                                 "\u0660.\u0662", "\uff10.5", "0x1p-1", "1e", "", " ",
                                 " .5 ", "+.25", "2.E-1"))
                | st.floats(0.0, 1.0).map(repr))
SIGMA_LISTS = st.lists(FLOAT_TOKENS, min_size=1, max_size=3).map(",".join)
#: the size options at and near their range edges, and odd tokens; --n and --trials in
#: range stay small, so that a case runs in milliseconds
SIZE_TOKENS = (st.sampled_from(("-1", "0", "1", "2", "3", "5", str(MAX_VERTICES + 1),
                                "4294967296", str(2**64), "1_0", "\u0663", "3.0", "", " ",
                                " 3 ", "+2", "nan", "inf", "1e400")))
VALID_EXPERIMENT_OPTIONS = {
    "--n": st.integers(3, 6).map(str), "--k": st.integers(1, 3).map(str),
    "--trials": st.integers(1, 3).map(str), "--p": st.floats(0.0, 1.0).map(repr),
    "--w": st.floats(1e-3, 1e3).map(repr),
    "--sigmas": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3).map(
        lambda sigmas: ",".join(map(repr, sorted(sigmas)))),
}
WILD_EXPERIMENT_OPTIONS = {"--n": SIZE_TOKENS, "--k": SIZE_TOKENS, "--trials": SIZE_TOKENS,
                           "--p": FLOAT_TOKENS, "--w": FLOAT_TOKENS, "--sigmas": SIGMA_LISTS}


def _in_grammar(token: str, kind: type) -> bool:
    """Whether ``token`` is an ASCII number that ``kind`` reads, with no ``_`` separator."""
    if not token.isascii() or "_" in token or any(c in token for c in "\x1c\x1d\x1e\x1f"):
        return False
    try:
        kind(token)
    except ValueError:
        return False
    return True


@st.composite
def experiment_options(draw):
    """fig1 or fig2, and its options: each in range, or one or two wild."""
    command = draw(st.sampled_from(("fig1", "fig2")))
    options = draw(st.fixed_dictionaries(VALID_EXPERIMENT_OPTIONS))
    for name in draw(st.lists(st.sampled_from(sorted(WILD_EXPERIMENT_OPTIONS)), max_size=2)):
        options[name] = draw(WILD_EXPERIMENT_OPTIONS[name])
    if command == "fig1":
        del options["--trials"], options["--sigmas"]
    return command, options


@settings(max_examples=300, deadline=None)
@given(case=experiment_options())
@example(case=("fig2", {"--n": "4", "--k": "2", "--trials": "2", "--p": "0.5", "--w": "1_0",
                        "--sigmas": "0.1"}))
@example(case=("fig2", {"--n": "4", "--k": "2", "--trials": "2", "--p": "0.5", "--w": "0.8",
                        "--sigmas": "\u0660.\u0661"}))
@example(case=("fig1", {"--n": "4", "--k": "2", "--p": "\u0660.\u0662", "--w": "0.8"}))
@example(case=("fig2", {"--n": "4", "--k": "2", "--trials": "2", "--p": "0.5", "--w": "0.8",
                        "--sigmas": "0.1,1_0"}))
@example(case=("fig1", {"--n": "5", "--k": "2", "--p": "1", "--w": "1.7e308"}))
@example(case=("fig1", {"--n": "3", "--k": "1", "--p": "0.5", "--w": "1e300"}))
def test_experiment_options_give_a_bundle_or_their_exit_code(tmp_path_factory, case):
    # each case writes a strict-JSON bundle and exits 0, or exits with its documented code
    # and writes nothing: 2 bad usage, 6 near-defective (a --w like 1e300 next to the unit
    # cycle), 7 overflow. An option outside the CSV readers' number grammar is bad usage,
    # whatever int() or float() would read
    command, options = case
    out = tmp_path_factory.mktemp("experiment") / "out"
    argv = [token for pair in options.items() for token in pair]
    result = CliRunner().invoke(main, ["experiment", command, *argv, "--out-dir", str(out)])
    assert "Traceback" not in result.output
    kinds = {"--p": float, "--w": float, "--sigmas": float}
    outside = [name for name, value in options.items()
               if not all(_in_grammar(token, kinds.get(name, int)) for token in value.split(","))]
    if result.exit_code == 0:
        assert not outside, outside
        name = "metrics.json" if command == "fig1" else "bundle.json"
        bundle = json.loads((out / name).read_text(), parse_constant=_refuse_constant)
        assert bundle["config"]["n"] == int(options["--n"])
    else:
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code in (2, 6, 7), result.output
        assert result.exit_code == 2 or not outside
        assert not out.exists()
