import contextlib
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dirlap import (
    FileFormatError,
    GraphSignal,
    SpectralFilter,
    gen_perturbed_cycle,
    make_band,
    plan_sampling,
    vertex_signal,
)
from dirlap import fileio
from dirlap.experiments import GraphReport, SweepCell


def read_spectrum(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["k", "re_lambda", "im_lambda", "abs_lambda"]
    return np.array([complex(float(re), float(im)) for _, re, im, _ in rows])


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        g = gen_perturbed_cycle(12, 0.3, 0.8, seed=5)
        path = tmp_path / "g.csv"
        fileio.write_edge_list(g, path)
        back = fileio.read_edge_list(path)
        assert back.n == g.n
        assert np.array_equal(back.src, g.src)
        assert np.array_equal(back.dst, g.dst)
        assert np.array_equal(back.weight, g.weight)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,1,1.0\n")
        with pytest.raises(FileFormatError):
            fileio.read_edge_list(path)

    def test_bad_weight_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("src,dst,weight\n0,1,heavy\n")
        with pytest.raises(FileFormatError, match=":2"):
            fileio.read_edge_list(path)

    def test_explicit_vertex_count(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("src,dst,weight\n0,1,1\n")
        assert fileio.read_edge_list(path, n=5).n == 5

    def test_explicit_vertex_count_on_empty_edge_list(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("src,dst,weight\n")
        g = fileio.read_edge_list(path, n=3)
        assert (g.n, g.edge_count) == (3, 0)

    @pytest.mark.parametrize("n, message", [
        (1, "n=1 is below the largest vertex index plus one"),
        (0, "n must lie in"),
        (10_001, "n must lie in"),
    ])
    def test_bad_explicit_vertex_count_is_value_error(self, tmp_path, n, message):
        # the argument is at fault, not the file
        path = tmp_path / "g.csv"
        path.write_text("src,dst,weight\n0,1,1\n")
        with pytest.raises(ValueError, match=message) as info:
            fileio.read_edge_list(path, n=n)
        assert not isinstance(info.value, FileFormatError)

    def test_index_beyond_int64_becomes_format_error(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text(f"src,dst,weight\n0,{2**63},1\n")
        with pytest.raises(FileFormatError, match="out of range"):
            fileio.read_edge_list(path)

    def test_vertex_count_beyond_max_becomes_format_error(self, tmp_path):
        # one row would otherwise make every later stage allocate a 60001 x 60001 matrix
        path = tmp_path / "sparse.csv"
        path.write_text("src,dst,weight\n0,60000,1\n")
        with pytest.raises(FileFormatError, match="vertex count 60001 exceeds MAX_VERTICES"):
            fileio.read_edge_list(path)

    def test_duplicate_edge_becomes_format_error(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("src,dst,weight\n0,1,1\n0,1,2\n")
        with pytest.raises(FileFormatError, match="duplicate"):
            fileio.read_edge_list(path)

    # the tokens the reader accepts today, read by int() and float() cell by cell
    @pytest.mark.parametrize("row, edge", [
        ("1_0,0,1", (10, 0, 1.0)),
        ("+3,0,1", (3, 0, 1.0)),
        (" 7 ,0,1", (7, 0, 1.0)),
        ("0, 1 , 2 ", (0, 1, 2.0)),
        ("\uff11,0,1", (1, 0, 1.0)),
        ("0,1,1e3", (0, 1, 1000.0)),
        ("0,1,1_0", (0, 1, 10.0)),
        ("0,1,+1.5", (0, 1, 1.5)),
        ("0,1,.5", (0, 1, 0.5)),
    ])
    def test_accepted_tokens_pinned(self, tmp_path, row, edge):
        path = tmp_path / "g.csv"
        path.write_text(f"src,dst,weight\n{row}\n", encoding="utf-8")
        g = fileio.read_edge_list(path, n=20)
        assert (g.src.tolist(), g.dst.tolist(), g.weight.tolist()) == tuple([x] for x in edge)

    @pytest.mark.parametrize("row, message", [
        ("7.0,0,1", ":2: invalid literal for int"),
        ("0x10,0,1", ":2: invalid literal for int"),
        ("0,1,0x1p1", ":2: could not convert string to float"),
        ("0,1,nan", "needs a finite positive weight, got nan"),
        ("0,1,inf", "needs a finite positive weight, got inf"),
        ("0,1,-inf", "needs a finite positive weight, got -inf"),
        ("0,1,1e400", "needs a finite positive weight, got inf"),
        (f"{2**63},0,1", "vertex index out of range"),
        (f"{2**63 - 1},0,1", "exceeds MAX_VERTICES"),
    ])
    def test_rejected_tokens_pinned(self, tmp_path, row, message):
        path = tmp_path / "g.csv"
        path.write_text(f"src,dst,weight\n{row}\n")
        with pytest.raises(FileFormatError, match=message):
            fileio.read_edge_list(path)


class TestSignals:
    def test_round_trip(self, tmp_path, rng):
        sig = vertex_signal(rng.standard_normal(9) + 1j * rng.standard_normal(9))
        path = tmp_path / "x.csv"
        fileio.write_signal(sig, path)
        back = fileio.read_signal(path)
        assert np.allclose(back.values, sig.values, atol=1e-11)
        assert back.domain == "vertex"

    def test_spectral_domain_flag(self, tmp_path):
        path = tmp_path / "xhat.csv"
        fileio.write_signal(GraphSignal(np.array([1.0, 2.0]), "spectral"), path)
        assert fileio.read_signal(path, domain="spectral").domain == "spectral"

    def test_gap_in_indices_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("vertex,re,im\n0,1,0\n2,1,0\n")
        with pytest.raises(FileFormatError, match="cover"):
            fileio.read_signal(path)

    def test_repeated_index_rejected(self, tmp_path):
        # each index appears exactly once; a repeat must not overwrite the earlier row
        path = tmp_path / "x.csv"
        path.write_text("vertex,re,im\n0,1,0\n1,2,0\n1,5,0\n")
        with pytest.raises(FileFormatError, match=r":4: index 1 appears more than once"):
            fileio.read_signal(path)


class TestSpectrumCsv:
    def test_round_trip(self, tmp_path, cycle4):
        _, dec = cycle4
        path = tmp_path / "spec.csv"
        fileio.write_spectrum(dec.lambdas, path)
        assert np.allclose(read_spectrum(path), dec.lambdas, atol=1e-11)

    def test_twelve_significant_digits(self, tmp_path):
        path = tmp_path / "spec.csv"
        fileio.write_spectrum(np.array([1 / 3 + 1j * np.pi]), path)
        text = path.read_text()
        assert "0.333333333333" in text
        assert "3.14159265359" in text


class TestFilterSpec:
    def test_ideal_round_trip(self, tmp_path):
        filt = SpectralFilter.ideal([0, 2, 3], 6)
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"kind": "ideal", "omega": [0, 2, 3]}))
        back = fileio.read_filter_spec(path, 6)
        assert np.array_equal(back.response, filt.response)

    def test_diagonal_round_trip(self, tmp_path, rng):
        filt = SpectralFilter(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        path = tmp_path / "f.json"
        response = [[z.real, z.imag] for z in filt.response]
        path.write_text(json.dumps({"kind": "diagonal", "response": response}))
        back = fileio.read_filter_spec(path, 5)
        assert np.array_equal(back.response, filt.response)

    def test_non_object_spec(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps([0, 1]))
        with pytest.raises(FileFormatError, match="JSON object"):
            fileio.read_filter_spec(path, 3)

    def test_wrong_tap_count(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"kind": "diagonal", "response": [[1, 0]]}))
        with pytest.raises(FileFormatError):
            fileio.read_filter_spec(path, 3)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"kind": "butterworth"}))
        with pytest.raises(FileFormatError):
            fileio.read_filter_spec(path, 3)


class TestPlanJson:
    def test_round_trip_fields(self, tmp_path, perturbed20):
        _, dec = perturbed20
        band = make_band(dec, 4)
        plan = plan_sampling(band, range(0, 20, 2))
        path = tmp_path / "plan.json"
        fileio.write_plan(plan, band, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"omega", "sample_set", "gamma", "b_norm", "certificate"}
        assert payload["omega"] == [0, 1, 2, 3]
        assert payload["sample_set"] == list(range(0, 20, 2))
        assert payload["gamma"] == pytest.approx(plan.gamma, rel=1e-11)
        assert payload["certificate"] == pytest.approx(
            band.synthesis_norm / plan.gamma, rel=1e-11
        )

    def test_rank_deficient_plan_has_null_certificate(self, tmp_path, perturbed20):
        _, dec = perturbed20
        band = make_band(dec, 5)
        plan = plan_sampling(band, [0, 1])
        path = tmp_path / "plan.json"
        fileio.write_plan(plan, band, path)
        assert json.loads(path.read_text())["certificate"] is None


class TestWriteText:
    def test_streams_an_iterable_to_a_file_and_to_stdout(self, tmp_path, capsys):
        lines = ["a,b\n", "1,2\n"]
        fileio.write_text(iter(lines), tmp_path / "t.csv")
        fileio.write_text(iter(lines))
        assert (tmp_path / "t.csv").read_bytes() == b"a,b\n1,2\n"
        assert capsys.readouterr().out == "a,b\n1,2\n"


class TestMetricsCsv:
    @pytest.mark.parametrize(
        "spectrum, quoted",
        [("s.csv", "s.csv"), ("a,b.csv", '"a,b.csv"'), ('say "hi".csv', '"say ""hi"".csv"'),
         ("line\nbreak", '"line\nbreak"'), ("cr\r", '"cr\r"')],
    )
    def test_spectrum_path_quoted_only_when_needed(self, tmp_path, spectrum, quoted):
        report = GraphReport(0.5, 0.25, 0.125, 2.0, np.zeros(3, complex))
        fileio.write_metrics(report, spectrum, "csv", tmp_path / "m.csv")
        text = (tmp_path / "m.csv").read_bytes().decode()
        assert text.endswith(f"\nspectrum_csv,{quoted}\n")
        with open(tmp_path / "m.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 2 for row in rows)
        assert rows[-1] == ["spectrum_csv", spectrum]


class TestTrialsCsv:
    def test_round_trip(self, tmp_path):
        cells = [SweepCell("cycle", 0.01, np.array([0.0123456789012]), np.array([0.0001]),
                           np.array([0.02])),
                 SweepCell("perturbed", 0.5, np.arange(4.0) / 8 + 0.875, np.arange(4.0),
                           np.arange(4.0) + 6.5)]
        path = tmp_path / "trials.csv"
        fileio.write_trials_csv(cells, path)
        with open(path, newline="") as fh:
            back = list(csv.reader(fh))
        assert back[0] == ["sigma", "trial", "graph", "err_l2", "bound"]
        assert len(back) == 1 + 1 + 4
        assert back[1][:3] == ["0.01", "0", "cycle"]
        assert back[2] == ["0.5", "0", "perturbed", "0.875", "6.5"]
        assert back[5] == ["0.5", "3", "perturbed", "1.25", "9.5"]
        assert float(back[1][3]) == pytest.approx(0.0123456789012, rel=1e-11)


def render_csv(header, codes, columns) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        fileio._write_csv(header, codes, columns)
    return buf.getvalue()


class TestCsvRenderer:
    @given(st.lists(st.tuples(st.floats(), st.integers(-2**63, 2**63 - 1), st.integers(), st.text())))
    @example([(-0.0, 2**53 + 1, 2**64, "100%"), (float("nan"), -2**63, -2**70, "%s%d"),
              (float("inf"), 2**63 - 1, 0, "%"), (-float("inf"), 0, 2**53 + 1, "a,b"),
              (5e-324, 1, 1, ""), (2.2e-308, 2, 2, "x"), (1e16, 3, 3, "y"), (float(2**60), 4, 4, "")])
    def test_cells_render_as_fmt_and_str(self, rows):
        # floats and int64 pass as arrays, as the writers pass them; Python ints and text as lists
        columns = [np.array([r[0] for r in rows], dtype=np.float64),
                   np.array([r[1] for r in rows], dtype=np.int64),
                   [r[2] for r in rows], [r[3] for r in rows]]
        text = render_csv(("x", "i", "j", "s"), ("%.12g", "%d", "%d", "%s"), columns)
        assert text == "x,i,j,s\n" + "".join(
            f"{fileio.fmt(x)},{i},{j},{s}\n" for x, i, j, s in rows
        )

    def test_rows_across_chunks(self):
        rows = 2 * fileio._CHUNK_ROWS + 1
        values = np.arange(rows) / 7.0
        text = render_csv(("i", "x"), ("%d", "%.12g"), (np.arange(rows), values))
        assert text == "i,x\n" + "".join(f"{i},{fileio.fmt(x)}\n" for i, x in enumerate(values))
