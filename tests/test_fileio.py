import csv
import json

import numpy as np
import pytest

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
from dirlap.experiments import TrialRow


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


class TestTrialsCsv:
    def test_round_trip(self, tmp_path):
        rows = [TrialRow(0.01, 0, "cycle", 0.0123456789012, 0.0001, 0.02),
                TrialRow(0.5, 3, "perturbed", 1.25, 2.5, 9.5)]
        path = tmp_path / "trials.csv"
        fileio.write_trials_csv(rows, path)
        with open(path, newline="") as fh:
            back = list(csv.reader(fh))
        assert back[0] == ["sigma", "trial", "graph", "err_l2", "bound"]
        assert back[1][2] == "cycle"
        assert back[2] == ["0.5", "3", "perturbed", "1.25", "9.5"]
        assert float(back[1][3]) == pytest.approx(0.0123456789012, rel=1e-11)
