import contextlib
import csv
import dataclasses
import io
import itertools
import json
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirlap import (
    BandModel,
    DirectedGraph,
    ExperimentConfig,
    FileFormatError,
    NonFiniteError,
    RankDeficientError,
    decompose,
    directed_laplacian,
    gen_perturbed_cycle,
    plan_sampling,
    recover,
    reference_pair,
    run_noise_sweep,
)
from dirlap import fileio
from dirlap.cli import main
from dirlap.errors import DimensionMismatchError
from dirlap.experiments import SweepCell
from dirlap.graphs import MAX_VERTICES
from dirlap.sampling import RANK_RTOL


def read_spectrum(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["k", "re_lambda", "im_lambda", "abs_lambda"]
    return np.array([complex(float(re), float(im)) for _, re, im, _ in rows])


def test_import_loads_no_eigen_transform_json_or_csv(fresh_python):
    # gen writes an edge list through fileio alone; each reader or writer imports what it runs
    code = ("import sys, dirlap.fileio; print([m in sys.modules for m in "
            "('dirlap.eigen', 'dirlap.transform', 'json', 'csv')])")
    assert fresh_python("-c", code, check=True).stdout.strip() == "[False, False, False, False]"


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

    @settings(max_examples=100, deadline=None)
    @given(
        arcs=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(
            lambda arc: arc[0] != arc[1]), min_size=0, max_size=25, unique=True),
        weights=st.one_of(
            # a small set of weights, as the generators make: every table entry is reused
            st.lists(st.sampled_from([1.0, 0.8, 1 / 3, 2.5e-300, 1e300]), min_size=25,
                     max_size=25),
            st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                     min_size=25, max_size=25),
        ),
        chunk=st.sampled_from([1, 2, 7, fileio._CHUNK_ROWS]),
    )
    def test_bytes_match_one_format_per_edge(self, arcs, weights, chunk):
        src, dst = [a for a, _ in arcs], [b for _, b in arcs]
        g = DirectedGraph(31, src, dst, weights[: len(arcs)])
        buf = io.StringIO()
        with mock.patch.object(fileio, "_CHUNK_ROWS", chunk), contextlib.redirect_stdout(buf):
            fileio.write_edge_list(g)
        assert buf.getvalue() == "src,dst,weight\n" + "".join(
            "%d,%d,%.12g\n" % edge for edge in zip(src, dst, weights))

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
        message = r": vertex count must lie in \[1, 10000\], got 60001$"
        with pytest.raises(FileFormatError, match=message):
            fileio.read_edge_list(path)

    def test_duplicate_edge_becomes_format_error(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("src,dst,weight\n0,1,1\n0,1,2\n")
        with pytest.raises(FileFormatError, match="duplicate"):
            fileio.read_edge_list(path)

    # ASCII decimal integers with a sign, leading zeros and surrounding spaces; floats as
    # numpy parses them; quoted cells
    @pytest.mark.parametrize("row, edge", [
        ('"1","2"," 3 "', (1, 2, 3.0)),
        ("+3,0,1", (3, 0, 1.0)),
        (" 7 ,0,1", (7, 0, 1.0)),
        ("0, 1 , 2 ", (0, 1, 2.0)),
        ("007,0,1", (7, 0, 1.0)),
        ("0,1,1e3", (0, 1, 1000.0)),
        ("0,1,2.E-1", (0, 1, 0.2)),
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
        (f"{2**63 - 1},0,1", r": vertex count must lie in \[1, 10000\], got 9223372036854775808$"),
        # accepted by int() and float(), not by numpy's parser
        ("1_0,0,1", ":2: invalid literal for int: '1_0' \\(column 1\\)"),
        ("0,1,1_0", ":2: could not convert string to float: '1_0' \\(column 3\\)"),
        ("\uff11,0,1", ":2: character '\uff11' in a number"),
        # numpy's parser alone would read these as 7 and as 462
        ("\x1c7\x1c,0,1", ":2: character '\\\\x1c' in a number"),
        ("\u01fe,0,1", ":2: character '\u01fe' in a number"),
        ("# 0,1,1", ":2: invalid literal for int: '# 0'"),
        ("#", ":2: expected 3 columns, got 1"),
    ])
    def test_rejected_tokens_pinned(self, tmp_path, row, message):
        path = tmp_path / "g.csv"
        path.write_text(f"src,dst,weight\n{row}\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=message):
            fileio.read_edge_list(path)
        result = CliRunner().invoke(main, ["analyze", str(path)])
        assert result.exit_code == FileFormatError.exit_code

    @pytest.mark.parametrize("row, message", [
        ("0,1,heavy", ":4: could not convert string to float: 'heavy' \\(column 3\\)"),
        ("0,1", ":4: expected 3 columns, got 2"),
        ("0,1,1,1", ":4: expected 3 columns, got 4"),
        ("   ", ":4: expected 3 columns, got 1"),
        ("0,\u01fe,1", ":4: character"),
    ])
    def test_line_counts_the_header_and_blank_lines(self, tmp_path, row, message):
        path = tmp_path / "g.csv"
        path.write_text(f"\nsrc,dst,weight\n\n{row}\n1,2,1\n")
        with pytest.raises(FileFormatError, match=message):
            fileio.read_edge_list(path)
        path.write_text(f"src,dst,weight\r\n1,2,1\r\n{row}\r\n\r\n")
        with pytest.raises(FileFormatError, match=":3:"):
            fileio.read_edge_list(path)

    def test_line_counts_a_line_break_inside_quotes(self, tmp_path):
        # numpy counts rows; the row after a quoted line break begins one line further down
        path = tmp_path / "g.csv"
        path.write_text('src,dst,weight\n0,1,"2\n"\n1,2,x\n')
        with pytest.raises(FileFormatError, match=":4: could not convert string to float: 'x'"):
            fileio.read_edge_list(path)
        path.write_text('src,dst,weight\n"0\n\n",1,"\n2"\n\n1,2\n')
        with pytest.raises(FileFormatError, match=":7: expected 3 columns, got 2"):
            fileio.read_edge_list(path)

    def test_header_only_file_is_an_empty_edge_list(self, tmp_path):
        # numpy warns on a table without rows; pytest makes every warning an error
        path = tmp_path / "empty.csv"
        path.write_text("\nsrc,dst,weight\n\n\n")
        assert fileio.read_edge_list(path, n=2).edge_count == 0
        with pytest.raises(FileFormatError, match="needs an explicit vertex count"):
            fileio.read_edge_list(path)

    def test_header_beyond_the_csv_field_limit_is_a_parse_error(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("src" * 50_000 + ",dst,weight\n0,1,1\n")
        with pytest.raises(FileFormatError, match="expected header"):
            fileio.read_edge_list(path)

    def test_undecodable_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_bytes(b"src,dst,weight\n0,1,\xff\n")
        with pytest.raises(FileFormatError, match="cannot read"):
            fileio.read_edge_list(path)

    @pytest.mark.parametrize("row", ["7.0,0,1", "2.9,0,1", "1e3,0,1", "0,1.5,1"])
    def test_non_integer_index_rejected_under_any_warning_filter(self, tmp_path, row, fresh_python):
        # numpy before 2.0 reads such a cell as a float and only warns; the CLI runs
        # with Python's default filters, which ignore that warning
        path = tmp_path / "g.csv"
        path.write_text(f"src,dst,weight\n{row}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(FileFormatError, match=":2: invalid literal for int"):
                fileio.read_edge_list(path)
        done = fresh_python("-m", "dirlap.cli", "analyze", str(path))
        assert done.returncode == FileFormatError.exit_code
        assert f"{path}:2: invalid literal for int" in done.stderr
        assert "Traceback" not in done.stderr


# -- fuzzing the edge-list boundary ------------------------------------------------

EDGE_HEADER = "src,dst,weight"


def reference_edges(text: str):
    """What ``csv.reader`` and ``int``/``float`` cell by cell read from ``text``.

    Returns the ``(src, dst, weight)`` lists, or None where that reading fails.
    """
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    if not rows or [cell.strip() for cell in rows[0]] != EDGE_HEADER.split(","):
        return None
    try:
        edges = [(int(s), int(d), float(w)) for s, d, w in rows[1:]]
    except ValueError:  # a bad token, or a row of other than three cells
        return None
    return tuple(list(column) for column in zip(*edges)) if edges else ([], [], [])


def assert_edges_equal(g, edges):
    src, dst, weight = edges
    assert g.src.tolist() == src
    assert g.dst.tolist() == dst
    assert g.weight.view(np.uint64).tolist() == np.array(weight).view(np.uint64).tolist()


def _positive_finite(token: str) -> bool:
    try:
        return 0.0 < float(token) < float("inf")
    except ValueError:
        return False


#: how an index cell may be written: sign, surrounding spaces, leading zeros, quotes,
#: a line break inside quotes
INT_FORMS = ("{}", "+{}", " {} ", "\t{}\t", "{:03d}", '"{}"', '" {} "', '"{}\n"')
WEIGHT_FORMS = ("{}", " {} ", "\t{}", '"{}"', '"\n{}"')
DECIMAL_TOKENS = st.builds(
    lambda sign, whole, frac, exp: sign + whole + frac + exp,
    st.sampled_from(["", "+"]),
    st.text("0123456789", max_size=20),
    st.just("") | st.text("0123456789", max_size=20).map(".{}".format),
    st.just("") | st.builds("{}{}{}".format, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
                            st.integers(0, 330)),
).filter(_positive_finite)
WEIGHT_TOKENS = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).flatmap(
        lambda w: st.sampled_from([repr(w), f"{w:.17e}", f"{w:.12g}", f"{w:E}"])
    ),
    DECIMAL_TOKENS,
)


@st.composite
def valid_rows(draw):
    """Rows of distinct, loop-free edges in ASCII decimal, each cell in a drawn form."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)).filter(
        lambda pair: pair[0] != pair[1]), min_size=1, max_size=12, unique=True))
    return [
        ",".join([draw(st.sampled_from(INT_FORMS)).format(s),
                  draw(st.sampled_from(INT_FORMS)).format(d),
                  draw(st.sampled_from(WEIGHT_FORMS)).format(draw(WEIGHT_TOKENS))])
        for s, d in pairs
    ]


def draw_layout(draw, header: str, rows: list[str]) -> tuple[str, list[int]]:
    """The file text: ``header`` and ``rows`` with blank lines drawn around them.

    Also returns the 1-based file line where each row begins; a row whose
    quoted cell holds a line break spans more than one line.
    """
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [""] * draw(st.integers(0, 1)) + [header]
    numbers = []
    for row in rows:
        lines += [""] * draw(st.integers(0, 2))
        numbers.append(eol.join(lines).count("\n") + 2)
        lines.append(row)
    return eol.join(lines) + (eol if draw(st.booleans()) else ""), numbers


@st.composite
def valid_edge_files(draw):
    return draw_layout(draw, EDGE_HEADER, draw(valid_rows()))[0]


BAD_INDEX_TOKENS = ("7.0", "0x10", "1e3", "", " ", "x", "1 2", "--1", "nan", "0b1", "#1")
BAD_WEIGHT_TOKENS = ("x", "", " ", "0x1p1", "1 2", "nan(1)", "1d3", "1e", "e1", "--1", "1j", "#1")
NON_FINITE_WEIGHTS = ("nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400")
WRONG_HEADERS = ("src,dst", "source,target,weight", "src,dst,weight,w", "dst,src,weight",
                 "#src,dst,weight", "src;dst;weight", "0,1,1")
#: faults confined to one row, whose error names that row's file line
ROW_FAULTS = ("short", "long", "token", "quoted", "int64", "whitespace", "comment")
FAULTS = ROW_FAULTS + ("non-finite", "negative", "max", "header", "empty")


@st.composite
def faulty_edge_files(draw):
    """A valid edge list with one fault: ``(text, fault, line)``.

    ``line`` is the 1-based file line of a row fault, None for the others.
    """
    rows = draw(valid_rows())
    header = EDGE_HEADER
    fault = draw(st.sampled_from(FAULTS))
    at = draw(st.integers(0, len(rows) - 1))
    cells = rows[at].split(",")
    col = draw(st.integers(0, 1))
    if fault == "short":
        cells = cells[: draw(st.integers(1, 2))]
    elif fault == "long":
        cells.append(draw(st.sampled_from(["", "1", "0.5", " "])))
    elif fault == "token":
        col = draw(st.integers(0, 2))
        cells[col] = draw(st.sampled_from(BAD_WEIGHT_TOKENS if col == 2 else BAD_INDEX_TOKENS))
    elif fault == "quoted":
        cells[draw(st.integers(0, 2))] = draw(st.sampled_from(['"1,2"', '"x"', '" 1 2 "', '""']))
    elif fault == "int64":
        cells[col] = str(draw(st.integers(2**63, 2**80) | st.integers(-(2**80), -(2**63) - 1)))
    elif fault == "non-finite":
        cells[2] = draw(st.sampled_from(NON_FINITE_WEIGHTS))
    elif fault == "negative":
        cells[col] = str(draw(st.integers(-(2**63), -1)))
    elif fault == "max":
        cells[col] = str(draw(st.integers(MAX_VERTICES, 2**63 - 1)))
    elif fault == "header":
        header = draw(st.sampled_from(WRONG_HEADERS))
    rows[at] = ",".join(cells)
    if fault == "whitespace":
        rows.insert(at, draw(st.text(" \t\x0b\x0c", min_size=1, max_size=4)))
    elif fault == "comment":
        rows.insert(at, "#" + draw(st.text("ab 01,", max_size=8)))
    elif fault == "empty":
        rows = []
    text, numbers = draw_layout(draw, header, rows)
    return text, fault, numbers[at] if fault in ROW_FAULTS else None


#: characters that int() and float() refuse around a number or in it, and that
#: numpy's parser alone would skip as whitespace or read as a digit
ODD_CHARS = ("\x1c", "\x1f", "\xa0", "\u2003", "\uff11", "\u0661", "\u01fe")
#: characters of the cells fed to the reader unchecked: digits, signs, exponents, quotes,
#: ASCII whitespace and the odd characters above
FUZZ_CHARS = "0123456789+-._eE \t\x0b\x0c\"#xnaif" + "".join(ODD_CHARS)
FUZZ_CELLS = st.one_of(
    st.integers(0, 30).map(str),
    st.text(FUZZ_CHARS, max_size=5),
    st.builds("{}{}{}".format, st.sampled_from(("",) + ODD_CHARS), st.integers(0, 30),
              st.sampled_from(("",) + ODD_CHARS)),
    st.sampled_from(["nan", "inf", "1_0", "+3", " 7 ", "1e3", ".5", '"2"', *ODD_CHARS]),
)
FUZZ_LINES = st.one_of(
    st.tuples(FUZZ_CELLS, FUZZ_CELLS, FUZZ_CELLS).map(",".join),
    st.lists(FUZZ_CELLS, min_size=1, max_size=4).map(",".join),
    st.just(""),
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "g.csv"


class TestEdgeListFuzz:
    @settings(max_examples=100, deadline=None)
    @given(valid_edge_files())
    def test_ascii_decimal_files_read_as_int_and_float(self, fuzz_path, text):
        fuzz_path.write_bytes(text.encode())
        assert_edges_equal(fileio.read_edge_list(fuzz_path), reference_edges(text))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(FUZZ_LINES, max_size=4), st.sampled_from(["\n", "\r\n"]))
    def test_accepts_nothing_that_int_and_float_reject(self, fuzz_path, lines, eol):
        text = eol.join([EDGE_HEADER, *lines]) + eol
        fuzz_path.write_bytes(text.encode())
        try:
            g = fileio.read_edge_list(fuzz_path)
        except FileFormatError:
            return
        edges = reference_edges(text)
        assert edges is not None
        assert_edges_equal(g, edges)

    @settings(max_examples=150, deadline=None)
    @given(faulty_edge_files())
    def test_faulty_file_is_a_parse_error(self, fuzz_path, case):
        text, fault, line = case
        fuzz_path.write_bytes(text.encode())
        with pytest.raises(FileFormatError) as info:
            fileio.read_edge_list(fuzz_path)
        assert str(info.value).startswith(f"{fuzz_path}")
        result = CliRunner().invoke(main, ["analyze", str(fuzz_path)])
        assert result.exit_code == FileFormatError.exit_code, result.output
        assert result.output.startswith("error: ")
        if line is not None:
            assert str(info.value).startswith(f"{fuzz_path}:{line}: ")


#: the characters of a number cell and of its near misses: digits, signs, ``.eE_x``, the
#: letters of ``infinity`` and ``nan`` in both cases, spaces and quotes
GRAMMAR_CHARS = "0123456789+-.eE_x" + "infinityaINFINITYA" + " \t" + '"'


def _loadtxt_cell(body: str, kind: type):
    """The one ``kind`` cell ``np.loadtxt``, set as the readers set it, reads from ``body``,
    or None where it refuses it."""
    try:
        return np.loadtxt(io.StringIO(body), dtype=kind, delimiter=",", comments=None,
                          quotechar='"', ndmin=1)[0]
    except ValueError:
        return None


class TestNumberGrammar:
    """The readers' own rules agree with numpy's parser, so the rescan of a refused file
    finds the cell numpy refused."""

    @settings(max_examples=1000, deadline=None)
    @given(st.text(GRAMMAR_CHARS, min_size=1, max_size=10), st.sampled_from([int, float]))
    @example(str(2**63 - 1), int)
    @example(str(2**63), int)
    @example(str(-(2**63)), int)
    @example(str(-(2**63) - 1), int)
    @example("1e400", float)
    @example(' "-InFiNiTy" ', float)
    @example('"\n7\n"', int)
    def test_rescan_accepts_a_cell_iff_numpy_reads_it(self, cell, kind):
        body = cell + "\n"
        [(line, [token])] = list(fileio._rows(body, 2))
        assert line == 2
        expected = _loadtxt_cell(body, kind)
        fault = fileio._first_fault(body, 2, [kind])
        assert (fault is None) == (expected is not None), fault
        if fault is None:
            value = fileio.parse_number(token, kind)
            assert value == expected or (np.isnan(value) and np.isnan(expected))

    @pytest.mark.parametrize("text, message", [
        ("src,dst,weight\n0,1,heavy\n", ":2: could not convert string to float: 'heavy' \\(column 3\\)"),
        ("\nsrc,dst,weight\n\n0,1\n1,2,1\n", ":4: expected 3 columns, got 2"),
        ('src,dst,weight\n0,1,"2\n"\n1,2,x\n', ":4: could not convert string to float: 'x'"),
        ('src,dst,weight\n"0\n\n",1,"\n2"\n\n1,2\n', ":7: expected 3 columns, got 2"),
        ("src,dst,weight\r\n1,2,1\r\n# 0,1,1\r\n", ":3: invalid literal for int: '# 0' \\(column 1\\)"),
        (f"src,dst,weight\n0,{2**63},1\n", ":2: vertex index out of range: '9223372036854775808'"),
    ])
    def test_fault_found_without_numpys_message(self, tmp_path, monkeypatch, text, message):
        # the row and fault come from the readers' own scan, whatever numpy's message says
        path = tmp_path / "g.csv"
        path.write_text(text)

        def reworded(*args, **kwargs):
            raise ValueError("this table could not be read")

        monkeypatch.setattr(np, "loadtxt", reworded)
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}{message}"):
            fileio.read_edge_list(path)

    def test_fault_the_scan_cannot_place_keeps_numpys_message(self, tmp_path, monkeypatch):
        path = tmp_path / "g.csv"
        path.write_text("src,dst,weight\n0,1,1\n")

        def refuse(*args, **kwargs):
            raise ValueError("numpy's own reason")

        monkeypatch.setattr(np, "loadtxt", refuse)
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: numpy's own reason$"):
            fileio.read_edge_list(path)

    @pytest.mark.parametrize("value, kind, expected", [
        (" +7 ", int, 7), ("007", int, 7), (7, int, 7), (" .5 ", float, 0.5), ("2.E-1", float, 0.2),
        ("-Infinity", float, -np.inf), ("1e400", float, np.inf), (0.25, float, 0.25),
    ])
    def test_parse_number_reads_the_grammar(self, value, kind, expected):
        assert fileio.parse_number(value, kind) == expected

    @pytest.mark.parametrize("value, kind", [
        ("1_0", int), ("\u0663", int), ("1.0", int), ("", int), ("0x10", int),
        ("1_0", float), ("\u0660.\u0661", float), ("0x1p1", float), ("", float), (" ", float),
        ("nan(1)", float), ("infinit", float), ("1e", float), ("\x1c1", float),
    ])
    def test_parse_number_refuses_the_rest(self, value, kind):
        with pytest.raises(ValueError, match=re.escape(f": {value!r}") + "$"):
            fileio.parse_number(value, kind)


SIGNAL_HEADER = "vertex,re,im"
FINITE_CELLS = st.floats(allow_nan=False, allow_infinity=False).flatmap(
    lambda x: st.sampled_from([repr(x), f"{x:.12g}", f" {x!r} ", f'"{x}"']))
VALUE_CELLS = st.one_of(
    FINITE_CELLS, st.floats().map(repr), FUZZ_CELLS,
    st.sampled_from(["-0", "-1e400", "1e-400", "-nan", "1e308"]),
)


@st.composite
def signal_files(draw):
    """A signal CSV that may or may not read: indices near a permutation, cells fuzzed."""
    header = draw(st.sampled_from([SIGNAL_HEADER, ' vertex , re ,"im"', "vertex,re", "k,re,im"]))
    if draw(st.integers(0, 3)):
        index = list(draw(st.permutations(range(draw(st.integers(1, 6))))))
        if not draw(st.integers(0, 2)):
            index.insert(draw(st.integers(0, len(index))), draw(st.integers(-1, 7)))
        cells = draw(st.sampled_from([FINITE_CELLS, VALUE_CELLS]))
        rows = [f"{i},{draw(cells)},{draw(cells)}" for i in index]
    else:
        rows = draw(st.lists(FUZZ_LINES, max_size=5))
    return draw_layout(draw, header, rows)[0].encode()


def read_or_refuse(read, *args):
    """What ``read`` returns, or None when it refuses with a parse or dimension error."""
    try:
        return read(*args)
    except (FileFormatError, DimensionMismatchError):
        return None


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(),
                         st.text(max_size=3))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8,
)
TAPS = st.one_of(
    st.tuples(st.floats(allow_nan=False, allow_infinity=False),
              st.integers(-3, 3) | st.floats(allow_nan=False, allow_infinity=False)).map(list),
    st.tuples(JSON_SCALARS, JSON_SCALARS).map(list),
    JSON_VALUES,
)


@st.composite
def filter_spec_files(draw, n: int):
    """A filter spec JSON for ``n`` bins near the grammar: a valid spec, then maybe one fault."""
    kind = draw(st.sampled_from(["ideal", "diagonal"]))
    if kind == "ideal":
        omega = st.lists(st.integers(0, n - 1), max_size=n, unique=True)
        spec = {"kind": kind, "omega": draw(omega)}
    else:
        pairs = TAPS.filter(lambda tap: isinstance(tap, list) and len(tap) == 2)
        spec = {"kind": kind, "response": draw(st.lists(pairs, min_size=n, max_size=n))}
    fault = draw(st.sampled_from(["none", "none", "kind", "drop", "field", "entry", "extra"]))
    field = "omega" if kind == "ideal" else "response"
    if fault == "kind":
        spec["kind"] = draw(st.sampled_from(["ideal", "diagonal"]) | JSON_SCALARS)
    elif fault == "drop":
        del spec[draw(st.sampled_from(sorted(spec)))]
    elif fault == "field":
        spec[field] = draw(JSON_VALUES)
    elif fault == "entry":
        entries = spec[field]
        entries.insert(draw(st.integers(0, len(entries))),
                       draw(st.integers(-2, n + 1) | JSON_SCALARS if kind == "ideal" else TAPS))
    elif fault == "extra":
        spec[draw(st.text(max_size=3))] = draw(JSON_VALUES)
    return json.dumps(spec).encode()


#: files that are not JSON objects: bytes that are not UTF-8, an integer beyond Python's
#: digit limit, arrays nested beyond the recursion limit, and no JSON at all
BROKEN_JSON = (b"\xff\xfe{}", b'{"kind": "ideal", "omega": [' + b"9" * 5000 + b"]}",
               b"[" * 100_000 + b"]" * 100_000, b"", b"[0]", b"null", b'{"kind": NaN}')


class TestReaderFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(signal_files(), st.binary(max_size=40).map(
        lambda body: SIGNAL_HEADER.encode() + b"\n" + body)))
    def test_signal_reads_finite_or_is_refused(self, fuzz_path, data):
        fuzz_path.write_bytes(data)
        signal = read_or_refuse(fileio.read_signal, fuzz_path)
        if signal is not None:
            assert signal.ndim == 1 and signal.size >= 1
            assert np.isfinite(signal).all()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.one_of(
        filter_spec_files(n), filter_spec_files(n), st.binary(max_size=30),
        st.sampled_from(BROKEN_JSON)))))
    def test_filter_spec_reads_finite_or_is_refused(self, fuzz_path, case):
        n, data = case
        fuzz_path.write_bytes(data)
        filt = read_or_refuse(fileio.read_filter_spec, fuzz_path, n)
        if filt is not None:
            assert filt.shape == (n,)
            assert np.isfinite(filt).all()

    @pytest.mark.parametrize("data", BROKEN_JSON[:3], ids=["utf8", "digits", "nesting"])
    def test_unparsable_json_is_a_parse_error(self, tmp_path, data):
        # each raised ValueError or RecursionError: exit 2 or a traceback, not exit 3
        path = tmp_path / "spec.json"
        path.write_bytes(data)
        with pytest.raises(FileFormatError, match="cannot parse filter spec"):
            fileio.read_filter_spec(path, 3)
        result = CliRunner().invoke(main, ["experiment", "fig1", "--config", str(path),
                                           "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == FileFormatError.exit_code
        assert "cannot parse config" in result.output


class TestSignals:
    def test_round_trip(self, tmp_path, rng):
        sig = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        path = tmp_path / "x.csv"
        fileio.write_signal(sig, path)
        back = fileio.read_signal(path)
        assert back.dtype == np.complex128 and back.shape == (9,)
        assert np.allclose(back, sig, atol=1e-11)

    def test_every_form_reads_back_as_one_complex_array(self, tmp_path):
        # write_signal gates a list, an int, a float and a complex array of the same
        # values alike, and read_signal returns the same complex128 bits for each
        ints = [3, -1, 0, 7]
        forms = (ints, np.array(ints), np.array(ints, dtype=float), np.array(ints, dtype=complex))
        for i, values in enumerate(forms):
            fileio.write_signal(values, tmp_path / f"{i}.csv")
        texts = {(tmp_path / f"{i}.csv").read_bytes() for i in range(len(forms))}
        assert texts == {b"vertex,re,im\n0,3,0\n1,-1,0\n2,0,0\n3,7,0\n"}
        back = fileio.read_signal(tmp_path / "0.csv")
        assert type(back) is np.ndarray and back.dtype == np.complex128 and back.shape == (4,)
        assert back.tobytes() == forms[-1].tobytes()

    def test_writer_refuses_what_the_gate_refuses(self, tmp_path):
        for values, message in (([1.0, np.inf], "^signal entries must be finite$"),
                                (np.ones((2, 1)), r"^signal must be one-dimensional")):
            with pytest.raises(ValueError, match=message):
                fileio.write_signal(values, tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()

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

    def test_repeat_reported_at_its_file_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("vertex,re,im\n\n2,1,0\n0,1,0\n\n\n2,5,0\n1,2,0\n0,1,0\n")
        with pytest.raises(FileFormatError, match=r":7: index 2 appears more than once"):
            fileio.read_signal(path)

    def test_repeat_after_a_quoted_line_break(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text('vertex,re,im\n0,1,"0\n\n"\n1,2,0\n0,3,0\n')
        with pytest.raises(FileFormatError, match=r":6: index 0 appears more than once"):
            fileio.read_signal(path)

    def test_rows_in_any_order(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("vertex,re,im\n2,3,-0.5\n0,1,inf\n1, 2 ,\"0\"\n")
        with pytest.raises(FileFormatError, match="finite"):
            fileio.read_signal(path)
        path.write_text("vertex,re,im\n2,3,-0.5\n0,1,-0.0\n1, 2 ,\"0\"\n")
        values = fileio.read_signal(path)
        assert values.tolist() == [complex(1, -0.0), 2, complex(3, -0.5)]
        assert np.signbit(values.imag).tolist() == [True, False, True]

    @pytest.mark.parametrize("body, message", [
        ("", "no signal rows"),
        ("\n\n", "no signal rows"),
        ("0,1\n", ":2: expected 3 columns, got 2"),
        ("0,1,0\n1_0,1,0\n", ":3: invalid literal for int: '1_0'"),
        ("0,1,x\n", ":2: could not convert string to float: 'x' \\(column 3\\)"),
        ("0,\xa01,0\n", r":2: character '\\xa0' in a number"),
        ("1,1,0\n", "indices must cover 0..0 exactly once"),
        ("-1,1,0\n0,1,0\n", "indices must cover 0..1 exactly once"),
    ])
    def test_bad_signal_file(self, tmp_path, body, message):
        path = tmp_path / "x.csv"
        path.write_text("vertex,re,im\n" + body, encoding="utf-8")
        with pytest.raises(FileFormatError, match=message):
            fileio.read_signal(path)

    def test_non_integer_index_rejected_under_any_warning_filter(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("vertex,re,im\n0,0,0\n1.5,1,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(FileFormatError, match=":3: invalid literal for int: '1.5'"):
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
        filt = np.array([1, 0, 1, 1, 0, 0], dtype=np.complex128)
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"kind": "ideal", "omega": [0, 2, 3]}))
        back = fileio.read_filter_spec(path, 6)
        assert back.dtype == np.complex128
        assert np.array_equal(back, filt)

    def test_diagonal_round_trip(self, tmp_path, rng):
        filt = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        path = tmp_path / "f.json"
        response = [[z.real, z.imag] for z in filt]
        path.write_text(json.dumps({"kind": "diagonal", "response": response}))
        back = fileio.read_filter_spec(path, 5)
        assert np.array_equal(back, filt)

    def test_non_object_spec(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps([0, 1]))
        with pytest.raises(FileFormatError, match="JSON object"):
            fileio.read_filter_spec(path, 3)

    def test_wrong_tap_count(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"kind": "diagonal", "response": [[1, 0]]}))
        with pytest.raises(FileFormatError, match=(
                r"^bad diagonal filter spec: filter response must have length 3, got 1$")):
            fileio.read_filter_spec(path, 3)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"kind": "butterworth"}))
        with pytest.raises(FileFormatError):
            fileio.read_filter_spec(path, 3)

    @pytest.mark.parametrize("spec", [
        {"kind": "ideal", "omega": [0], "extra": 1},
        {"kind": "ideal", "omega": [0], "response": [[1, 0]] * 3},
        {"kind": "diagonal", "response": [[1, 0]] * 3, "Kind": "ideal"},
    ])
    def test_unknown_key_is_refused(self, tmp_path, spec):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(FileFormatError, match="unknown keys"):
            fileio.read_filter_spec(path, 3)

    @pytest.mark.parametrize("omega, index", [([0, 0], 0), ([2, 1, 2], 2), ([0, 1, 1, 0], 0)])
    def test_repeated_band_index_is_refused(self, tmp_path, omega, index):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"kind": "ideal", "omega": omega}))
        with pytest.raises(FileFormatError, match=f"band index {index} appears more than once"):
            fileio.read_filter_spec(path, 3)

    def test_empty_ideal_band_is_accepted(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"kind": "ideal", "omega": []}))
        assert not fileio.read_filter_spec(path, 3).any()

    def test_ideal_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"kind": "ideal", "omega": [7]}))
        with pytest.raises(FileFormatError, match=r"band indices must lie in \[0, 4\)"):
            fileio.read_filter_spec(path, 4)

    @pytest.mark.parametrize("index", [0.9, 1.5, 2.0, True, "2"])
    def test_ideal_rejects_non_integer_index(self, tmp_path, index):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"kind": "ideal", "omega": [0, index]}))
        with pytest.raises(FileFormatError, match="band indices must be integers"):
            fileio.read_filter_spec(path, 4)

    @pytest.mark.parametrize("omega, repeated", [([1, 1], 1), ([3, 0, 2, 0, 3], 0)])
    def test_ideal_rejects_repeated_index(self, tmp_path, omega, repeated):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"kind": "ideal", "omega": omega}))
        with pytest.raises(FileFormatError, match=f"band index {repeated} appears more than once$"):
            fileio.read_filter_spec(path, 4)


class TestPlanJson:
    def test_round_trip_fields(self, tmp_path, perturbed20):
        _, dec = perturbed20
        band = BandModel(dec, 4)
        plan = plan_sampling(band, range(0, 20, 2))
        path = tmp_path / "plan.json"
        fileio.write_plan(plan, path)
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
        band = BandModel(dec, 5)
        plan = plan_sampling(band, [0, 1])
        path = tmp_path / "plan.json"
        fileio.write_plan(plan, path)
        assert json.loads(path.read_text())["certificate"] is None

    def test_certificate_is_null_exactly_when_recovery_refuses(self, tmp_path):
        # bidirectional 5-cycle: its repeated eigenvalues leave LAPACK an oblique basis
        # inside each eigenspace, and on some vertex pairs gamma is rounding, not zero
        arcs = [(i, (i + 1) % 5) for i in range(5)] + [((i + 1) % 5, i) for i in range(5)]
        src, dst = zip(*arcs)
        g = DirectedGraph(n=5, src=src, dst=dst, weight=np.ones(10))
        band = BandModel(decompose(directed_laplacian(g)), 2)
        path = tmp_path / "plan.json"
        near_alias = 0
        for pair in itertools.combinations(range(5), 2):
            plan = plan_sampling(band, pair)
            near_alias += 0 < plan.gamma <= RANK_RTOL * plan.b_norm
            fileio.write_plan(plan, path)
            certificate = json.loads(path.read_text())["certificate"]
            try:
                recover(plan, np.zeros(2, dtype=complex))
            except RankDeficientError:
                assert certificate is None, pair
            else:
                assert certificate is not None, pair
        assert near_alias >= 1


class TestWriteJson:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_number_raises_before_writing(self, tmp_path, value):
        path = tmp_path / "m.json"
        with pytest.raises(NonFiniteError, match=rf"^kappa\[1\] is {value}: .* no output was written$"):
            fileio.write_json({"kappa": [1.0, value]}, path)
        assert not path.exists()

    def test_refusal_names_the_first_non_finite_key_path(self, capsys):
        payload = {"n": 3, "summary": [{"err": 1.0}, {"graph": "g", "err": float("inf")}],
                   "z": float("nan")}
        with pytest.raises(NonFiniteError, match=r"^summary\[1\]\.err is inf: "):
            fileio.write_json(payload)
        assert capsys.readouterr().out == ""


class TestBundleRefusal:
    """A bundle's JSON is rendered first: a non-finite number leaves no file behind."""

    def test_fig2_bundle(self, tmp_path):
        sweep = run_noise_sweep(ExperimentConfig(n=8, k=2, sigmas=(0.1, 0.2), trials=3))
        # finite trials whose squared deviations pass float64: err_std reads inf
        sweep.cells[1] = dataclasses.replace(sweep.cells[1], err_l2=np.array([0.0, 1.7e308, 0.0]))
        out = tmp_path / "fig2"
        with pytest.raises(NonFiniteError, match=r"^summary\[1\]\.err_std is inf: "):
            fileio.write_noise_sweep(ExperimentConfig(), sweep, out)
        assert not out.exists()

    def test_fig1_bundle(self, tmp_path):
        config = ExperimentConfig(n=8, k=2)
        decompositions = reference_pair(config)
        # kappa is cached in the instance dict on first read; a NaN there stands for an SVD gone bad
        decompositions["perturbed"].__dict__["kappa"] = float("nan")
        out = tmp_path / "fig1"
        with pytest.raises(NonFiniteError, match=r"^graphs\.perturbed\.kappa is nan: "):
            fileio.write_spectrum_comparison(config, decompositions, out)
        assert not out.exists()


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
    def test_spectrum_path_quoted_only_when_needed(self, tmp_path, monkeypatch, spectrum, quoted):
        monkeypatch.chdir(tmp_path)  # the writer also writes the spectrum, at the relative path
        dec = decompose(directed_laplacian(gen_perturbed_cycle(5, 0.3, 0.8, seed=1)))
        fileio.write_metrics(dec, spectrum, "csv", tmp_path / "m.csv")
        assert (tmp_path / spectrum).read_text().startswith("k,re_lambda,im_lambda,abs_lambda\n")
        text = (tmp_path / "m.csv").read_bytes().decode()
        assert text.endswith(f"\nspectrum_csv,{quoted}\n")
        with open(tmp_path / "m.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 2 for row in rows)
        assert rows[-1] == ["spectrum_csv", spectrum]

    @pytest.mark.parametrize("form", ["xml", "JSON", None])
    def test_unknown_format_refused_before_writing(self, tmp_path, capsys, form):
        # any form but json used to take the CSV branch
        dec = decompose(directed_laplacian(gen_perturbed_cycle(5, 0.3, 0.8, seed=1)))
        message = f"^metrics format must be json or csv, got {re.escape(repr(form))}$"
        for path in (tmp_path / "m.out", None):
            with pytest.raises(ValueError, match=message):
                fileio.write_metrics(dec, None, form, path)
        assert not (tmp_path / "m.out").exists()
        assert capsys.readouterr().out == ""


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

    def test_sigma_renders_as_twelve_significant_digits(self, tmp_path):
        sigmas = (0.1, 1e-5, 0.30000000000000004, 1 / 3, 2.5e-300)
        cells = [SweepCell(graph, sigma, np.array([0.5, 0.25]), np.zeros(2), np.array([1.0, 2.0]))
                 for sigma in sigmas for graph in ("cycle", "perturbed")]
        path = tmp_path / "trials.csv"
        fileio.write_trials_csv(cells, path)
        expected = "sigma,trial,graph,err_l2,bound\n" + "".join(
            "%.12g,%d,%s,%.12g,%.12g\n" % (cell.sigma, t, cell.graph, cell.err_l2[t], cell.bound[t])
            for cell in cells for t in range(2)
        )
        assert path.read_bytes() == expected.encode()


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
