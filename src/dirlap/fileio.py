"""Readers, and the one renderer and writer of every output file.

The edge list and the signal are read by one parse: the header line is
checked, then a single ``np.loadtxt`` call reads every row into a record
array. Their cells follow one grammar:

- integers are ASCII decimal, with an optional sign and surrounding spaces
  (``+3``, `` 7 ``); no ``_`` separators and no other scripts' digits;
- floats are what numpy parses: decimal or exponent notation, ``nan`` and
  ``inf`` included (the readers then reject non-finite values);
- a cell may be quoted with ``"``;
- blank lines are skipped, while a line of spaces is a row of one cell;
- there are no comments: a ``#`` line is a bad row;
- a file holding any character outside ASCII, or one of the separators
  0x1c-0x1f, is rejected.

A bad row raises :class:`FileFormatError` naming the 1-based file line
where it begins; a line break inside a quoted cell continues its row.

Every output byte leaves through :func:`write_text`, the one sink; it
writes to stdout when ``path`` is None, so stdout carries exactly the
bytes of the file. JSON files are rendered by :func:`write_json`. CSV
files are rendered by one columnar renderer: a writer hands it whole
columns and one ``%`` code per column (``%d``, ``%s`` or ``%.12g``), and
it renders each bounded chunk of rows with a single ``%`` operation, so no
cell costs a call of its own. ``%.12g`` renders exactly as :func:`fmt`.

Formats (all numeric output uses 12 significant digits):

- edge list CSV, header ``src,dst,weight``; zero-based integer vertices
- signal CSV, header ``vertex,re,im``; for spectral-domain signals the
  first column holds the frequency bin instead of a vertex
- spectrum CSV, header ``k,re_lambda,im_lambda,abs_lambda``
- filter spec JSON, ``{"kind": "ideal", "omega": [...]}`` (integer indices) or
  ``{"kind": "diagonal", "response": [[re, im], ...]}``
- sampling plan JSON, ``{omega, sample_set, gamma, b_norm, certificate}``
- metrics JSON (``analyze``), ``{n, alpha, delta, henrici, kappa, spectrum_csv}``
- metrics CSV (``analyze --format csv``), header ``metric,value``, one row
  per metrics JSON key; a ``null`` value is an empty cell, and a
  ``spectrum_csv`` path holding a comma, a double quote, CR or LF is quoted
- fig1 ``metrics.json``, ``{config, generator, version, graphs}``, with one
  metrics JSON per graph; each ``spectrum_csv`` names its spectrum CSV
- fig2 ``bundle.json``, the fig1 header with ``spectrum_csv`` null, plus
  ``summary``: the sweep summary rows as objects
- sweep trials CSV, header ``sigma,trial,graph,err_l2,bound``, one row per
  trial, rendered from the sweep's per-cell arrays
- sweep summary CSV, header ``graph,sigma,err_mean,err_std,err_abs_mean,bound_mean``
"""
from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import re
import sys
import warnings
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .errors import FileFormatError
from .experiments import (
    GENERATOR_NAME, ExperimentConfig, GraphReport, NoiseSweep, SummaryRow, SweepCell,
)
from .graphs import MAX_VERTICES, DirectedGraph
from .sampling import BandModel, SamplingPlan
from .transform import GraphSignal, SpectralFilter, VERTEX


def fmt(x: float) -> str:
    """Render a real number with 12 significant digits."""
    return f"{float(x):.12g}"


def round12(x: float) -> float:
    """Round to 12 significant digits (for JSON payloads)."""
    return float(fmt(x))


#: the ASCII separators 0x1c-0x1f, which numpy's parser strips as whitespace
#: where ``int()`` and ``float()`` refuse them (it also reads some non-ASCII
#: letters as digits). A body holding one of them or a non-ASCII character is
#: refused: ``str.isascii`` and ``in`` test for them, and ``_FOREIGN``, a scan
#: about 60 times slower, only finds the line of the one that is there.
_SEPARATORS = "\x1c\x1d\x1e\x1f"
_FOREIGN = re.compile(r"[^\x00-\x1b\x20-\x7f]")
#: ``np.loadtxt``'s two row errors: a cell that does not convert, its row
#: counted from 0, and a row of the wrong width, counted from 1; both count
#: rows, not lines (see ``line`` in :func:`_read_table`)
_CELL_ERROR = re.compile(
    r"could not convert string '(.*)' to (int64|float64) at row (\d+), column (\d+)\.", re.DOTALL
)
_WIDTH_ERROR = re.compile(r"requires (\d+) columns but (\d+) were found at row (\d+);")
_DECIMAL = re.compile(r"\s*[+-]?\d+\s*")


def _row_fault(message: str) -> tuple[int, str] | None:
    """The row, counted from 0, and the fault that ``np.loadtxt``'s ``message`` names."""
    if cell := _CELL_ERROR.fullmatch(message):
        token, kind, row, column = cell.groups()
        if kind == "float64":
            fault = f"could not convert string to float: {token!r}"
        elif _DECIMAL.fullmatch(token):
            fault = f"vertex index out of range: {token!r}"
        else:
            fault = f"invalid literal for int: {token!r}"
        return int(row), f"{fault} (column {column})"
    if width := _WIDTH_ERROR.search(message):
        expected, got, row = width.groups()
        return int(row) - 1, f"expected {expected} columns, got {got}"
    return None


def _read_table(path, header: str, dtype: np.dtype):
    """Parse a CSV file of ``header`` and numeric rows into a record array of ``dtype``.

    Blank lines are skipped, the first other line must be ``header`` (cells
    stripped, quotes allowed), and one ``np.loadtxt`` call parses every row
    after it. Returns the array and ``line``, which maps a row of the array
    to the 1-based file line where it begins.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip("\n")
    start = len(text) - len(stripped) + 2  # the file line of the body's first line
    first, _, body = stripped.partition("\n")
    try:
        cells = [cell.strip() for cell in next(csv.reader([first]))]
    except csv.Error:  # a cell beyond csv's field size limit
        cells = None
    if cells != header.split(","):
        raise FileFormatError(f"{path}: expected header {header}")

    def line(row: int) -> int:
        # a row begins on a non-blank line outside quotes; a line break inside a quoted cell
        # continues its row. Every row before ``row`` parsed, so its quotes come in pairs
        quoted = False
        for lineno, part in enumerate(body.split("\n"), start):
            if part and not quoted:
                if row == 0:
                    return lineno
                row -= 1
            quoted ^= part.count('"') % 2 == 1

    if not body.isascii() or any(c in body for c in _SEPARATORS):
        bad = _FOREIGN.search(body)
        lineno = start + body.count("\n", 0, bad.start())
        raise FileFormatError(f"{path}:{lineno}: character {bad.group()!r} in a number")
    try:
        with warnings.catch_warnings():
            # a header-only file is a table of no rows, not a fault
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # numpy before 2.0 reads a non-integer cell of an integer column as a float
            # and only warns; made an error, the warning fails that cell's conversion
            warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
            table = np.loadtxt(io.StringIO(body), dtype=dtype, delimiter=",", comments=None,
                               quotechar='"', ndmin=1)
    except ValueError as exc:
        fault = _row_fault(str(exc))
        if fault is None:
            raise FileFormatError(f"{path}: {exc}") from exc
        raise FileFormatError(f"{path}:{line(fault[0])}: {fault[1]}") from exc
    return table, line


def write_text(text: str | Iterable[str], path=None) -> None:
    """Write a string, or stream an iterable of strings, to ``path`` (stdout when None)."""
    chunks = [text] if isinstance(text, str) else text
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", newline="") as fh:
            fh.writelines(chunks)


def _quote(cell: str) -> str:
    """``cell`` quoted, its ``"`` doubled, when it holds ``,``, ``"``, CR or LF."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


#: rows rendered by one ``%`` operation; bounds the text held at once, whatever the row count
_CHUNK_ROWS = 4096


def _write_csv(header: Sequence[str], codes: Sequence[str], columns: Sequence, path=None) -> None:
    """Write ``header``, then one line per row of ``columns``, cell ``j`` rendered by ``codes[j]``.

    ``columns`` are equally long arrays or lists. Each chunk of ``_CHUNK_ROWS``
    rows is rendered by one ``%`` operation over its interleaved cells.
    """
    line = ",".join(codes) + "\n"
    rows = len(columns[0])

    def lines():
        yield ",".join(header) + "\n"
        for start in range(0, rows, _CHUNK_ROWS):
            parts = [col[start : start + _CHUNK_ROWS] for col in columns]
            parts = [p.tolist() if isinstance(p, np.ndarray) else p for p in parts]
            yield line * len(parts[0]) % tuple(itertools.chain.from_iterable(zip(*parts)))

    write_text(lines(), path)


def write_json(payload, path=None) -> None:
    """Write ``payload`` as JSON indented by two spaces, with a final newline."""
    write_text(json.dumps(payload, indent=2) + "\n", path)


# -- edge lists ---------------------------------------------------------------

def write_edge_list(g: DirectedGraph, path=None) -> None:
    _write_csv(("src", "dst", "weight"), ("%d", "%d", "%.12g"), (g.src, g.dst, g.weight), path)


_EDGE_DTYPE = np.dtype([("src", "i8"), ("dst", "i8"), ("weight", "f8")])


def read_edge_list(path, n: int | None = None) -> DirectedGraph:
    """Parse an edge-list CSV.

    The format carries no vertex count, so ``n`` defaults to the largest
    vertex index plus one; pass it explicitly for graphs with trailing
    isolated vertices or no edges at all.

    Raises:
        ValueError: ``n`` is outside ``[1, MAX_VERTICES]`` or below the
            largest vertex index plus one (the argument is at fault).
        FileFormatError: the file is unreadable or its rows are invalid.
    """
    if n is not None and not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"n must lie in [1, MAX_VERTICES = {MAX_VERTICES}], got {n}")
    edges, _ = _read_table(path, "src,dst,weight", _EDGE_DTYPE)
    src, dst, weight = edges["src"], edges["dst"], edges["weight"]
    top = int(max(src.max(), dst.max())) + 1 if src.size else 0
    if n is None:
        if not src.size:
            raise FileFormatError(f"{path}: empty edge list needs an explicit vertex count")
        n = top
    elif n < top:
        raise ValueError(f"n={n} is below the largest vertex index plus one in {path} ({top})")
    try:
        return DirectedGraph(n, src, dst, weight)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


# -- signals ------------------------------------------------------------------

def write_signal(signal: GraphSignal, path) -> None:
    values = signal.values
    columns = (np.arange(values.shape[0]), values.real, values.imag)
    _write_csv(("vertex", "re", "im"), ("%d", "%.12g", "%.12g"), columns, path)


_SIGNAL_DTYPE = np.dtype([("index", "i8"), ("re", "f8"), ("im", "f8")])


def read_signal(path, domain: str = VERTEX) -> GraphSignal:
    table, line = _read_table(path, "vertex,re,im", _SIGNAL_DTYPE)
    index = table["index"]
    n = index.size
    if n == 0:
        raise FileFormatError(f"{path}: no signal rows")
    repeated = np.ones(n, dtype=bool)
    repeated[np.unique(index, return_index=True)[1]] = False
    if repeated.any():
        row = int(np.argmax(repeated))
        raise FileFormatError(f"{path}:{line(row)}: index {index[row]} appears more than once")
    if index.min() != 0 or index.max() != n - 1:
        raise FileFormatError(f"{path}: indices must cover 0..{n - 1} exactly once")
    values = np.empty(n, dtype=np.complex128)
    values.real[index] = table["re"]
    values.imag[index] = table["im"]
    try:
        return GraphSignal(values, domain)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


# -- spectra ------------------------------------------------------------------

def write_spectrum(lambdas: np.ndarray, path) -> None:
    # Python's complex abs, not np.abs: numpy's vectorized modulus may differ in the last bit
    columns = (np.arange(lambdas.shape[0]), lambdas.real, lambdas.imag,
               [abs(lam) for lam in lambdas.tolist()])
    codes = ("%d", "%.12g", "%.12g", "%.12g")
    _write_csv(("k", "re_lambda", "im_lambda", "abs_lambda"), codes, columns, path)


# -- filters ------------------------------------------------------------------

def read_json_object(path, what: str) -> dict:
    """Parse a JSON file that must hold an object; ``what`` names it in errors."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot parse {what} {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: {what} must be a JSON object")
    return obj


def read_filter_spec(path, n: int) -> SpectralFilter:
    spec = read_json_object(path, "filter spec")
    kind = spec.get("kind")
    if kind == "ideal":
        try:
            return SpectralFilter.ideal(spec["omega"], n)
        except (KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(f"bad ideal filter spec: {exc}") from exc
    if kind == "diagonal":
        try:
            filt = SpectralFilter([complex(re, im) for re, im in spec["response"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(f"bad diagonal filter spec: {exc}") from exc
        if filt.response.shape != (n,):
            raise FileFormatError(f"diagonal filter has {filt.response.shape[0]} taps, graph has {n}")
        return filt
    raise FileFormatError(f"unknown filter kind {kind!r}")


# -- sampling plans -----------------------------------------------------------

def write_plan(plan: SamplingPlan, band: BandModel, path=None) -> None:
    """Export a plan with its unit-noise certificate ``||V_omega||_2 / gamma``."""
    payload = {
        "omega": [int(i) for i in band.omega],
        "sample_set": [int(i) for i in plan.sample_set],
        "gamma": round12(plan.gamma),
        "b_norm": round12(plan.b_norm),
        "certificate": round12(band.synthesis_norm / plan.gamma) if plan.gamma > 0 else None,
    }
    write_json(payload, path)


# -- metrics and experiment outputs --------------------------------------------

def _metrics_payload(report: GraphReport, spectrum_csv: str | None) -> dict:
    metrics = {key: round12(getattr(report, key)) for key in ("alpha", "delta", "henrici", "kappa")}
    return {"n": int(report.lambdas.shape[0]), **metrics, "spectrum_csv": spectrum_csv}


def write_metrics(report: GraphReport, spectrum_csv: str | None, form: str, path=None) -> None:
    """Export the metrics of one graph as ``form``, ``json`` or ``csv``."""
    payload = _metrics_payload(report, spectrum_csv)
    if form == "json":
        write_json(payload, path)
    else:
        # spectrum_csv is a user-given path, the one cell of any CSV output that may need quoting
        values = ["" if value is None else _quote(str(value)) for value in payload.values()]
        _write_csv(("metric", "value"), ("%s", "%s"), (list(payload), values), path)


def _bundle(config: ExperimentConfig, graphs: dict) -> dict:
    return {"config": config.to_dict(), "generator": GENERATOR_NAME, "version": __version__,
            "graphs": graphs}


def write_spectrum_comparison(
    config: ExperimentConfig, reports: dict[str, GraphReport], out_dir
) -> Path:
    """Write fig1 into ``out_dir``: ``<graph>.spectrum.csv`` per graph, then ``metrics.json``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graphs = {}
    for name, report in reports.items():
        spectrum = f"{name}.spectrum.csv"
        write_spectrum(report.lambdas, out / spectrum)
        graphs[name] = _metrics_payload(report, spectrum)
    write_json(_bundle(config, graphs), out / "metrics.json")
    return out / "metrics.json"


def write_noise_sweep(config: ExperimentConfig, sweep: NoiseSweep, out_dir) -> Path:
    """Write fig2 into ``out_dir``: ``trials.csv``, ``summary.csv``, then ``bundle.json``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trials_csv(sweep.cells, out / "trials.csv")
    write_summary_csv(sweep.summary, out / "summary.csv")
    graphs = {name: _metrics_payload(report, None) for name, report in sweep.reports.items()}
    summary = [{"graph": row.graph, **{key: round12(getattr(row, key)) for key in _SUMMARY_NUMBERS}}
               for row in sweep.summary]
    write_json({**_bundle(config, graphs), "summary": summary}, out / "bundle.json")
    return out / "bundle.json"


def write_trials_csv(cells: Sequence[SweepCell], path) -> None:
    """One row per trial, the cells in order and each cell's trials by index."""
    sizes = [cell.err_l2.size for cell in cells]

    def per_cell(values) -> list:
        # one value per cell (its sigma rendered once, its graph), repeated over its trials
        return list(itertools.chain.from_iterable(map(itertools.repeat, values, sizes)))

    columns = (
        per_cell([fmt(cell.sigma) for cell in cells]),
        np.concatenate([np.arange(size) for size in sizes]),
        per_cell([cell.graph for cell in cells]),
        np.concatenate([cell.err_l2 for cell in cells]),
        np.concatenate([cell.bound for cell in cells]),
    )
    _write_csv(("sigma", "trial", "graph", "err_l2", "bound"),
               ("%s", "%d", "%s", "%.12g", "%.12g"), columns, path)


_SUMMARY_FIELDS = tuple(field.name for field in dataclasses.fields(SummaryRow))
_SUMMARY_NUMBERS = _SUMMARY_FIELDS[1:]


def write_summary_csv(rows: Sequence[SummaryRow], path) -> None:
    columns = [[getattr(row, name) for row in rows] for name in _SUMMARY_FIELDS]
    _write_csv(_SUMMARY_FIELDS, ("%s",) + ("%.12g",) * len(_SUMMARY_NUMBERS), columns, path)
