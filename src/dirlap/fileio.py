"""Readers, and the one renderer and writer of every output file.

The edge list and the signal are read by one parse: the header line is
checked, then a single ``np.loadtxt`` call reads every row into a record
array. Their cells follow one grammar, which the command line's numeric
options follow too (:func:`parse_number` reads both):

- integers are ASCII decimal, with an optional sign and surrounding spaces
  (``+3``, `` 7 ``); no ``_`` separators and no other scripts' digits;
- floats are ASCII decimal or exponent notation (``2.E-1``, ``.5``), or
  ``inf``, ``infinity`` or ``nan`` in any case, with an optional sign and
  surrounding spaces (the readers then reject non-finite values);
- a cell may be quoted with ``"``;
- blank lines are skipped, while a line of spaces is a row of one cell;
- there are no comments: a ``#`` line is a bad row;
- a file holding any character outside ASCII, or one of the separators
  0x1c-0x1f, is rejected.

A bad row raises :class:`FileFormatError` naming the 1-based file line
where it begins; a line break inside a quoted cell continues its row. Rows
are checked by the grammar only when ``np.loadtxt`` refuses the file, to
find the first bad one.

Every output byte leaves through :func:`write_text`, the one sink; it
writes to stdout when ``path`` is None, so stdout carries exactly the
bytes of the file. JSON files are rendered as strict JSON: a non-finite
number raises :class:`NonFiniteError`, naming its key, before any byte is
written, and a writer of several files renders its JSON file first. CSV files are
rendered by one columnar renderer, in chunks of a bounded number of rows.
A writer hands it whole columns, each either values with one ``%`` code
(``%d``, ``%s`` or ``%.12g``) or table-rendered cells: a table holding each
distinct cell rendered once, and one index into it per row. A chunk with a
value column is rendered by a single ``%`` operation; a chunk of
table-rendered columns alone, as in the edge list (each vertex label and
each distinct weight rendered once), is one join of the looked-up cells.
Either way no cell costs a call of its own. ``%.12g`` renders exactly as
:func:`fmt`.

Formats (all numeric output uses 12 significant digits):

- edge list CSV, header ``src,dst,weight``; zero-based integer vertices
- signal CSV, header ``vertex,re,im``, in both domains: for spectral
  coefficients the first column holds the frequency bin instead of a vertex
- spectrum CSV, header ``k,re_lambda,im_lambda,abs_lambda``
- filter spec JSON, ``{"kind": "ideal", "omega": [...]}`` (integer indices,
  each at most once) or ``{"kind": "diagonal", "response": [[re, im], ...]}``
  (finite real numbers, no bools); no other key; read as the filter's
  length-n complex response, the indicator of ``omega`` or the taps
- sampling plan JSON, ``{omega, sample_set, gamma, b_norm, certificate}``
- metrics JSON (``analyze``), ``{n, alpha, delta, henrici, kappa, spectrum_csv}``;
  its writers take the graph's decomposition, and one builder reads the four
  metrics off it, which fig1 and fig2 embed too
- metrics CSV (``analyze --format csv``), header ``metric,value``, one row
  per metrics JSON key; a ``null`` value is an empty cell, and a
  ``spectrum_csv`` path holding a comma, a double quote, CR or LF is quoted
- fig1 ``metrics.json``, ``{config, generator, version, graphs}``, with one
  metrics JSON per graph; each ``spectrum_csv`` names its spectrum CSV
- fig2 ``bundle.json``, the fig1 header with ``spectrum_csv`` null and each
  graph's ``lowpass_gain`` (``||P_omega||_2``) after it, plus ``summary``:
  one object per sweep cell, its ``experiments.SUMMARY_FIELDS``
- sweep trials CSV, header ``sigma,trial,graph,err_l2,bound``, one row per
  trial, rendered from the sweep's per-cell arrays
- sweep summary CSV, header ``graph,sigma,err_mean,err_std,err_abs_mean,bound_mean``
  (``experiments.SUMMARY_FIELDS``), one row per sweep cell, read off the cell
"""
from __future__ import annotations

import io
import itertools
import numbers
import re
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .errors import FileFormatError, NonFiniteError, RankDeficientError
from .graphs import (MAX_VERTICES, DirectedGraph, _is_a, _scalar, asymmetry_index,
                     normality_departure)

if TYPE_CHECKING:
    # a reader or writer imports the modules it needs when called (json and csv
    # too), so gen, which writes an edge list, loads none of them
    from .eigen import SpectralDecomposition
    from .experiments import ExperimentConfig, NoiseSweep, SweepCell
    from .sampling import SamplingPlan
    from .transform import GraphSignal


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
#: matched only when a file is refused, so a string, compiled on first use into ``re``'s cache
_FOREIGN = r"[^\x00-\x1b\x20-\x7f]"
#: the number grammar of the CSV cells and of the command line's numeric options
#: (``int()`` and ``float()`` alone take ``1_0`` and other scripts' digits): ASCII
#: digits, an optional sign and ASCII spaces around; an integer is digits alone, a
#: float decimal or exponent notation, or ``inf``, ``infinity`` or ``nan`` in any case
_DECIMAL = r"(?a)\s*[+-]?\d+\s*"
_FLOAT = r"(?ai)\s*[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan)\s*"


def parse_number(value, kind: type):
    """``value`` as ``kind``, int or float; a string outside ``kind``'s rule raises ValueError."""
    if isinstance(value, str) and not re.fullmatch(_DECIMAL if kind is int else _FLOAT, value):
        fault = "invalid literal for int" if kind is int else "could not convert string to float"
        raise ValueError(f"{fault}: {value!r}")
    return kind(value)


def _rows(text: str, start: int):
    """(the file line where it begins, its cells) of each row of ``text``, from line ``start``.

    Rows split as ``np.loadtxt`` splits them: blank lines are skipped, and a
    line break inside a quoted cell continues its row. A cell beyond csv's
    field size limit ends the rows.
    """
    import csv

    reader, begin = csv.reader(io.StringIO(text)), start
    try:
        for cells in reader:
            if cells:
                yield begin, cells
            begin = start + reader.line_num
    except csv.Error:
        return


def _first_fault(body: str, start: int, kinds: Sequence[type]) -> tuple[int, str] | None:
    """The file line and fault of the first row of ``body`` that is not ``kinds``' numbers."""
    for lineno, cells in _rows(body, start):
        if len(cells) != len(kinds):
            return lineno, f"expected {len(kinds)} columns, got {len(cells)}"
        for column, (cell, kind) in enumerate(zip(cells, kinds), 1):
            try:
                value = parse_number(cell, kind)
            except ValueError as exc:
                return lineno, f"{exc} (column {column})"
            if kind is int and not -2**63 <= value < 2**63:
                return lineno, f"vertex index out of range: {cell!r} (column {column})"
    return None


def _read_table(path, header: str, dtype: np.dtype):
    """Parse a CSV file of ``header`` and numeric rows into a record array of ``dtype``.

    Blank lines are skipped, the first other line must be ``header`` (cells
    stripped, quotes allowed), and one ``np.loadtxt`` call parses every row
    after it. Returns the array and :func:`_rows` of the rows after the
    header, which pairs a row of the array with its file line.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip("\n")
    start = len(text) - len(stripped) + 2  # the file line of the body's first line
    first, _, body = stripped.partition("\n")
    if [cell.strip() for _, cells in _rows(first, 1) for cell in cells] != header.split(","):
        raise FileFormatError(f"{path}: expected header {header}")
    if not body.isascii() or any(c in body for c in _SEPARATORS):
        bad = re.search(_FOREIGN, body)
        lineno = start + body.count("\n", 0, bad.start())
        raise FileFormatError(f"{path}:{lineno}: character {bad.group()!r} in a number")
    try:
        with warnings.catch_warnings():
            # a header-only file is a table of no rows, not a fault
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(io.StringIO(body), dtype=dtype, delimiter=",", comments=None,
                               quotechar='"', ndmin=1)
    except ValueError as exc:
        kinds = [int if dtype[name].kind == "i" else float for name in dtype.names]
        fault = _first_fault(body, start, kinds)
        if fault is None:
            raise FileFormatError(f"{path}: {exc}") from exc
        raise FileFormatError(f"{path}:{fault[0]}: {fault[1]}") from exc
    return table, _rows(body, start)


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


#: rows rendered as one string; bounds the text held at once, whatever the row count
_CHUNK_ROWS = 4096


class _Cells(NamedTuple):
    """A column of cells rendered ahead: cell ``k`` is ``table[index[k]]``.

    A writer renders each distinct cell once into ``table``, and every row
    only looks its cell up.
    """

    table: Sequence[str]
    index: np.ndarray


def _write_csv(header: Sequence[str], codes: Sequence[str], columns: Sequence, path=None) -> None:
    """Write ``header``, then one line per row of ``columns``, cell ``j`` rendered by ``codes[j]``.

    ``columns`` are equally long arrays, lists or :class:`_Cells` (whose code
    is ``%s``). Each chunk of ``_CHUNK_ROWS`` rows is rendered as one
    string. When every column is a ``_Cells``, each table entry already ends
    in its separator, and the chunk is the join of its looked-up cells (the
    ``%`` operation renders the same bytes, but takes about 2.5 times as
    long on an edge list); otherwise one ``%`` operation renders the chunk's
    interleaved cells.
    """
    seps = [","] * (len(columns) - 1) + ["\n"]
    tables = {j: np.array([cell + seps[j] for cell in col.table], dtype=object)
              for j, col in enumerate(columns) if isinstance(col, _Cells)}
    line = "".join(code if j in tables else code + sep
                   for j, (code, sep) in enumerate(zip(codes, seps)))
    first = columns[0]
    rows = len(first.index if isinstance(first, _Cells) else first)

    def lines():
        yield ",".join(header) + "\n"
        for start in range(0, rows, _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            parts = [tables[j][col.index[start:stop]] if j in tables else col[start:stop]
                     for j, col in enumerate(columns)]
            if len(tables) == len(columns):
                yield "".join(np.stack(parts, axis=1).ravel().tolist())
            else:
                parts = [p.tolist() if isinstance(p, np.ndarray) else p for p in parts]
                yield line * len(parts[0]) % tuple(itertools.chain.from_iterable(zip(*parts)))

    write_text(lines(), path)


def _nonfinite(node, where: str = "") -> tuple[str, float] | None:
    """The key path and value of ``node``'s first NaN or infinite number, if any."""
    if isinstance(node, float):
        return None if np.isfinite(node) else (where, node)
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        found = _nonfinite(child, f"{where}.{key}" if isinstance(key, str) else f"{where}[{key}]")
        if found is not None:
            return found
    return None


def _json_text(payload) -> str:
    """``payload`` as strict JSON (RFC 8259), indented by two spaces, with a final newline.

    Raises:
        NonFiniteError: a number of ``payload`` is NaN or infinite; the
            message names its key path.
    """
    import json

    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError:
        found = _nonfinite(payload)
        if found is None:
            raise
        where, value = found
        raise NonFiniteError(f"{where.lstrip('.')} is {value}: the computation overflowed "
                             "float64, and no output was written") from None


def write_json(payload, path=None) -> None:
    """Write ``payload`` as strict JSON; a non-finite number raises before any byte is written."""
    write_text(_json_text(payload), path)


# -- edge lists ---------------------------------------------------------------

def write_edge_list(g: DirectedGraph, path=None) -> None:
    """Write ``g``'s arcs in their order, each vertex label and distinct weight rendered once."""
    labels = [str(v) for v in range(g.n)]
    # the distinct weights, as np.unique finds them without importing numpy.ma (about 10 ms)
    ordered = np.sort(g.weight)
    weights = np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))
    columns = (_Cells(labels, g.src), _Cells(labels, g.dst),
               _Cells([fmt(w) for w in weights.tolist()], np.searchsorted(weights, g.weight)))
    _write_csv(("src", "dst", "weight"), ("%s", "%s", "%s"), columns, path)


_EDGE_DTYPE = np.dtype([("src", "i8"), ("dst", "i8"), ("weight", "f8")])


def read_edge_list(path, n: int | None = None) -> DirectedGraph:
    """Parse an edge-list CSV.

    The format carries no vertex count, so ``n`` defaults to the largest
    vertex index plus one; pass it explicitly for graphs with trailing
    isolated vertices or no edges at all.

    Raises:
        ValueError: ``n`` is not an integer in ``[1, MAX_VERTICES]``, or is
            below the largest vertex index plus one (the argument is at fault).
        FileFormatError: the file is unreadable or its rows are invalid.
    """
    n = None if n is None else _scalar(n, numbers.Integral, "n", 1, MAX_VERTICES)
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


def read_signal(path) -> GraphSignal:
    """Read a signal CSV; its one header ``vertex,re,im`` serves both domains.

    Raises:
        FileFormatError: a bad row, a repeated or missing index, or a non-finite value.
    """
    from .transform import GraphSignal

    table, rows = _read_table(path, "vertex,re,im", _SIGNAL_DTYPE)
    index = table["index"]
    n = index.size
    if n == 0:
        raise FileFormatError(f"{path}: no signal rows")
    repeated = np.ones(n, dtype=bool)
    repeated[np.unique(index, return_index=True)[1]] = False
    if repeated.any():
        row = int(np.argmax(repeated))
        where = "".join(f":{lineno}" for lineno, _ in itertools.islice(rows, row, row + 1))
        raise FileFormatError(f"{path}{where}: index {index[row]} appears more than once")
    if index.min() != 0 or index.max() != n - 1:
        raise FileFormatError(f"{path}: indices must cover 0..{n - 1} exactly once")
    values = np.empty(n, dtype=np.complex128)
    values.real[index] = table["re"]
    values.imag[index] = table["im"]
    try:
        return GraphSignal(values)
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
    import json

    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bad JSON, bytes that are not UTF-8, or an integer beyond Python's
        # digit limit; RecursionError: arrays or objects nested beyond the recursion limit
        raise FileFormatError(f"cannot parse {what} {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: {what} must be a JSON object")
    return obj


def _tap(re, im) -> complex:
    """One diagonal filter tap; a bool or string part is refused, not read as a number."""
    if not (_is_a(re, numbers.Real) and _is_a(im, numbers.Real)):
        raise ValueError(f"taps must be pairs of real numbers, got {[re, im]!r}")
    return complex(re, im)


#: the one field each filter kind holds next to ``kind``
_FILTER_FIELDS = {"ideal": "omega", "diagonal": "response"}


def read_filter_spec(path, n: int) -> np.ndarray:
    """Parse a filter spec into its length-``n`` complex response.

    An ideal spec's ``omega`` (each index once) gives its indicator, a diagonal
    spec lists the ``n`` taps; no key but ``kind`` and that one field is allowed.
    """
    from .transform import _indices, _vector

    spec = read_json_object(path, "filter spec")
    kind = spec.get("kind")
    field = _FILTER_FIELDS.get(kind) if isinstance(kind, str) else None
    if field is None:
        raise FileFormatError(f"unknown filter kind {kind!r}")
    unknown = sorted(set(spec) - {"kind", field})
    if unknown:
        raise FileFormatError(f"bad {kind} filter spec: unknown keys {unknown}")
    if kind == "ideal":
        omega = spec.get("omega")
        if not isinstance(omega, list):
            raise FileFormatError(f"bad ideal filter spec: omega must be an array, got {omega!r}")
        try:
            omega = _indices(omega, n, "band indices")
        except ValueError as exc:
            raise FileFormatError(f"bad ideal filter spec: {exc}") from exc
        counts = np.bincount(omega, minlength=n)
        repeated = np.flatnonzero(counts > 1)
        if repeated.size:
            raise FileFormatError(f"bad ideal filter spec: band index {repeated[0]} appears more than once")
        return counts.astype(np.complex128)  # no index repeats, so this is omega's indicator
    try:
        response = _vector([_tap(re, im) for re, im in spec["response"]], "filter response")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"bad diagonal filter spec: {exc}") from exc
    if response.shape != (n,):
        raise FileFormatError(f"diagonal filter has {response.shape[0]} taps, graph has {n}")
    return response


# -- sampling plans -----------------------------------------------------------

def write_plan(plan: SamplingPlan, path=None) -> None:
    """Export a plan with its unit-noise certificate, ``null`` where recovery refuses the plan."""
    from .sampling import noise_certificate

    try:
        certificate = round12(noise_certificate(plan, 1.0))
    except RankDeficientError:
        certificate = None
    payload = {
        "omega": [int(i) for i in plan.band.omega],
        "sample_set": [int(i) for i in plan.sample_set],
        "gamma": round12(plan.gamma),
        "b_norm": round12(plan.b_norm),
        "certificate": certificate,
    }
    write_json(payload, path)


# -- metrics and experiment outputs --------------------------------------------

def _metrics_payload(dec: SpectralDecomposition, spectrum_csv: str | None) -> dict:
    """The metrics of the graph whose Laplacian ``dec`` decomposes, rounded to 12 digits."""
    from .eigen import henrici_departure

    metrics = {"alpha": asymmetry_index(dec.matrix), "delta": normality_departure(dec.matrix),
               "henrici": henrici_departure(dec), "kappa": dec.kappa}
    metrics = {key: round12(value) for key, value in metrics.items()}
    return {"n": dec.n, **metrics, "spectrum_csv": spectrum_csv}


def write_metrics(dec: SpectralDecomposition, spectrum_csv: str | None, form: str,
                  path=None) -> None:
    """Export the metrics of one graph's decomposition as ``form``, ``json`` or ``csv``.

    Raises:
        ValueError: ``form`` is neither ``json`` nor ``csv``; nothing is written.
    """
    if form not in ("json", "csv"):
        raise ValueError(f"metrics format must be json or csv, got {form!r}")
    payload = _metrics_payload(dec, spectrum_csv)
    if form == "json":
        write_json(payload, path)
    else:
        # spectrum_csv is a user-given path, the one cell of any CSV output that may need quoting
        values = ["" if value is None else _quote(str(value)) for value in payload.values()]
        _write_csv(("metric", "value"), ("%s", "%s"), (list(payload), values), path)


def _bundle(config: ExperimentConfig, graphs: dict) -> dict:
    from .experiments import GENERATOR_NAME

    return {"config": config.to_dict(), "generator": GENERATOR_NAME, "version": __version__,
            "graphs": graphs}


def write_spectrum_comparison(
    config: ExperimentConfig, decompositions: dict[str, SpectralDecomposition], out_dir
) -> Path:
    """Write fig1 into ``out_dir``: ``<graph>.spectrum.csv`` per graph, then ``metrics.json``.

    ``metrics.json`` is rendered first, so a non-finite metric raises
    :class:`NonFiniteError` before any file is written.
    """
    graphs = {name: _metrics_payload(dec, f"{name}.spectrum.csv")
              for name, dec in decompositions.items()}
    metrics = _json_text(_bundle(config, graphs))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, dec in decompositions.items():
        write_spectrum(dec.lambdas, out / graphs[name]["spectrum_csv"])
    write_text(metrics, out / "metrics.json")
    return out / "metrics.json"


def write_noise_sweep(config: ExperimentConfig, sweep: NoiseSweep, out_dir) -> Path:
    """Write fig2 into ``out_dir``: ``trials.csv``, ``summary.csv``, then ``bundle.json``.

    ``bundle.json`` is rendered first. Its summary holds each cell's means of
    ``err_l2`` and ``bound``, which are finite only if every trial's are, so
    a sweep that overflowed raises :class:`NonFiniteError`, naming the
    summary field, before any file is written.
    """
    from .experiments import SUMMARY_FIELDS

    graphs = {name: {**_metrics_payload(band.decomposition, None),
                     "lowpass_gain": round12(band.lowpass_gain)}
              for name, band in sweep.bands.items()}
    summary = [{"graph": cell.graph, **{key: round12(getattr(cell, key))
                                        for key in SUMMARY_FIELDS[1:]}}
               for cell in sweep.cells]
    bundle = _json_text({**_bundle(config, graphs), "summary": summary})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trials_csv(sweep.cells, out / "trials.csv")
    write_summary_csv(sweep.cells, out / "summary.csv")
    write_text(bundle, out / "bundle.json")
    return out / "bundle.json"


def write_trials_csv(cells: Sequence[SweepCell], path) -> None:
    """One row per trial, the cells in order and each cell's trials by index."""
    sizes = [cell.err_l2.size for cell in cells]
    # sigma and graph are one cell per sweep cell, rendered once and repeated over its trials;
    # each trial index is rendered once and repeated over the cells
    cell_of_row = np.repeat(np.arange(len(cells)), sizes)
    columns = (
        _Cells([fmt(cell.sigma) for cell in cells], cell_of_row),
        _Cells([str(t) for t in range(max(sizes))],
               np.concatenate([np.arange(size) for size in sizes])),
        _Cells([cell.graph for cell in cells], cell_of_row),
        np.concatenate([cell.err_l2 for cell in cells]),
        np.concatenate([cell.bound for cell in cells]),
    )
    _write_csv(("sigma", "trial", "graph", "err_l2", "bound"),
               ("%s", "%s", "%s", "%.12g", "%.12g"), columns, path)


def write_summary_csv(cells: Sequence[SweepCell], path) -> None:
    """One row per cell, its ``SUMMARY_FIELDS`` in order."""
    from .experiments import SUMMARY_FIELDS

    columns = [[getattr(cell, name) for cell in cells] for name in SUMMARY_FIELDS]
    _write_csv(SUMMARY_FIELDS, ("%s",) + ("%.12g",) * (len(SUMMARY_FIELDS) - 1), columns, path)
