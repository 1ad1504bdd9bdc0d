"""Readers, and the one renderer and writer of every output file.

Every output byte leaves through :func:`write_text`, the one sink; it
writes to stdout when ``path`` is None, so stdout carries exactly the
bytes of the file. CSV files are rendered by one CSV renderer, JSON files
by :func:`write_json`.

Formats (all numeric output uses 12 significant digits):

- edge list CSV, header ``src,dst,weight``; zero-based integer vertices
- signal CSV, header ``vertex,re,im``; for spectral-domain signals the
  first column holds the frequency bin instead of a vertex
- spectrum CSV, header ``k,re_lambda,im_lambda,abs_lambda``
- filter spec JSON, ``{"kind": "ideal", "omega": [...]}`` or
  ``{"kind": "diagonal", "response": [[re, im], ...]}``
- sampling plan JSON, ``{omega, sample_set, gamma, b_norm, certificate}``
- metrics JSON (``analyze``), ``{n, alpha, delta, henrici, kappa, spectrum_csv}``
- metrics CSV (``analyze --format csv``), header ``metric,value``, one row
  per metrics JSON key; a ``null`` value is an empty cell
- fig1 ``metrics.json``, ``{config, generator, version, graphs}``, with one
  metrics JSON per graph; each ``spectrum_csv`` names its spectrum CSV
- fig2 ``bundle.json``, the fig1 header with ``spectrum_csv`` null, plus
  ``summary``: the sweep summary rows as objects
- sweep trials CSV, header ``sigma,trial,graph,err_l2,bound``
- sweep summary CSV, header ``graph,sigma,err_mean,err_std,err_abs_mean,bound_mean``
"""
from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import sys
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .errors import FileFormatError
from .experiments import (
    GENERATOR_NAME, ExperimentConfig, GraphReport, NoiseSweep, SummaryRow, TrialRow,
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


def _open_rows(path) -> list[list[str]]:
    try:
        with open(path, newline="") as fh:
            return [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc


def _check_header(rows: list[list[str]], expected: list[str], path) -> list[list[str]]:
    if not rows or [c.strip() for c in rows[0]] != expected:
        raise FileFormatError(f"{path}: expected header {','.join(expected)}")
    return rows[1:]


def write_text(text: str | Iterable[str], path=None) -> None:
    """Write a string, or stream an iterable of strings, to ``path`` (stdout when None)."""
    chunks = [text] if isinstance(text, str) else text
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", newline="") as fh:
            fh.writelines(chunks)


def _write_csv(header: Sequence[str], rows: Iterable[Sequence[str]], path=None) -> None:
    """Write ``header`` and ``rows`` of rendered cells as comma-separated lines."""
    lines = (",".join(row) + "\n" for row in rows)
    write_text(itertools.chain([",".join(header) + "\n"], lines), path)


def write_json(payload, path=None) -> None:
    """Write ``payload`` as JSON indented by two spaces, with a final newline."""
    write_text(json.dumps(payload, indent=2) + "\n", path)


# -- edge lists ---------------------------------------------------------------

def write_edge_list(g: DirectedGraph, path=None) -> None:
    edges = zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist())
    _write_csv(("src", "dst", "weight"), ((str(s), str(d), fmt(w)) for s, d, w in edges), path)


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
    body = _check_header(_open_rows(path), ["src", "dst", "weight"], path)
    src, dst, weight = [], [], []
    for lineno, row in enumerate(body, start=2):
        if len(row) != 3:
            raise FileFormatError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
        try:
            s, d, w = int(row[0]), int(row[1]), float(row[2])
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
        src.append(s)
        dst.append(d)
        weight.append(w)
    top = max(max(src), max(dst)) + 1 if src else 0
    if n is None:
        if not src:
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
    rows = ((str(i), fmt(z.real), fmt(z.imag)) for i, z in enumerate(signal.values))
    _write_csv(("vertex", "re", "im"), rows, path)


def read_signal(path, domain: str = VERTEX) -> GraphSignal:
    body = _check_header(_open_rows(path), ["vertex", "re", "im"], path)
    entries = {}
    for lineno, row in enumerate(body, start=2):
        if len(row) != 3:
            raise FileFormatError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
        try:
            index, value = int(row[0]), complex(float(row[1]), float(row[2]))
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
        if index in entries:
            raise FileFormatError(f"{path}:{lineno}: index {index} appears more than once")
        entries[index] = value
    n = len(entries)
    if n == 0:
        raise FileFormatError(f"{path}: no signal rows")
    if sorted(entries) != list(range(n)):
        raise FileFormatError(f"{path}: indices must cover 0..{n - 1} exactly once")
    values = np.array([entries[i] for i in range(n)])
    try:
        return GraphSignal(values, domain)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


# -- spectra ------------------------------------------------------------------

def write_spectrum(lambdas: np.ndarray, path) -> None:
    rows = ((str(k), fmt(lam.real), fmt(lam.imag), fmt(abs(lam))) for k, lam in enumerate(lambdas))
    _write_csv(("k", "re_lambda", "im_lambda", "abs_lambda"), rows, path)


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
            return SpectralFilter.ideal([int(i) for i in spec["omega"]], n)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
        cells = ((key, "" if value is None else str(value)) for key, value in payload.items())
        _write_csv(("metric", "value"), cells, path)


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
    write_trials_csv(sweep.trials, out / "trials.csv")
    write_summary_csv(sweep.summary, out / "summary.csv")
    graphs = {name: _metrics_payload(report, None) for name, report in sweep.reports.items()}
    summary = [dict(zip(_SUMMARY_FIELDS, _summary_cells(row, round12))) for row in sweep.summary]
    write_json({**_bundle(config, graphs), "summary": summary}, out / "bundle.json")
    return out / "bundle.json"


def write_trials_csv(rows: Iterable[TrialRow], path) -> None:
    cells = ((fmt(t.sigma), str(t.trial), t.graph, fmt(t.err_l2), fmt(t.bound)) for t in rows)
    _write_csv(("sigma", "trial", "graph", "err_l2", "bound"), cells, path)


_SUMMARY_FIELDS = tuple(field.name for field in dataclasses.fields(SummaryRow))


def _summary_cells(row: SummaryRow, number) -> list:
    """The graph name, then each number field of ``row`` through ``number``."""
    graph, *numbers = (getattr(row, name) for name in _SUMMARY_FIELDS)
    return [graph, *map(number, numbers)]


def write_summary_csv(rows: Iterable[SummaryRow], path) -> None:
    _write_csv(_SUMMARY_FIELDS, (_summary_cells(row, fmt) for row in rows), path)
