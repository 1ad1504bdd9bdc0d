"""Readers and writers for the on-disk formats.

Writers that take ``path=None`` print to stdout instead, through the one
sink :func:`write_text`, so stdout carries exactly the bytes of the file.

Formats (all numeric output uses 12 significant digits):

- edge list CSV, header ``src,dst,weight``; zero-based integer vertices
- signal CSV, header ``vertex,re,im``; for spectral-domain signals the
  first column holds the frequency bin instead of a vertex
- spectrum CSV, header ``k,re_lambda,im_lambda,abs_lambda``
- filter spec JSON, ``{"kind": "ideal", "omega": [...]}`` or
  ``{"kind": "diagonal", "response": [[re, im], ...]}``
- sampling plan JSON, ``{omega, sample_set, gamma, b_norm, certificate}``
- sweep trials CSV, header ``sigma,trial,graph,err_l2,bound``
- sweep summary CSV, header ``graph,sigma,err_mean,err_std,err_abs_mean,bound_mean``
"""
from __future__ import annotations

import csv
import json
import sys
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import FileFormatError
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


def write_text(text: str, path=None) -> None:
    """Write ``text`` to ``path``, or to stdout when ``path`` is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


# -- edge lists ---------------------------------------------------------------

def write_edge_list(g: DirectedGraph, path=None) -> None:
    rows = [
        f"{src},{dst},{fmt(weight)}\n"
        for src, dst, weight in zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist())
    ]
    write_text("src,dst,weight\n" + "".join(rows), path)


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["vertex", "re", "im"])
        for i, z in enumerate(signal.values):
            writer.writerow([i, fmt(z.real), fmt(z.imag)])


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", "re_lambda", "im_lambda", "abs_lambda"])
        for k, lam in enumerate(lambdas):
            writer.writerow([k, fmt(lam.real), fmt(lam.imag), fmt(abs(lam))])


# -- filters ------------------------------------------------------------------

def read_filter_spec(path, n: int) -> SpectralFilter:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot parse filter spec {path}: {exc}") from exc
    if not isinstance(spec, dict):
        raise FileFormatError(f"{path}: filter spec must be a JSON object")
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
    write_text(json.dumps(payload, indent=2) + "\n", path)


# -- experiment sweeps --------------------------------------------------------

def write_trials_csv(rows: Iterable[Sequence], path) -> None:
    """Rows of ``(sigma, trial, graph, err_l2, bound)``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sigma", "trial", "graph", "err_l2", "bound"])
        for sigma, trial, graph, err, bound in rows:
            writer.writerow([fmt(sigma), trial, graph, fmt(err), fmt(bound)])


def write_summary_csv(rows, path) -> None:
    """Rows with fields (graph, sigma, err_mean, err_std, err_abs_mean, bound_mean)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["graph", "sigma", "err_mean", "err_std", "err_abs_mean", "bound_mean"])
        for row in rows:
            writer.writerow(
                [row.graph, fmt(row.sigma), fmt(row.err_mean), fmt(row.err_std),
                 fmt(row.err_abs_mean), fmt(row.bound_mean)]
            )
