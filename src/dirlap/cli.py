"""Command-line interface.

Subcommands: ``gen``, ``analyze``, ``gft``, ``filter``, ``sample``, and
``experiment fig1|fig2``. All numeric output is printed with 12 significant
digits and every run is a deterministic function of its arguments and seed.

Exit codes: 0 success, 2 bad usage/parameters, 3 file parse error,
4 dimension mismatch, 5 rank-deficient sampling, 6 near-defective operator.
"""
from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click

from . import __version__
from .errors import (
    DimensionMismatchError,
    FileFormatError,
    NearDefectiveError,
    RankDeficientError,
)
from . import fileio
from .eigen import SpectralDecomposition, decompose
from .experiments import (
    GENERATOR_NAME,
    ExperimentConfig,
    analyze_graph,
    run_noise_sweep,
    run_spectrum_comparison,
)
from .graphs import directed_laplacian, gen_directed_cycle, gen_perturbed_cycle
from .sampling import make_band, plan_sampling, recover, select_sampling_set
from .transform import SPECTRAL, VERTEX, apply_filter, forward, inverse

EXIT_PARSE = 3
EXIT_DIMENSION = 4
EXIT_RANK_DEFICIENT = 5
EXIT_NEAR_DEFECTIVE = 6

_EXIT_CODES = [
    (FileFormatError, EXIT_PARSE),
    (DimensionMismatchError, EXIT_DIMENSION),
    (RankDeficientError, EXIT_RANK_DEFICIENT),
    (NearDefectiveError, EXIT_NEAR_DEFECTIVE),
]


def _with_exit_codes(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except tuple(exc for exc, _ in _EXIT_CODES) as err:
            code = next(c for exc, c in _EXIT_CODES if isinstance(err, exc))
            click.echo(f"error: {err}", err=True)
            sys.exit(code)
        except ValueError as err:
            raise click.UsageError(str(err)) from err

    return wrapper


def _load_decomposition(graph_path, n: int | None) -> SpectralDecomposition:
    """Read an edge list on ``n`` vertices (default: inferred) and decompose its directed Laplacian."""
    return decompose(directed_laplacian(fileio.read_edge_list(graph_path, n)))


_vertex_count_option = click.option(
    "--n", type=int, default=None,
    help="Vertex count [default: largest index + 1]; counts trailing isolated vertices.",
)


def _metrics_payload(report, spectrum_csv: str | None) -> dict:
    return {
        "n": int(report.lambdas.shape[0]),
        "alpha": fileio.round12(report.alpha),
        "delta": fileio.round12(report.delta),
        "henrici": fileio.round12(report.henrici),
        "kappa": fileio.round12(report.kappa),
        "spectrum_csv": spectrum_csv,
    }


def _render_metrics(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    lines = ["metric,value"]
    for key, value in payload.items():
        lines.append(f"{key},{value if value is not None else ''}")
    return "\n".join(lines) + "\n"


@click.group()
@click.version_option(__version__)
def main():
    """Spectral analysis, filtering, and sampling on directed graphs."""


@main.command()
@click.argument("kind", type=click.Choice(["cycle", "perturbed-cycle"]))
@click.option("--n", type=int, required=True, help="Vertex count.")
@click.option("--p", type=float, default=0.2, show_default=True, help="Extra-edge probability.")
@click.option("--w", type=float, default=0.8, show_default=True, help="Extra-edge weight.")
@click.option("--seed", type=int, default=0, show_default=True, help="Generator seed (PCG64).")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Edge CSV path (default stdout).")
@_with_exit_codes
def gen(kind, n, p, w, seed, out):
    """Generate a reference graph as an edge-list CSV."""
    if kind == "cycle":
        g = gen_directed_cycle(n)
    else:
        g = gen_perturbed_cycle(n, p, w, seed)
    fileio.write_edge_list(g, out)


@main.command()
@click.argument("graph_path", type=click.Path(exists=True, dir_okay=False))
@_vertex_count_option
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Metrics file (default stdout).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--spectrum-out", type=click.Path(dir_okay=False), default=None, help="Eigenvalue CSV path.")
@_with_exit_codes
def analyze(graph_path, n, out, fmt, spectrum_out):
    """Asymmetry/normality metrics and spectrum of a graph's Laplacian."""
    dec = _load_decomposition(graph_path, n)
    report = analyze_graph(dec, Path(graph_path).stem)
    if spectrum_out is not None:
        fileio.write_spectrum(dec.lambdas, spectrum_out)
    fileio.write_text(_render_metrics(_metrics_payload(report, spectrum_out), fmt), out)


@main.command()
@click.argument("graph_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("signal_path", type=click.Path(exists=True, dir_okay=False))
@_vertex_count_option
@click.option("--direction", type=click.Choice(["forward", "inverse"]), default="forward", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="Output signal CSV.")
@_with_exit_codes
def gft(graph_path, signal_path, n, direction, out):
    """Graph Fourier transform of a signal (dual-basis analysis/synthesis)."""
    dec = _load_decomposition(graph_path, n)
    if direction == "forward":
        sig = fileio.read_signal(signal_path, VERTEX)
        fileio.write_signal(forward(sig, dec), out)
    else:
        sig = fileio.read_signal(signal_path, SPECTRAL)
        fileio.write_signal(inverse(sig, dec), out)


@main.command(name="filter")
@click.argument("graph_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("signal_path", type=click.Path(exists=True, dir_okay=False))
@_vertex_count_option
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Filter spec JSON (ideal or diagonal).")
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="Filtered signal CSV.")
@_with_exit_codes
def filter_cmd(graph_path, signal_path, n, spec_path, out):
    """Apply a diagonal spectral filter to a vertex signal."""
    dec = _load_decomposition(graph_path, n)
    filt = fileio.read_filter_spec(spec_path, dec.n)
    sig = fileio.read_signal(signal_path, VERTEX)
    fileio.write_signal(apply_filter(sig, filt, dec), out)


@main.command()
@click.argument("graph_path", type=click.Path(exists=True, dir_okay=False))
@_vertex_count_option
@click.option("--k", type=int, required=True, help="Band size (lowest-|lambda| modes).")
@click.option("--m", type=int, default=None, help="Sample budget for automatic selection.")
@click.option("--strategy", type=click.Choice(["greedy-gamma", "random"]), default="greedy-gamma",
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True, help="Seed for the random strategy.")
@click.option("--sample-set", default=None, help="Explicit comma-separated vertex list (overrides --m).")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Plan JSON (default stdout).")
@click.option("--signal", "signal_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Vertex signal CSV; restricted to the sample set and recovered.")
@click.option("--recover-out", type=click.Path(dir_okay=False), default=None,
              help="Recovered signal CSV (requires --signal).")
@_with_exit_codes
def sample(graph_path, n, k, m, strategy, seed, sample_set, out, signal_path, recover_out):
    """Plan a sampling set for a band and optionally recover a signal."""
    if signal_path is not None and recover_out is None:
        raise click.UsageError("--signal requires --recover-out")
    if recover_out is not None and signal_path is None:
        raise click.UsageError("--recover-out requires --signal")
    dec = _load_decomposition(graph_path, n)
    band = make_band(dec, k)
    if sample_set is not None:
        try:
            vertices = [int(tok) for tok in sample_set.split(",") if tok.strip() != ""]
        except ValueError as exc:
            raise click.UsageError(f"bad --sample-set: {exc}") from exc
    else:
        if m is None:
            raise click.UsageError("provide either --m or --sample-set")
        vertices = select_sampling_set(band, m, strategy=strategy, seed=seed)
    plan = plan_sampling(band, vertices)
    fileio.write_plan(plan, band, out)
    if signal_path is not None:
        sig = fileio.read_signal(signal_path, VERTEX)
        if sig.n != dec.n:
            raise DimensionMismatchError(f"signal has length {sig.n}, graph has {dec.n}")
        report = recover(plan, band, sig.values[plan.sample_set])
        fileio.write_signal(report.x_rec, recover_out)


@main.group()
def experiment():
    """Reproducible comparison experiments on the cycle / perturbed-cycle pair."""


def _config_from(config_path, n, p, w, k, sigmas, trials, seed, real_noise) -> ExperimentConfig:
    base = {}
    if config_path is not None:
        try:
            with open(config_path) as fh:
                base = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise FileFormatError(f"cannot parse config {config_path}: {exc}") from exc
        if not isinstance(base, dict):
            raise FileFormatError(f"{config_path}: config must be a JSON object")
    overrides = {
        "n": n, "p": p, "w": w, "k": k, "trials": trials, "seed": seed,
        "real_noise": real_noise,
    }
    if sigmas is not None:
        try:
            overrides["sigmas"] = tuple(float(t) for t in sigmas.split(","))
        except ValueError as exc:
            raise click.UsageError(f"bad --sigmas: {exc}") from exc
    merged = {key: val for key, val in base.items()}
    merged.update({key: val for key, val in overrides.items() if val is not None})
    try:
        return ExperimentConfig(**merged)
    except (TypeError, ValueError):
        # the file is at fault (exit 3) if its values are bad on their own, else a flag (exit 2)
        try:
            ExperimentConfig(**base)
        except (TypeError, ValueError) as exc:
            raise FileFormatError(f"bad config {config_path}: {exc}") from exc
        raise


_config_options = [
    click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                 default=None, help="JSON config; explicit flags override it."),
    click.option("--n", type=int, default=None, help="Graph size [default: 20]."),
    click.option("--p", type=float, default=None, help="Perturbation probability [default: 0.2]."),
    click.option("--w", type=float, default=None, help="Perturbation weight [default: 0.8]."),
    click.option("--k", type=int, default=None, help="Band size [default: 5]."),
    click.option("--trials", type=int, default=None, help="Trials per noise level [default: 200]."),
    click.option("--seed", type=int, default=None, help="Base seed [default: 0]."),
]


def _add_options(options):
    def deco(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn

    return deco


@experiment.command()
@_add_options(_config_options)
@click.option("--out-dir", type=click.Path(file_okay=False), required=True)
@_with_exit_codes
def fig1(config_path, n, p, w, k, trials, seed, out_dir):
    """Spectrum and normality-metrics comparison (writes metrics + spectra)."""
    config = _config_from(config_path, n, p, w, k, None, trials, seed, None)
    result = run_spectrum_comparison(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graphs = {}
    for name, report in result.reports.items():
        spectrum_path = out / f"{name}.spectrum.csv"
        fileio.write_spectrum(report.lambdas, spectrum_path)
        graphs[name] = _metrics_payload(report, spectrum_path.name)
    bundle = {
        "config": config.to_dict(),
        "generator": GENERATOR_NAME,
        "version": __version__,
        "graphs": graphs,
    }
    (out / "metrics.json").write_text(json.dumps(bundle, indent=2) + "\n")
    click.echo(str(out / "metrics.json"))


@experiment.command()
@_add_options(_config_options)
@click.option("--sigmas", default=None, help="Comma-separated ascending noise levels.")
@click.option("--real-noise", is_flag=True, default=None, help="Real Gaussian noise instead of circular complex.")
@click.option("--out-dir", type=click.Path(file_okay=False), required=True)
@_with_exit_codes
def fig2(config_path, n, p, w, k, trials, seed, sigmas, real_noise, out_dir):
    """Noise-sweep reconstruction error (writes trials.csv, summary.csv, bundle)."""
    config = _config_from(config_path, n, p, w, k, sigmas, trials, seed, real_noise)
    result = run_noise_sweep(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_trials_csv(
        [(t.sigma, t.trial, t.graph, t.err_l2, t.bound) for t in result.trials],
        out / "trials.csv",
    )
    fileio.write_summary_csv(result.summary, out / "summary.csv")
    bundle = {
        "config": config.to_dict(),
        "generator": GENERATOR_NAME,
        "version": __version__,
        "graphs": {name: _metrics_payload(rep, None) for name, rep in result.reports.items()},
        "summary": [
            {
                "graph": row.graph,
                "sigma": fileio.round12(row.sigma),
                "err_mean": fileio.round12(row.err_mean),
                "err_std": fileio.round12(row.err_std),
                "err_abs_mean": fileio.round12(row.err_abs_mean),
                "bound_mean": fileio.round12(row.bound_mean),
            }
            for row in result.summary
        ],
    }
    (out / "bundle.json").write_text(json.dumps(bundle, indent=2) + "\n")
    click.echo(str(out / "bundle.json"))


if __name__ == "__main__":
    main()
