"""Command-line interface.

Subcommands: ``gen``, ``analyze``, ``gft``, ``filter``, ``sample``, and
``experiment fig1|fig2``. All numeric output is printed with 12 significant
digits and every run is a deterministic function of its arguments and seed.

Exit codes: 0 success, 2 bad usage/parameters (an unwritable output path
included), and for a library fault the ``exit_code`` of its
:mod:`dirlap.errors` type: 3 file parse error, 4 dimension mismatch, 5
rank-deficient sampling, 6 near-defective operator, 7 an output number
that overflowed to infinity or NaN.
"""
from __future__ import annotations

import sys
from typing import TYPE_CHECKING

import click

from . import __version__
from .errors import DirlapError, FileFormatError
from . import fileio
from .graphs import directed_laplacian, gen_directed_cycle, gen_perturbed_cycle

# fileio and graphs serve every command; each other module is imported by the
# commands that call it, so --version and gen load neither eigen nor transform,
# analyze adds eigen, gft and filter add transform, sample adds sampling, and
# fig1 and fig2 add experiments (which loads the other three)
if TYPE_CHECKING:
    from .eigen import SpectralDecomposition
    from .experiments import ExperimentConfig


class _Command(click.Command):
    """A command whose run maps a fault to its exit code: the one handler of every command."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except DirlapError as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(err.exit_code)  # SystemExit, so an in-process caller reads the code too
        except BrokenPipeError:
            raise  # a reader that closed stdout early: click ends the run quietly
        except (ValueError, OSError) as err:
            # an output path that cannot be written is a bad parameter, like a bad value
            raise click.UsageError(str(err), ctx) from err


class _Group(click.Group):
    """A group whose commands, and its subgroups' commands, are :class:`_Command`."""

    command_class = _Command
    group_class = type


class _Integer(click.types.IntParamType):
    """click's integer type, reading its value by the CSV readers' integer rule."""

    _number_class = staticmethod(lambda value: fileio.parse_number(value, int))


class _IntegerRange(click.IntRange, _Integer):
    """click's integer range, reading its value by the CSV readers' integer rule."""


class _Real(click.types.FloatParamType):
    """click's float type, reading its value by the CSV readers' float rule."""

    _number_class = staticmethod(lambda value: fileio.parse_number(value, float))


_INTEGER, _REAL = _Integer(), _Real()


def _load_decomposition(graph_path, n: int | None) -> SpectralDecomposition:
    """Read an edge list on ``n`` vertices (default: inferred) and decompose its directed Laplacian."""
    from .eigen import decompose

    return decompose(directed_laplacian(fileio.read_edge_list(graph_path, n)))


_vertex_count_option = click.option(
    "--n", type=_INTEGER, default=None,
    help="Vertex count [default: largest index + 1]; counts trailing isolated vertices.",
)


@click.group(cls=_Group)
@click.version_option(__version__)
def main():
    """Spectral analysis, filtering, and sampling on directed graphs."""


@main.command()
@click.argument("kind", type=click.Choice(["cycle", "perturbed-cycle"]))
@click.option("--n", type=_INTEGER, required=True, help="Vertex count.")
@click.option("--p", type=_REAL, default=0.2, show_default=True, help="Extra-edge probability.")
@click.option("--w", type=_REAL, default=0.8, show_default=True, help="Extra-edge weight.")
@click.option("--seed", type=_IntegerRange(min=0), default=0, show_default=True,
              help="Generator seed (PCG64).")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Edge CSV path (default stdout).")
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
def analyze(graph_path, n, out, fmt, spectrum_out):
    """Asymmetry/normality metrics and spectrum of a graph's Laplacian."""
    dec = _load_decomposition(graph_path, n)
    if spectrum_out is not None:
        fileio.write_spectrum(dec.lambdas, spectrum_out)
    fileio.write_metrics(dec, spectrum_out, fmt, out)


@main.command()
@click.argument("graph_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("signal_path", type=click.Path(exists=True, dir_okay=False))
@_vertex_count_option
@click.option("--direction", type=click.Choice(["forward", "inverse"]), default="forward", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="Output signal CSV.")
def gft(graph_path, signal_path, n, direction, out):
    """Graph Fourier transform of a signal (dual-basis analysis/synthesis)."""
    from .transform import forward, inverse

    dec = _load_decomposition(graph_path, n)
    sig = fileio.read_signal(signal_path)
    transform = forward if direction == "forward" else inverse
    fileio.write_signal(transform(sig, dec), out)


@main.command(name="filter")
@click.argument("graph_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("signal_path", type=click.Path(exists=True, dir_okay=False))
@_vertex_count_option
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Filter spec JSON (ideal or diagonal).")
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="Filtered signal CSV.")
def filter_cmd(graph_path, signal_path, n, spec_path, out):
    """Apply a diagonal spectral filter to a vertex signal."""
    from .transform import apply_filter

    dec = _load_decomposition(graph_path, n)
    response = fileio.read_filter_spec(spec_path, dec.n)
    sig = fileio.read_signal(signal_path)
    fileio.write_signal(apply_filter(sig, response, dec), out)


@main.command()
@click.argument("graph_path", type=click.Path(exists=True, dir_okay=False))
@_vertex_count_option
@click.option("--k", type=_INTEGER, required=True, help="Band size (lowest-|lambda| modes).")
@click.option("--m", type=_INTEGER, default=None, help="Sample budget for automatic selection.")
@click.option("--strategy", type=click.Choice(["greedy-gamma", "random"]), default="greedy-gamma",
              show_default=True)
@click.option("--seed", type=_IntegerRange(min=0), default=0, show_default=True,
              help="Seed for the random strategy.")
@click.option("--sample-set", default=None, help="Explicit comma-separated vertex list (overrides --m).")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Plan JSON (default stdout).")
@click.option("--signal", "signal_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Vertex signal CSV; restricted to the sample set and recovered.")
@click.option("--recover-out", type=click.Path(dir_okay=False), default=None,
              help="Recovered signal CSV (requires --signal).")
def sample(graph_path, n, k, m, strategy, seed, sample_set, out, signal_path, recover_out):
    """Plan a sampling set for a band and optionally recover a signal."""
    from .sampling import BandModel, plan_sampling, recover, select_sampling_set
    from .transform import _expect

    if signal_path is not None and recover_out is None:
        raise click.UsageError("--signal requires --recover-out")
    if recover_out is not None and signal_path is None:
        raise click.UsageError("--recover-out requires --signal")
    dec = _load_decomposition(graph_path, n)
    band = BandModel(dec, k)
    if sample_set is not None:
        try:
            # a blank token, as in "1,,2", is refused, not skipped
            vertices = [fileio.parse_number(tok, int) for tok in sample_set.split(",")]
        except ValueError as exc:
            raise click.UsageError(f"bad --sample-set: {exc}") from exc
    else:
        if m is None:
            raise click.UsageError("provide either --m or --sample-set")
        vertices = select_sampling_set(band, m, strategy=strategy, seed=seed)
    plan = plan_sampling(band, vertices)
    # the signal is read and recovered before either file is written, so a fault leaves neither
    recovered = None
    if signal_path is not None:
        sig = fileio.read_signal(signal_path)
        _expect(sig, dec.n)
        recovered = recover(plan, sig.values[plan.sample_set])
    fileio.write_plan(plan, out)
    if recovered is not None:
        fileio.write_signal(recovered, recover_out)


@main.group()
def experiment():
    """Reproducible comparison experiments on the cycle / perturbed-cycle pair."""


def _config_from(config_path, sigmas=None, **flags) -> ExperimentConfig:
    from .experiments import ExperimentConfig

    base = {} if config_path is None else fileio.read_json_object(config_path, "config")
    overrides = {key: val for key, val in flags.items() if val is not None}
    if sigmas is not None:
        try:
            overrides["sigmas"] = tuple(fileio.parse_number(t, float) for t in sigmas.split(","))
        except ValueError as exc:
            raise click.UsageError(f"bad --sigmas: {exc}") from exc
    try:
        return ExperimentConfig(**{**base, **overrides})
    except (TypeError, ValueError):
        # the file is at fault (exit 3) if its values are bad on their own, else a flag (exit 2)
        try:
            ExperimentConfig(**base)
        except (TypeError, ValueError) as exc:
            raise FileFormatError(f"bad config {config_path}: {exc}") from exc
        raise


class _ConfigOption(click.Option):
    """A config field's option; its help names the field's default when help is shown."""

    def get_help_record(self, ctx):
        from .experiments import ExperimentConfig

        opts, what = super().get_help_record(ctx)
        return opts, f"{what} [default: {getattr(ExperimentConfig, self.name)}]."


_config_options = [
    click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                 default=None, help="JSON config; explicit flags override it."),
    *(click.option(f"--{name}", cls=_ConfigOption, type=kind, default=None, help=what)
      for name, kind, what in (("n", _INTEGER, "Graph size"),
                               ("p", _REAL, "Perturbation probability"),
                               ("w", _REAL, "Perturbation weight"), ("k", _INTEGER, "Band size"),
                               ("trials", _INTEGER, "Trials per noise level"),
                               ("seed", _INTEGER, "Base seed"))),
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
def fig1(config_path, out_dir, **flags):
    """Spectrum and normality-metrics comparison (writes metrics + spectra)."""
    from .experiments import reference_pair

    config = _config_from(config_path, **flags)
    click.echo(str(fileio.write_spectrum_comparison(config, reference_pair(config), out_dir)))


@experiment.command()
@_add_options(_config_options)
@click.option("--sigmas", default=None, help="Comma-separated ascending noise levels.")
@click.option("--real-noise", is_flag=True, default=None, help="Real Gaussian noise instead of circular complex.")
@click.option("--out-dir", type=click.Path(file_okay=False), required=True)
def fig2(config_path, sigmas, out_dir, **flags):
    """Noise-sweep reconstruction error (writes trials.csv, summary.csv, bundle)."""
    from .experiments import run_noise_sweep

    config = _config_from(config_path, sigmas, **flags)
    click.echo(str(fileio.write_noise_sweep(config, run_noise_sweep(config), out_dir)))


if __name__ == "__main__":
    main()
