"""Reproducible normal-vs-non-normal comparison experiments.

Two reference topologies of the same size are compared: the plain directed
cycle (asymmetric but normal, perfectly conditioned eigenbasis) and a
perturbed cycle with random extra edges (non-normal, ill-conditioned).

``reference_pair`` decomposes both graphs' Laplacians; each decomposition
is the graph's one record, from which the writers read its spectrum and its
normality metrics (alpha, delta, Henrici departure and ``kappa(V)``).
``run_noise_sweep`` measures low-pass denoising error against
noise level: a ground-truth signal synthesized from the lowest ``k``
frequency modes is observed under additive Gaussian noise and reconstructed
by the ideal low-pass filter, the oblique projector ``P_omega = V_omega
U_omega^*`` onto the band: ``x_rec = V_omega (U_omega^* y)``, two thin
products of O(n k) per trial, with no n x n product. The per-trial error is
relative ell-2, reported next to the theoretical ceiling
``kappa(V) * ||eta|| / ||x0||``, so the gap between the two graphs' curves
exposes the conditioning penalty directly. The sweep keeps each graph's
band, whose ``BandModel.lowpass_gain``, ``||P_omega||_2``, is the filter's
exact worst-case noise gain: it bounds every trial's ``err_abs / ||eta||``
and ``kappa(V)`` bounds it in turn.

Every number is a pure function of the configuration: graph generation uses
the configured seed and each (graph, sigma) cell draws from its own PCG64
stream, seeded by ``SeedSequence(entropy=seed, spawn_key=(graph,
sigma_index))`` (graph 0 the cycle, 1 the perturbed cycle; ``sigma_index``
the place of sigma in the grid), so cells do not depend on each other or on
their order. Trial ``t`` of a cell takes row ``t`` of the cell's draws:
``2k`` variates for its coefficients, then ``2n`` (``n`` for real noise)
for its noise, so a trial keeps its values when ``trials`` grows. The
cell's trials run as blocks of at most ``BLOCK_ENTRIES // n`` trials (a
power of two, at least one), one trial per column, each block's variates
drawn in one call.

A sweep holds each cell's trials as arrays, one entry per trial. A cell
summarizes its trials on first read, with ``math.fsum``, so each mean
equals ``statistics.fmean`` over the cell's trials.
"""
from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .eigen import SpectralDecomposition, decompose
from .errors import NonFiniteError
from .graphs import (_PARAMETERS, _scalar, directed_laplacian, gen_directed_cycle,
                     gen_perturbed_cycle)
from .sampling import BandModel

GENERATOR_NAME = "PCG64"

DEFAULT_SIGMAS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5)

#: stable stream indices for the two reference graphs
_GRAPH_STREAM = {"cycle": 0, "perturbed": 1}

#: signal entries (trials x n) per block of the noise sweep at most, so a block's
#: draws and products stay small at every n; see _block_trials
BLOCK_ENTRIES = 2**15


@dataclass(frozen=True)
class ExperimentConfig:
    """The parameters of both experiments, each field kept as :func:`graphs._scalar` returns it.

    Integers: ``n`` in ``[2, MAX_VERTICES]``, ``seed`` nonnegative (as the
    generators take them), ``k`` in ``[1, n]``, ``trials`` in ``[1, 2**32 - 1]``.
    Reals: ``p`` in ``[0, 1]``, ``w`` finite and positive, ``sigmas`` a non-empty
    ascending grid of finite nonnegative ones, given as a sequence or a 1-D array
    (a scalar, ``None``, a mapping or a set is refused, and a string is one value
    that is not a number). ``real_noise`` is a bool.
    """

    n: int = 20
    p: float = 0.2
    w: float = 0.8
    k: int = 5
    sigmas: tuple[float, ...] = DEFAULT_SIGMAS
    trials: int = 200
    seed: int = 0
    real_noise: bool = False

    def __post_init__(self):
        fields = {name: _scalar(getattr(self, name), *spec) for name, spec in _PARAMETERS.items()}
        fields["k"] = _scalar(self.k, numbers.Integral, "k", 1, fields["n"])
        # the documented range of trials; a running cell holds five float64 entries a
        # trial, 160 GiB at 2**32 trials, so memory runs out long before the bound
        fields["trials"] = _scalar(self.trials, numbers.Integral, "trials", 1, 2**32 - 1)
        grid = self.sigmas
        if isinstance(grid, (str, bytes, bytearray)):
            grid = (grid,)  # one value that is not a number, not a grid of characters
        elif not (isinstance(grid, Sequence) or isinstance(grid, np.ndarray) and grid.ndim == 1):
            raise ValueError(f"sigmas must be a sequence of real numbers, got {grid!r}")
        sigmas = tuple(_scalar(s, numbers.Real, "sigmas", 0, math.inf) for s in grid)
        if not sigmas or list(sigmas) != sorted(sigmas):
            raise ValueError(f"sigmas must be a non-empty ascending grid, got {list(sigmas)}")
        if not isinstance(self.real_noise, bool):
            raise ValueError(f"real_noise must be true or false, got {self.real_noise!r}")
        for name, value in {**fields, "sigmas": sigmas}.items():
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["sigmas"] = list(self.sigmas)
        return d


#: the columns of a sweep summary row: the cell's graph and sigma, then its means and std
SUMMARY_FIELDS = ("graph", "sigma", "err_mean", "err_std", "err_abs_mean", "bound_mean")


@dataclass(frozen=True, eq=False)
class SweepCell:
    """The trials of one (graph, sigma) cell; entry ``t`` of each array is trial ``t``.

    The cell's summary, the means of ``err_l2``, ``err_abs`` and ``bound``
    and the population std of ``err_l2``, is computed on first read.
    """

    graph: str
    sigma: float
    err_l2: np.ndarray
    err_abs: np.ndarray
    bound: np.ndarray

    @functools.cached_property
    def err_mean(self) -> float:
        return _fmean(self.err_l2)

    @functools.cached_property
    def err_std(self) -> float:
        # float_power squares through libm pow, as Python's ``**`` does, so err_std is
        # exactly sqrt(fmean([(e - mean) ** 2 for e in err_l2])); a square past float64
        # makes it inf, which the bundle writer refuses by name
        with np.errstate(over="ignore"):
            squares = np.float_power(self.err_l2 - self.err_mean, 2.0)
        return math.sqrt(_fmean(squares))

    @functools.cached_property
    def err_abs_mean(self) -> float:
        return _fmean(self.err_abs)

    @functools.cached_property
    def bound_mean(self) -> float:
        return _fmean(self.bound)


@dataclass(frozen=True, eq=False)
class NoiseSweep:
    """Each reference graph's band, with its ``decomposition`` and its ``lowpass_gain``
    (``||P_omega||_2``, computed on first read), and the sweep's cells in order."""

    bands: dict[str, BandModel]
    cells: list[SweepCell]


def reference_pair(config: ExperimentConfig) -> dict[str, SpectralDecomposition]:
    """The decompositions of the cycle / perturbed-cycle pair the experiments compare."""
    graphs = {
        "cycle": gen_directed_cycle(config.n),
        "perturbed": gen_perturbed_cycle(config.n, config.p, config.w, config.seed),
    }
    return {name: decompose(directed_laplacian(g)) for name, g in graphs.items()}


def _block_trials(n: int) -> int:
    """Trials per block of the noise sweep at ``n`` vertices.

    The largest power of two not above ``BLOCK_ENTRIES // n``, and at least 1.
    A BLAS matrix product may round a column by its place in the kernel's
    panel of a few columns. A block of any power of two trials starts at a
    multiple of every smaller power of two, so each trial keeps its place in
    every panel no wider than the block, and the sweep's values do not
    depend on which power of two the block is.
    """
    return 1 << (max(1, BLOCK_ENTRIES // n).bit_length() - 1)


def _fmean(values: np.ndarray) -> float:
    """The mean of ``values`` as ``statistics.fmean`` computes it: ``fsum`` over the count.

    Where the sum overflows float64 and ``fmean`` would raise, the values
    are divided by the count first; the mean of finite values is finite.
    """
    try:
        return math.fsum(values.tolist()) / values.size
    except OverflowError:
        return math.fsum((values / values.size).tolist())


def run_noise_sweep(config: ExperimentConfig) -> NoiseSweep:
    """Low-pass denoising error versus noise level, cycle vs perturbed cycle.

    Per trial: draw band coefficients ``c ~ CN(0, I)``, synthesize
    ``x0 = V_omega c``, observe ``y = x0 + eta`` with per-entry variance
    ``sigma^2`` (circular complex Gaussian, or real Gaussian when
    ``real_noise`` is set), reconstruct with the ideal low-pass projector
    ``x_rec = V_omega (U_omega^* y)``, and record the relative error
    alongside its theoretical ceiling.

    A (graph, sigma) cell's trials run in blocks of ``_block_trials(n)``,
    one column per trial, so each block is one draw from the cell's stream
    and three thin matrix products, O(n k) per trial.

    Raises:
        NonFiniteError: a trial's error or bound overflowed float64, as a
            ``sigma`` near ``1e154`` or above makes the noise norms do.
    """
    bands = {graph: BandModel(dec, config.k) for graph, dec in reference_pair(config).items()}
    k, n, trials = config.k, config.n, config.trials
    width = _block_trials(n)
    cells: list[SweepCell] = []
    for graph, band in bands.items():
        dec, v_omega = band.decomposition, band.v_omega
        # U_omega^*, the first k rows of U^*; at k = 1 a second, unused row keeps numpy
        # on BLAS gemm, as at every other k, where one row would take gemv, which rounds
        # differently
        uh_omega = np.ascontiguousarray(dec.u[:, : max(k, 2)].conj().T)
        for sigma_index, sigma in enumerate(config.sigmas):
            generator = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
                entropy=config.seed, spawn_key=(_GRAPH_STREAM[graph], sigma_index))))
            err_abs, x0_norm, eta_norm = (np.empty(trials) for _ in range(3))
            # an overflow is refused below, by name, in place of numpy's warnings
            with np.errstate(over="ignore", invalid="ignore"):
                for start in range(0, trials, width):
                    # one call draws the block's rows in C order, one row per trial, so a
                    # trial's row does not depend on the block width
                    z = generator.standard_normal(
                        (min(width, trials - start), 2 * k + (n if config.real_noise else 2 * n)))
                    c = (z[:, :k] + 1j * z[:, k : 2 * k]) / np.sqrt(2.0)
                    if config.real_noise:
                        eta = z[:, 2 * k :] * sigma
                    else:
                        eta = (z[:, 2 * k : 2 * k + n] + 1j * z[:, 2 * k + n :]) / np.sqrt(2.0) * sigma
                    # x0 and x_rec - x0 one column per trial; eta one row per trial
                    x0 = v_omega @ c.T
                    err = v_omega @ (uh_omega @ (x0 + eta.T))[:k] - x0
                    block = slice(start, start + len(z))
                    err_abs[block] = np.linalg.norm(err, axis=0)
                    x0_norm[block] = np.linalg.norm(x0, axis=0)
                    eta_norm[block] = np.linalg.norm(eta, axis=1)
                cell = SweepCell(graph=graph, sigma=sigma, err_l2=err_abs / x0_norm,
                                 err_abs=err_abs, bound=dec.kappa * eta_norm / x0_norm)
            for name in ("err_l2", "bound"):
                if not np.all(np.isfinite(getattr(cell, name))):
                    raise NonFiniteError(f"{name} of the {graph} graph at sigma {sigma:g} "
                                         "overflowed float64")
            cells.append(cell)
    return NoiseSweep(bands=bands, cells=cells)
