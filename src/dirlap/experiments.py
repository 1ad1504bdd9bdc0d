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
    ascending grid of finite nonnegative ones. ``real_noise`` is a bool.
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
        # the documented range of trials; a cell holds four float64 entries a trial,
        # 128 GiB at 2**32 trials, so memory runs out long before the bound
        fields["trials"] = _scalar(self.trials, numbers.Integral, "trials", 1, 2**32 - 1)
        sigmas = tuple(_scalar(s, numbers.Real, "sigmas", 0, math.inf) for s in self.sigmas)
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


def _circular(re: np.ndarray, im: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Circular complex Gaussian variates with unit variance from their two parts, in ``out``.

    The same values as ``(re + 1j * im) / np.sqrt(2.0)``.
    """
    out.real, out.imag = re, im
    out /= np.sqrt(2.0)
    return out


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
    and three thin matrix products, O(n k) per trial. One block's
    arrays are allocated once per sweep and reused by every block.

    Raises:
        NonFiniteError: a trial's error or bound overflowed float64, as a
            ``sigma`` near ``1e154`` or above makes the noise norms do.
    """
    bands = {graph: BandModel(dec, config.k) for graph, dec in reference_pair(config).items()}
    k, n, trials = config.k, config.n, config.trials
    width = min(_block_trials(n), trials)
    # the draws, coefficients and noise of a block, one row per trial, then x0, y = x0 + eta
    # (which x_rec - x0 overwrites) and U_omega^* y, one column per trial
    z = np.empty((width, 2 * k + (n if config.real_noise else 2 * n)))
    coefficients = np.empty((width, k), dtype=np.complex128)
    noise = np.empty((width, n), dtype=np.float64 if config.real_noise else np.complex128)
    x0, y = (np.empty((n, width), dtype=np.complex128) for _ in range(2))
    xhat = np.empty((max(k, 2), width), dtype=np.complex128)
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
            err_abs, x0_norm, bound = (np.empty(trials) for _ in range(3))
            # an overflow is refused below, by name, in place of numpy's warnings
            with np.errstate(over="ignore", invalid="ignore"):
                for start in range(0, trials, width):
                    stop = min(start + width, trials)
                    # one call fills the block's rows in C order, so a trial's row does not
                    # depend on the block width
                    zb = generator.standard_normal(out=z[: stop - start])
                    # the block's rows and columns of each buffer, the first stop - start
                    c, eta = coefficients[: stop - start], noise[: stop - start]
                    x0_b, y_b, xhat_b = (a[:, : stop - start] for a in (x0, y, xhat))
                    np.matmul(v_omega, _circular(zb[:, :k], zb[:, k : 2 * k], c).T, out=x0_b)
                    if config.real_noise:
                        eta = np.multiply(zb[:, 2 * k :], sigma, out=eta).T
                    else:
                        eta = _circular(zb[:, 2 * k : 2 * k + n], zb[:, 2 * k + n :], eta)
                        eta = np.multiply(eta, sigma, out=eta).T
                    np.add(x0_b, eta, out=y_b)
                    np.matmul(uh_omega, y_b, out=xhat_b)
                    err_b = np.matmul(v_omega, xhat_b[:k], out=y_b)
                    err_b -= x0_b
                    err_abs[start:stop] = np.linalg.norm(err_b, axis=0)
                    x0_norm[start:stop] = np.linalg.norm(x0_b, axis=0)
                    bound[start:stop] = dec.kappa * np.linalg.norm(eta, axis=0)
                    bound[start:stop] /= x0_norm[start:stop]
            cell = SweepCell(graph=graph, sigma=sigma, err_l2=err_abs / x0_norm, err_abs=err_abs,
                             bound=bound)
            for name in ("err_l2", "bound"):
                if not np.all(np.isfinite(getattr(cell, name))):
                    raise NonFiniteError(f"{name} of the {graph} graph at sigma {sigma:g} "
                                         "overflowed float64")
            cells.append(cell)
    return NoiseSweep(bands=bands, cells=cells)
