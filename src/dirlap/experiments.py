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
by ideal low-pass filtering in the spectral domain. The per-trial error is
relative ell-2, reported next to the theoretical ceiling
``kappa(V) * ||eta|| / ||x0||``, so the gap between the two graphs' curves
exposes the conditioning penalty directly.

Every number is a pure function of the configuration: graph generation uses
the configured seed and each (graph, sigma, trial) draws from its own PCG64
stream, seeded by ``SeedSequence(entropy=seed, spawn_key=(graph, sigma,
trial))``, so results do not depend on execution order. The seed hash is
replayed once per (graph, sigma) cell, and the cell's trials run as blocks
of at most ``BLOCK_ENTRIES // n`` trials (a power of two, at least one), one
trial per column; the seeds of a block's streams are computed together from
the cell's replay, and each trial still draws all its variates from its own
stream. This needs ``trials < 2**32``.

A sweep holds each cell's trials as arrays, one entry per trial. A cell
summarizes its trials on first read, with ``math.fsum``, so each mean
equals ``statistics.fmean`` over the cell's trials.
"""
from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .eigen import SpectralDecomposition, decompose
from .errors import NonFiniteError
from .graphs import MAX_VERTICES, directed_laplacian, gen_directed_cycle, gen_perturbed_cycle
from .sampling import make_band
from .transform import SpectralFilter, _filter_values, _is_a

GENERATOR_NAME = "PCG64"

DEFAULT_SIGMAS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5)

#: stable stream indices for the two reference graphs
_GRAPH_STREAM = {"cycle": 0, "perturbed": 1}

#: signal entries (trials x n) per block of the noise sweep at most, so a block's
#: draws and products stay small at every n; see _block_trials
BLOCK_ENTRIES = 2**15


#: the type of each scalar field of :class:`ExperimentConfig`, checked before its value
_FIELD_KINDS = (
    ("n", numbers.Integral, "an integer"),
    ("k", numbers.Integral, "an integer"),
    ("trials", numbers.Integral, "an integer"),
    ("seed", numbers.Integral, "an integer"),
    ("p", numbers.Real, "a real number"),
    ("w", numbers.Real, "a real number"),
    ("real_noise", bool, "true or false"),
)


@dataclass(frozen=True)
class ExperimentConfig:
    n: int = 20
    p: float = 0.2
    w: float = 0.8
    k: int = 5
    sigmas: tuple[float, ...] = DEFAULT_SIGMAS
    trials: int = 200
    seed: int = 0
    real_noise: bool = False

    def __post_init__(self):
        for name, kind, what in _FIELD_KINDS:
            value = getattr(self, name)
            if not _is_a(value, kind):
                raise ValueError(f"{name} must be {what}, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.n > MAX_VERTICES:
            raise ValueError(f"n must be at most MAX_VERTICES = {MAX_VERTICES}, got {self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if not 0.0 < self.w <= sys.float_info.max:  # false for NaN and for ints beyond float64
            raise ValueError(f"w must be finite and positive, got {self.w}")
        if not 1 <= self.k <= self.n:
            raise ValueError("k must lie in [1, n]")
        sigmas = tuple(self.sigmas)
        if not all(_is_a(s, numbers.Real) for s in sigmas):
            raise ValueError(f"sigmas must be real numbers, got {self.sigmas!r}")
        try:
            sigmas = tuple(float(s) for s in sigmas)
        except OverflowError:  # an int beyond float64
            raise ValueError(f"sigmas must be finite, got {list(sigmas)}") from None
        if not sigmas:
            raise ValueError("sigma grid must not be empty")
        if not all(math.isfinite(s) for s in sigmas):
            raise ValueError(f"sigmas must be finite, got {list(sigmas)}")
        if any(s < 0 for s in sigmas) or list(sigmas) != sorted(sigmas):
            raise ValueError("sigmas must be nonnegative and ascending")
        object.__setattr__(self, "sigmas", sigmas)
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.trials >= 2**32:
            # the trial index is one 32-bit word of its stream's seed key (see _trial_seeds)
            raise ValueError("trials must be below 2**32")

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
    decompositions: dict[str, SpectralDecomposition]
    cells: list[SweepCell]


def reference_pair(config: ExperimentConfig) -> dict[str, SpectralDecomposition]:
    """The decompositions of the cycle / perturbed-cycle pair the experiments compare."""
    graphs = {
        "cycle": gen_directed_cycle(config.n),
        "perturbed": gen_perturbed_cycle(config.n, config.p, config.w, config.seed),
    }
    return {name: decompose(directed_laplacian(g)) for name, g in graphs.items()}


#: SeedSequence's hash constants (O'Neill's seed_seq_fe), stable under NumPy's NEP 19
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, calls: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constant before and after each of ``count`` steps that follow ``calls`` steps."""
    hash_const = init * pow(mult, calls, 1 << 32) & _MASK32
    before, after = [], []
    for _ in range(count):
        before.append(hash_const)
        hash_const = hash_const * mult & _MASK32
        after.append(hash_const)
    return np.array(before, np.uint32), np.array(after, np.uint32)


def _trial_seeds(seed: int, graph: int, sigma_index: int) -> Callable[[range], np.ndarray]:
    """The seed replay of one (graph, sigma) cell.

    The returned function maps a range of trials (each below ``2**32``) to
    ``SeedSequence(entropy=seed, spawn_key=(graph, sigma_index, t)).generate_state(4, np.uint64)``
    for every ``t`` in it, one row per trial.

    The parent ``SeedSequence(entropy=seed, spawn_key=(graph, sigma_index))``
    holds in its ``pool`` the mixer state every child reaches before its
    trial word, the last word of its entropy, is mixed in. That pool and the
    hash constants are computed here, once per cell; each call replays what
    is left over its trial column: the four ``hashmix``/``mix`` steps of the
    trial word, then ``generate_state``'s hash of the pool into eight 32-bit
    words.
    """
    parent = np.random.SeedSequence(entropy=seed, spawn_key=(graph, sigma_index))
    # the parent's entropy: the seed's 32-bit words, padded to the pool size 4, then the key;
    # mixing it took 16 hashmix steps for the first four words and 4 for each further word
    words = max(-(-int(seed).bit_length() // 32), 4) + 2
    before_a, after_a = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * (words - 4), 4)
    pool = np.array([_MIX_MULT_L * int(word) & _MASK32 for word in parent.pool], np.uint32)
    mult_r = np.uint32(_MIX_MULT_R)
    before_b, after_b = _hash_constants(_INIT_B, _MULT_B, 0, 8)
    shift = np.uint32(16)

    def rows(trials: range) -> np.ndarray:
        hashed = np.arange(trials.start, trials.stop, dtype=np.uint32)[:, None] ^ before_a
        hashed *= after_a
        hashed ^= hashed >> shift
        hashed *= mult_r
        mixer = pool - hashed
        mixer ^= mixer >> shift
        state = np.tile(mixer, 2) ^ before_b
        state *= after_b
        state ^= state >> shift
        # little-endian pairs of 32-bit words, as generate_state(4, np.uint64) returns them
        return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)

    return rows


@functools.cache
def _seed_row_type() -> type:
    """``_SeedRow``, defined on first use so that start-up does not import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class _SeedRow(ISeedSequence):
        """One trial's seed words, as numpy's ``ISeedSequence`` interface hands them to PCG64."""

        __slots__ = ("state",)

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            assert n_words == 4 and dtype == np.uint64, "PCG64 asks for four 64-bit words"
            return self.state

    return _SeedRow


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


def _cell_draws(
    config: ExperimentConfig, seeds: Callable[[range], np.ndarray], trials: range
) -> np.ndarray:
    """Standard normal variates of a block of trials, one row per trial.

    Each trial draws ``2k`` variates for its coefficients and ``2n`` (``n``
    for real noise) for its noise in one call on its own PCG64 stream, the
    one ``SeedSequence(entropy=seed, spawn_key=(graph, sigma_index, trial))``
    seeds. ``seeds`` is the cell's replay from ``_trial_seeds``.
    """
    seed_row, generator, pcg64 = _seed_row_type(), np.random.Generator, np.random.PCG64
    noise = config.n if config.real_noise else 2 * config.n
    z = np.empty((len(trials), 2 * config.k + noise))
    for row, seed in zip(z, seeds(trials)):
        generator(pcg64(seed_row(seed))).standard_normal(out=row)
    return z


def _circular(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Circular complex Gaussian variates with unit variance from their two parts."""
    return (re + 1j * im) / np.sqrt(2.0)


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
    ``real_noise`` is set), reconstruct with the ideal low-pass projector,
    and record the relative error alongside its theoretical ceiling.

    The seeds of a (graph, sigma) cell are replayed once per cell, and its
    trials run in blocks of ``_block_trials(n)``, one column per trial, so
    each block is a few dense matrix products.

    Raises:
        NonFiniteError: a trial's error or bound overflowed float64, as a
            ``sigma`` near ``1e154`` or above makes the noise norms do.
    """
    decompositions = reference_pair(config)
    k, n = config.k, config.n
    block_trials = _block_trials(n)
    cells: list[SweepCell] = []
    for graph, dec in decompositions.items():
        band = make_band(dec, k)
        low_pass = SpectralFilter.ideal(band.omega, n)
        for sigma_index, sigma in enumerate(config.sigmas):
            seeds = _trial_seeds(config.seed, _GRAPH_STREAM[graph], sigma_index)
            err_abs, x0_norm, bound = [], [], []
            # an overflow is refused below, by name, in place of numpy's warnings
            with np.errstate(over="ignore", invalid="ignore"):
                for start in range(0, config.trials, block_trials):
                    block = range(start, min(start + block_trials, config.trials))
                    z = _cell_draws(config, seeds, block)
                    x0 = band.v_omega @ _circular(z[:, :k], z[:, k : 2 * k]).T
                    if config.real_noise:
                        eta = sigma * z[:, 2 * k :].T
                    else:
                        eta = sigma * _circular(z[:, 2 * k : 2 * k + n], z[:, 2 * k + n :]).T
                    x_rec = _filter_values(x0 + eta, low_pass.response, dec)
                    err_abs.append(np.linalg.norm(x_rec - x0, axis=0))
                    x0_norm.append(np.linalg.norm(x0, axis=0))
                    bound.append(dec.kappa * np.linalg.norm(eta, axis=0) / x0_norm[-1])
            err = np.concatenate(err_abs)
            cell = SweepCell(graph=graph, sigma=sigma, err_l2=err / np.concatenate(x0_norm),
                             err_abs=err, bound=np.concatenate(bound))
            for name in ("err_l2", "bound"):
                if not np.all(np.isfinite(getattr(cell, name))):
                    raise NonFiniteError(f"{name} of the {graph} graph at sigma {sigma:g} "
                                         "overflowed float64")
            cells.append(cell)
    return NoiseSweep(decompositions=decompositions, cells=cells)
