"""Reproducible normal-vs-non-normal comparison experiments.

Two reference topologies of the same size are compared: the plain directed
cycle (asymmetric but normal, perfectly conditioned eigenbasis) and a
perturbed cycle with random extra edges (non-normal, ill-conditioned).

``run_spectrum_comparison`` collects spectra and the normality metrics for
both graphs. ``run_noise_sweep`` measures low-pass denoising error against
noise level: a ground-truth signal synthesized from the lowest ``k``
frequency modes is observed under additive Gaussian noise and reconstructed
by ideal low-pass filtering in the spectral domain. The per-trial error is
relative ell-2, reported next to the theoretical ceiling
``kappa(V) * ||eta|| / ||x0||``, so the gap between the two graphs' curves
exposes the conditioning penalty directly.

Every number is a pure function of the configuration: graph generation uses
the configured seed and each (graph, sigma, trial) draws from its own PCG64
stream, seeded by ``SeedSequence(entropy=seed, spawn_key=(graph, sigma,
trial))``, so results do not depend on execution order. The trials of a
(graph, sigma) cell run as blocks, one trial per column. The seeds of a
block's streams are computed together, and each trial still draws all its
variates from its own stream; this needs ``trials < 2**32``.

A sweep holds each cell's trials as arrays, one entry per trial, and
summarizes a cell with ``math.fsum``, so each mean equals
``statistics.fmean`` over the cell's trials.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .eigen import SpectralDecomposition, decompose, henrici_departure
from .graphs import (
    asymmetry_index,
    directed_laplacian,
    gen_directed_cycle,
    gen_perturbed_cycle,
    normality_departure,
)
from .sampling import make_band
from .transform import SpectralFilter, _filter_values

GENERATOR_NAME = "PCG64"

DEFAULT_SIGMAS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5)

#: stable stream indices for the two reference graphs
_GRAPH_STREAM = {"cycle": 0, "perturbed": 1}

#: trials per block of the noise sweep; a block's draws and products stay small
TRIAL_BLOCK = 128


def _is_a(value, kind) -> bool:
    """Whether ``value`` is a ``kind``; a bool is a bool only, never a number."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


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
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if not (math.isfinite(self.w) and self.w > 0.0):
            raise ValueError(f"w must be finite and positive, got {self.w}")
        if not 1 <= self.k <= self.n:
            raise ValueError("k must lie in [1, n]")
        sigmas = tuple(self.sigmas)
        if not all(_is_a(s, numbers.Real) for s in sigmas):
            raise ValueError(f"sigmas must be real numbers, got {self.sigmas!r}")
        sigmas = tuple(float(s) for s in sigmas)
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


@dataclass(frozen=True, eq=False)
class GraphReport:
    """Normality metrics of one graph (the spectrum-comparison data product)."""

    alpha: float
    delta: float
    henrici: float
    kappa: float
    lambdas: np.ndarray


@dataclass(frozen=True, eq=False)
class SweepCell:
    """The trials of one (graph, sigma) cell; entry ``t`` of each array is trial ``t``."""

    graph: str
    sigma: float
    err_l2: np.ndarray
    err_abs: np.ndarray
    bound: np.ndarray


@dataclass(frozen=True)
class SummaryRow:
    graph: str
    sigma: float
    err_mean: float
    err_std: float
    err_abs_mean: float
    bound_mean: float


@dataclass(frozen=True, eq=False)
class NoiseSweep:
    reports: dict[str, GraphReport]
    cells: list[SweepCell]
    summary: list[SummaryRow]


def analyze_graph(dec: SpectralDecomposition) -> GraphReport:
    """Normality metrics of the Laplacian a decomposition was built from."""
    lap = dec.matrix
    return GraphReport(
        alpha=asymmetry_index(lap),
        delta=normality_departure(lap),
        henrici=henrici_departure(dec),
        kappa=dec.kappa,
        lambdas=dec.lambdas,
    )


def reference_pair(config: ExperimentConfig) -> dict[str, tuple[GraphReport, SpectralDecomposition]]:
    """The cycle / perturbed-cycle pair the experiments compare."""
    graphs = {
        "cycle": gen_directed_cycle(config.n),
        "perturbed": gen_perturbed_cycle(config.n, config.p, config.w, config.seed),
    }
    pair = {}
    for name, g in graphs.items():
        dec = decompose(directed_laplacian(g))
        pair[name] = (analyze_graph(dec), dec)
    return pair


def run_spectrum_comparison(config: ExperimentConfig) -> dict[str, GraphReport]:
    """The normality metrics and spectrum of each graph of the reference pair."""
    return {name: report for name, (report, _) in reference_pair(config).items()}


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


def _trial_seeds(seed: int, graph: int, sigma_index: int, trials: range) -> np.ndarray:
    """``SeedSequence(entropy=seed, spawn_key=(graph, sigma_index, t)).generate_state(4, np.uint64)``
    for every ``t`` in ``trials`` (each below ``2**32``), one row per trial.

    The parent ``SeedSequence(entropy=seed, spawn_key=(graph, sigma_index))``
    holds in its ``pool`` the mixer state every child reaches before its
    trial word, the last word of its entropy, is mixed in. What is left is
    replayed over the trial column: the four ``hashmix``/``mix`` steps of that
    word, then ``generate_state``'s hash of the pool into eight 32-bit words.
    """
    parent = np.random.SeedSequence(entropy=seed, spawn_key=(graph, sigma_index))
    # the parent's entropy: the seed's 32-bit words, padded to the pool size 4, then the key;
    # mixing it took 16 hashmix steps for the first four words and 4 for each further word
    words = max(-(-int(seed).bit_length() // 32), 4) + 2
    before, after = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * (words - 4), 4)
    shift = np.uint32(16)
    t = np.arange(trials.start, trials.stop, dtype=np.uint32)[:, None]
    hashed = (t ^ before) * after
    hashed ^= hashed >> shift
    pool = np.array([_MIX_MULT_L * int(word) & _MASK32 for word in parent.pool], np.uint32)
    mixer = pool - np.uint32(_MIX_MULT_R) * hashed
    mixer ^= mixer >> shift
    before, after = _hash_constants(_INIT_B, _MULT_B, 0, 8)
    state = (np.tile(mixer, 2) ^ before) * after
    state ^= state >> shift
    # little-endian pairs of 32-bit words, as generate_state(4, np.uint64) returns them
    return state[:, 0::2].astype(np.uint64) | state[:, 1::2].astype(np.uint64) << np.uint64(32)


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


def _cell_draws(
    config: ExperimentConfig, graph: str, sigma_index: int, trials: range
) -> np.ndarray:
    """Standard normal variates of a block of trials, one row per trial.

    Each trial draws ``2k`` variates for its coefficients and ``2n`` (``n``
    for real noise) for its noise in one call on its own PCG64 stream, the
    one ``SeedSequence(entropy=seed, spawn_key=(graph, sigma_index, trial))``
    seeds. The seeds of the block are computed together by ``_trial_seeds``.
    """
    seed_row, generator, pcg64 = _seed_row_type(), np.random.Generator, np.random.PCG64
    noise = config.n if config.real_noise else 2 * config.n
    z = np.empty((len(trials), 2 * config.k + noise))
    seeds = _trial_seeds(config.seed, _GRAPH_STREAM[graph], sigma_index, trials)
    for row, seed in zip(z, seeds):
        generator(pcg64(seed_row(seed))).standard_normal(out=row)
    return z


def _circular(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Circular complex Gaussian variates with unit variance from their two parts."""
    return (re + 1j * im) / np.sqrt(2.0)


def _fmean(values: np.ndarray) -> float:
    """The mean of ``values`` as ``statistics.fmean`` computes it: ``fsum`` over the count."""
    return math.fsum(values.tolist()) / values.size


def _summarize(cell: SweepCell) -> SummaryRow:
    mean = _fmean(cell.err_l2)
    # float_power squares through libm pow, as Python's ``**`` does, so err_std is
    # exactly sqrt(fmean([(e - mean) ** 2 for e in err_l2]))
    return SummaryRow(
        graph=cell.graph,
        sigma=cell.sigma,
        err_mean=mean,
        err_std=math.sqrt(_fmean(np.float_power(cell.err_l2 - mean, 2.0))),
        err_abs_mean=_fmean(cell.err_abs),
        bound_mean=_fmean(cell.bound),
    )


def run_noise_sweep(config: ExperimentConfig) -> NoiseSweep:
    """Low-pass denoising error versus noise level, cycle vs perturbed cycle.

    Per trial: draw band coefficients ``c ~ CN(0, I)``, synthesize
    ``x0 = V_omega c``, observe ``y = x0 + eta`` with per-entry variance
    ``sigma^2`` (circular complex Gaussian, or real Gaussian when
    ``real_noise`` is set), reconstruct with the ideal low-pass projector,
    and record the relative error alongside its theoretical ceiling.

    The trials of a (graph, sigma) cell run in blocks of ``TRIAL_BLOCK``,
    one column per trial, so each block is a few dense matrix products.
    """
    pair = reference_pair(config)
    k, n = config.k, config.n
    cells: list[SweepCell] = []
    for graph, (report, dec) in pair.items():
        band = make_band(dec, k)
        low_pass = SpectralFilter.ideal(band.omega, n)
        for sigma_index, sigma in enumerate(config.sigmas):
            err_abs, x0_norm, bound = [], [], []
            for start in range(0, config.trials, TRIAL_BLOCK):
                block = range(start, min(start + TRIAL_BLOCK, config.trials))
                z = _cell_draws(config, graph, sigma_index, block)
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
            cells.append(SweepCell(graph=graph, sigma=sigma, err_l2=err / np.concatenate(x0_norm),
                                   err_abs=err, bound=np.concatenate(bound)))
    return NoiseSweep(
        reports={name: rep for name, (rep, _) in pair.items()},
        cells=cells,
        summary=[_summarize(cell) for cell in cells],
    )
