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
stream spawned from that seed, so results do not depend on execution order.
The trials of a (graph, sigma) cell run as blocks, one trial per column, but
each trial still draws all its variates from its own stream.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from statistics import fmean

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
        for name in ("n", "k", "trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
        sigmas = tuple(float(s) for s in self.sigmas)
        if not sigmas:
            raise ValueError("sigma grid must not be empty")
        if not all(math.isfinite(s) for s in sigmas):
            raise ValueError(f"sigmas must be finite, got {list(sigmas)}")
        if any(s < 0 for s in sigmas) or list(sigmas) != sorted(sigmas):
            raise ValueError("sigmas must be nonnegative and ascending")
        object.__setattr__(self, "sigmas", sigmas)
        if self.trials < 1:
            raise ValueError("trials must be positive")

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


@dataclass(frozen=True)
class TrialRow:
    sigma: float
    trial: int
    graph: str
    err_l2: float
    err_abs: float
    bound: float


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
    trials: list[TrialRow]
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


def _cell_draws(
    config: ExperimentConfig, graph: str, sigma_index: int, trials: range
) -> np.ndarray:
    """Standard normal variates of a block of trials, one row per trial.

    Each trial draws ``2k`` variates for its coefficients and ``2n`` (``n``
    for real noise) for its noise in one call on its own PCG64 stream.
    """
    noise = config.n if config.real_noise else 2 * config.n
    z = np.empty((len(trials), 2 * config.k + noise))
    for row, trial in zip(z, trials):
        seq = np.random.SeedSequence(
            entropy=config.seed, spawn_key=(_GRAPH_STREAM[graph], sigma_index, trial)
        )
        np.random.default_rng(seq).standard_normal(out=row)
    return z


def _circular(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Circular complex Gaussian variates with unit variance from their two parts."""
    return (re + 1j * im) / np.sqrt(2.0)


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
    trials: list[TrialRow] = []
    summary: list[SummaryRow] = []
    for graph, (report, dec) in pair.items():
        band = make_band(dec, k)
        low_pass = SpectralFilter.ideal(band.omega, n)
        for sigma_index, sigma in enumerate(config.sigmas):
            cell: list[TrialRow] = []
            for start in range(0, config.trials, TRIAL_BLOCK):
                block = range(start, min(start + TRIAL_BLOCK, config.trials))
                z = _cell_draws(config, graph, sigma_index, block)
                x0 = band.v_omega @ _circular(z[:, :k], z[:, k : 2 * k]).T
                if config.real_noise:
                    eta = sigma * z[:, 2 * k :].T
                else:
                    eta = sigma * _circular(z[:, 2 * k : 2 * k + n], z[:, 2 * k + n :]).T
                x_rec = _filter_values(x0 + eta, low_pass.response, dec)
                err_abs = np.linalg.norm(x_rec - x0, axis=0)
                x0_norm = np.linalg.norm(x0, axis=0)
                bound = dec.kappa * np.linalg.norm(eta, axis=0) / x0_norm
                cell.extend(
                    TrialRow(sigma=sigma, trial=t, graph=graph, err_l2=e / x, err_abs=e, bound=b)
                    for t, e, x, b in zip(block, err_abs.tolist(), x0_norm.tolist(), bound.tolist())
                )
            trials.extend(cell)
            errs = [t.err_l2 for t in cell]
            mean = fmean(errs)
            summary.append(
                SummaryRow(
                    graph=graph,
                    sigma=sigma,
                    err_mean=mean,
                    err_std=float(np.sqrt(fmean([(e - mean) ** 2 for e in errs]))),
                    err_abs_mean=fmean([t.err_abs for t in cell]),
                    bound_mean=fmean([t.bound for t in cell]),
                )
            )
    return NoiseSweep(
        reports={k: rep for k, (rep, _) in pair.items()},
        trials=trials,
        summary=summary,
    )
