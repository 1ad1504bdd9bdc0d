"""Harmonic analysis on directed graphs via the combinatorial directed Laplacian.

The pipeline: build a directed graph, form ``L = D_out - A``, eigendecompose
it into a right basis and its dual (left) basis, then analyze, filter,
sample, and reconstruct signals while tracking how far non-normality pushes
the operator from the orthogonal ideal (Henrici departure, eigenvector
condition number, Gram-metric energy distortion, sampling stability
constants).

Each public name is re-exported lazily (PEP 562): ``import dirlap`` loads no
submodule, and the first read of a name imports the one module that defines
it, so a command pays only for the modules it uses.
"""
import importlib

__version__ = "0.1.0"

#: the public names of each submodule, in the order of ``__all__``
_EXPORTS = {
    "errors": (
        "DirlapError",
        "FileFormatError",
        "DimensionMismatchError",
        "NearDefectiveError",
        "RankDeficientError",
        "NonFiniteError",
    ),
    "graphs": (
        "DirectedGraph",
        "adjacency",
        "directed_laplacian",
        "asymmetry_index",
        "normality_departure",
        "gen_directed_cycle",
        "gen_perturbed_cycle",
    ),
    "eigen": (
        "SpectralDecomposition",
        "decompose",
        "gram_matrix",
        "henrici_departure",
    ),
    "transform": (
        "GraphSignal",
        "TvBounds",
        "forward",
        "inverse",
        "energy_identity",
        "apply_filter",
        "tv_bounds",
    ),
    "sampling": (
        "BandModel",
        "SamplingPlan",
        "synthesize_bandlimited",
        "plan_sampling",
        "recover",
        "noise_certificate",
        "select_sampling_set",
    ),
    "experiments": (
        "ExperimentConfig",
        "NoiseSweep",
        "reference_pair",
        "run_noise_sweep",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value
