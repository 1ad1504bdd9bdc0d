"""Harmonic analysis on directed graphs via the combinatorial directed Laplacian.

The pipeline: build a directed graph, form ``L = D_out - A``, eigendecompose
it into a right basis and its dual (left) basis, then analyze, filter,
sample, and reconstruct signals while tracking how far non-normality pushes
the operator from the orthogonal ideal (Henrici departure, eigenvector
condition number, Gram-metric energy distortion, sampling stability
constants).
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatchError,
    DirlapError,
    FileFormatError,
    NearDefectiveError,
    RankDeficientError,
)
from .graphs import (
    DirectedGraph,
    adjacency,
    asymmetry_index,
    directed_laplacian,
    gen_directed_cycle,
    gen_perturbed_cycle,
    normality_departure,
)
from .eigen import (
    DcModeReport,
    SpectralDecomposition,
    dc_mode_check,
    decompose,
    gram_matrix,
    henrici_departure,
)
from .transform import (
    GraphSignal,
    SpectralFilter,
    TvBounds,
    apply_filter,
    energy_identity,
    forward,
    inverse,
    tv_bounds,
    vertex_signal,
)
from .sampling import (
    BandModel,
    SamplingPlan,
    make_band,
    noise_certificate,
    plan_sampling,
    recover,
    select_sampling_set,
    synthesize_bandlimited,
)
from .experiments import (
    ExperimentConfig,
    GraphReport,
    NoiseSweep,
    analyze_graph,
    run_noise_sweep,
    run_spectrum_comparison,
)

__all__ = [
    "__version__",
    # errors
    "DirlapError",
    "FileFormatError",
    "DimensionMismatchError",
    "NearDefectiveError",
    "RankDeficientError",
    # graphs
    "DirectedGraph",
    "adjacency",
    "directed_laplacian",
    "asymmetry_index",
    "normality_departure",
    "gen_directed_cycle",
    "gen_perturbed_cycle",
    # eigen
    "SpectralDecomposition",
    "DcModeReport",
    "decompose",
    "dc_mode_check",
    "gram_matrix",
    "henrici_departure",
    # transform
    "GraphSignal",
    "SpectralFilter",
    "TvBounds",
    "vertex_signal",
    "forward",
    "inverse",
    "energy_identity",
    "apply_filter",
    "tv_bounds",
    # sampling
    "BandModel",
    "SamplingPlan",
    "make_band",
    "synthesize_bandlimited",
    "plan_sampling",
    "recover",
    "noise_certificate",
    "select_sampling_set",
    # experiments
    "ExperimentConfig",
    "GraphReport",
    "NoiseSweep",
    "analyze_graph",
    "run_spectrum_comparison",
    "run_noise_sweep",
]
