import ast

import pytest

import dirlap


#: the public API; adding or removing a name is an edit of this list
PUBLIC_NAMES = [
    "__version__",
    "DirlapError", "FileFormatError", "DimensionMismatchError", "NearDefectiveError",
    "RankDeficientError", "NonFiniteError",
    "DirectedGraph", "adjacency", "directed_laplacian", "asymmetry_index",
    "normality_departure", "gen_directed_cycle", "gen_perturbed_cycle",
    "SpectralDecomposition", "decompose", "gram_matrix", "henrici_departure",
    "GraphSignal", "TvBounds", "forward", "inverse", "energy_identity",
    "apply_filter", "tv_bounds",
    "BandModel", "SamplingPlan", "synthesize_bandlimited", "plan_sampling", "recover",
    "noise_certificate", "select_sampling_set",
    "ExperimentConfig", "NoiseSweep", "reference_pair", "run_noise_sweep",
]


def test_public_names_are_pinned():
    assert dirlap.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    # `from dirlap import *` fails on a name listed in __all__ but not imported
    missing = [name for name in dirlap.__all__ if not hasattr(dirlap, name)]
    assert missing == []
    assert len(set(dirlap.__all__)) == len(dirlap.__all__)
    namespace = {}
    exec("from dirlap import *", namespace)
    assert set(dirlap.__all__) <= set(namespace)


def _loaded_after(fresh_python, code: str) -> list[str]:
    """The ``dirlap`` modules a fresh interpreter holds after running ``code``."""
    done = fresh_python(
        "-c", f"import sys; {code}; print(sorted(m for m in sys.modules if m.startswith('dirlap')))",
        check=True,
    )
    return ast.literal_eval(done.stdout)


def test_names_are_loaded_on_first_read(fresh_python):
    assert _loaded_after(fresh_python, "import dirlap") == ["dirlap"]
    # eigen needs errors and graphs (its unit scale) only; experiments stays unloaded
    # until one of its names is read
    assert _loaded_after(fresh_python, "import dirlap; dirlap.decompose") == [
        "dirlap", "dirlap.eigen", "dirlap.errors", "dirlap.graphs"]
    assert _loaded_after(fresh_python, "import dirlap; dirlap.henrici_departure") == [
        "dirlap", "dirlap.eigen", "dirlap.errors", "dirlap.graphs"]
    assert "dirlap.experiments" in _loaded_after(fresh_python, "from dirlap import run_noise_sweep")


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'decomposition'"):
        dirlap.decomposition  # noqa: B018
    with pytest.raises(AttributeError, match="no attribute 'make_band'"):
        dirlap.make_band  # noqa: B018
    with pytest.raises(AttributeError, match="no attribute 'vertex_signal'"):
        dirlap.vertex_signal  # noqa: B018
    with pytest.raises(AttributeError, match="no attribute 'SpectralFilter'"):
        dirlap.SpectralFilter  # noqa: B018
