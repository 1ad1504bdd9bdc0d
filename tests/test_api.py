import ast
import sys
from pathlib import Path

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
    "TvBounds", "forward", "inverse", "energy_identity",
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
    with pytest.raises(AttributeError, match="no attribute 'GraphSignal'"):
        dirlap.GraphSignal  # noqa: B018


def _graph_signal_mentions(tree: ast.AST) -> list[str]:
    """Each node of ``tree`` that names ``GraphSignal``, unparsed (a class definition by its header)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            named = node.name == "GraphSignal"
        elif isinstance(node, ast.Name):
            named = node.id == "GraphSignal"
        elif isinstance(node, ast.Attribute):
            named = node.attr == "GraphSignal"
        elif isinstance(node, ast.alias):
            named = node.name == "GraphSignal"
        elif isinstance(node, ast.Constant):
            named = isinstance(node.value, str) and "GraphSignal" in node.value
        else:
            continue
        if named:
            found.append(f"class {node.name}" if isinstance(node, ast.ClassDef) else ast.unparse(node))
    return found


def test_signal_record_is_named_by_its_definition_only():
    # a signal is a complex array: no library function builds, takes, returns or exports
    # the GraphSignal record, which only perfbench's tracer still times
    mentions = {}
    for path in sorted(Path(dirlap.__file__).parent.glob("*.py")):
        found = _graph_signal_mentions(ast.parse(path.read_text(), str(path)))
        if found:
            mentions[path.name] = found
    assert mentions == {"transform.py": ["class GraphSignal"]}


def test_library_imports_numpy_click_and_the_standard_library_only():
    # scipy and sympy are installed for the tests alone; test_cli_import_loads_no_scipy
    # misses an import inside a function, so every import statement of the package is read
    allowed = set(sys.stdlib_module_names) | {"numpy", "click"}
    foreign = []
    for path in sorted(Path(dirlap.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # level > 0: dirlap's own
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name) for name in names if name.split(".")[0] not in allowed]
    assert foreign == []


def test_dimension_mismatch_is_raised_by_the_two_gates_only():
    # every length or shape refusal goes through graphs._square (matrices) or
    # graphs._vector_shape (transform._vector and DirectedGraph's arrays), so a hand-written
    # length check elsewhere cannot bring back a text of its own
    def raisers(node, module, function=None):
        """(module, enclosing function) of each ``DimensionMismatchError(...)`` below ``node``."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and ast.unparse(child.func).endswith("DimensionMismatchError"):
                yield module, function
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            yield from raisers(child, module, inner)

    found = set()
    for path in sorted(Path(dirlap.__file__).parent.glob("*.py")):
        found |= set(raisers(ast.parse(path.read_text(), str(path)), path.stem))
    assert found == {("graphs", "_square"), ("graphs", "_vector_shape")}


def test_readme_library_tour_runs():
    # the tour's code block is the first example a reader copies; the bool low-pass
    # response it once passed to apply_filter is refused by the gate
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(tour, "README.md", "exec"), {})
