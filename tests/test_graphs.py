import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirlap import (
    DimensionMismatchError,
    DirectedGraph,
    NonFiniteError,
    adjacency,
    asymmetry_index,
    decompose,
    directed_laplacian,
    gen_directed_cycle,
    gen_perturbed_cycle,
    normality_departure,
)
from dirlap import graphs
from dirlap.graphs import MAX_VERTICES


def same_graph(a, b):
    return a.n == b.n and all(
        np.array_equal(getattr(a, f), getattr(b, f)) for f in ("src", "dst", "weight")
    )


class TestDirectedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop at vertex 1 rejected"):
            DirectedGraph(3, [0, 1], [1, 1], [1.0, 1.0])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
            DirectedGraph(3, [0, 1, 0], [1, 2, 1], [1.0, 1.0, 2.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"edge \(0, 2\) out of range for n=2"):
            DirectedGraph(2, [1, 0], [0, 2], [1.0, 1.0])

    @pytest.mark.parametrize("weight", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_weight(self, weight):
        with pytest.raises(ValueError, match=rf"edge \(0, 1\) needs .* got {weight}"):
            DirectedGraph(2, [0], [1], [weight])

    def test_rejects_bool_n(self):
        # a bool is no vertex count, as everywhere else in the library
        with pytest.raises(ValueError, match="^vertex count must be an integer, got True$"):
            DirectedGraph(True, [], [], [])

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            DirectedGraph(0, [], [], [])

    @pytest.mark.parametrize("n", [MAX_VERTICES + 1, 10**20])
    def test_rejects_more_than_max_vertices(self, n):
        with pytest.raises(ValueError, match=rf"^vertex count must lie in \[1, {MAX_VERTICES}\], got {n}$"):
            DirectedGraph(n, [0], [1], [1.0])

    def test_accepts_max_vertices(self):
        assert DirectedGraph(MAX_VERTICES, [0], [MAX_VERTICES - 1], [1.0]).n == MAX_VERTICES

    def test_rejects_unequal_lengths(self):
        with pytest.raises(DimensionMismatchError, match="^weight must have length 2, got 1$"):
            DirectedGraph(3, [0, 1], [1, 2], [1.0])

    @pytest.mark.parametrize(
        "src, dst, weight, text",
        [([0, 1], [1], [1.0], "dst must have length 2, got 1"),
         ([0, 1], [1, 2, 0], [1.0, 1.0, 1.0], "dst must have length 2, got 3"),
         ([[0, 1]], [1, 2], [1.0, 1.0], r"src must be one-dimensional, got shape \(1, 2\)"),
         ([0, 1], [1, 2], 1.0, r"weight must be one-dimensional, got shape \(\)")],
        ids=["dst-first", "dst-longer", "src-2d", "weight-0d"],
    )
    def test_shape_refusal_names_the_first_array_that_differs(self, src, dst, weight, text):
        # the texts of transform._vector, the gate of every other input vector
        with pytest.raises(DimensionMismatchError, match=f"^{text}$"):
            DirectedGraph(3, src, dst, weight)

    @settings(max_examples=100, deadline=None)
    @given(
        arcs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(
            lambda arc: arc[0] != arc[1]), min_size=1, max_size=30, unique=True),
        repeats=st.lists(st.integers(0, 29), min_size=1, max_size=5),
        order=st.randoms(use_true_random=False),
    )
    def test_duplicate_refusal_names_the_first_repeated_pair(self, arcs, repeats, order):
        repeated = [arcs[k % len(arcs)] for k in repeats]
        shuffled = arcs + repeated
        order.shuffle(shuffled)
        src, dst = zip(*shuffled)
        first = min(repeated)
        with pytest.raises(ValueError, match=rf"^duplicate edge \({first[0]}, {first[1]}\)$"):
            DirectedGraph(12, src, dst, np.ones(len(shuffled)))

    def test_stores_read_only_copies(self):
        src = np.array([0, 1])
        g = DirectedGraph(3, src, [1, 2], [1, 2])
        assert (g.src.dtype, g.dst.dtype, g.weight.dtype) == (np.int64, np.int64, np.float64)
        assert src.flags.writeable and not g.src.flags.writeable
        with pytest.raises(ValueError):
            g.weight[0] = 5.0


class TestAdjacency:
    def test_single_edge(self):
        g = DirectedGraph(2, [0], [1], [1.0])
        assert np.array_equal(adjacency(g), [[0.0, 1.0], [0.0, 0.0]])

    def test_cycle_is_cyclic_shift(self):
        a = adjacency(gen_directed_cycle(4))
        shift = np.zeros((4, 4))
        shift[np.arange(4), (np.arange(4) + 1) % 4] = 1.0
        assert np.array_equal(a, shift)

    def test_empty_graph(self):
        assert np.array_equal(adjacency(DirectedGraph(3, [], [], [])), np.zeros((3, 3)))


class TestLaplacian:
    def test_cycle_is_identity_minus_shift(self):
        g = gen_directed_cycle(4)
        assert np.array_equal(directed_laplacian(g), np.eye(4) - adjacency(g))

    def test_single_weighted_edge(self):
        g = DirectedGraph(2, [0], [1], [2.0])
        assert np.array_equal(directed_laplacian(g), [[2.0, -2.0], [0.0, 0.0]])

    @pytest.mark.parametrize("seed", range(5))
    def test_row_sums_vanish(self, seed):
        lap = directed_laplacian(gen_perturbed_cycle(20, 0.2, 0.8, seed))
        assert np.max(np.abs(lap @ np.ones(20))) < 1e-12


    def test_out_degree_overflow_is_refused_by_vertex(self):
        # every weight is finite, vertex 1's out-degree 2 * 1.7e308 is not; no numpy warning
        g = DirectedGraph(3, [0, 1, 1, 2], [1, 0, 2, 0], [1.0, 1.7e308, 1.7e308, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="^out-degree of vertex 1 overflows float64"):
                directed_laplacian(g)


class TestAsymmetryIndex:
    def test_symmetric_matrix_is_zero(self, rng):
        m = rng.standard_normal((6, 6))
        assert asymmetry_index(m + m.T) == 0.0

    def test_zero_matrix_convention(self):
        assert asymmetry_index(np.zeros((4, 4))) == 0.0

    @pytest.mark.parametrize("n", [3, 7, 12])
    def test_unit_cycle_alpha_is_one(self, n):
        # closed form: ||L - L^T||_F = ||L||_F = sqrt(2n) for the unit cycle;
        # cross-checked by an entrywise Frobenius computation
        lap = directed_laplacian(gen_directed_cycle(n))
        brute = np.sqrt(sum((lap[i, j] - lap[j, i]) ** 2 for i in range(n) for j in range(n)))
        brute /= np.sqrt(sum(lap[i, j] ** 2 for i in range(n) for j in range(n)))
        val = asymmetry_index(lap)
        assert val == pytest.approx(brute, abs=1e-12)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            asymmetry_index(np.zeros((2, 3)))


class TestNormalityDeparture:
    @pytest.mark.parametrize("n", [3, 4, 9])
    def test_cycle_is_normal(self, n):
        lap = directed_laplacian(gen_directed_cycle(n))
        # independent commutator check: circulants commute with their adjoint
        comm = lap @ lap.conj().T - lap.conj().T @ lap
        assert np.linalg.norm(comm) == 0.0
        assert normality_departure(lap) == 0.0

    def test_symmetric_is_normal(self, rng):
        m = rng.standard_normal((5, 5))
        assert normality_departure(m + m.T) < 1e-15

    def test_perturbed_cycle_is_not_normal(self):
        lap = directed_laplacian(gen_perturbed_cycle(20, 0.2, 0.8, seed=7))
        assert normality_departure(lap) > 0.0

    def test_zero_matrix_convention(self):
        assert normality_departure(np.zeros((3, 3))) == 0.0


@pytest.mark.parametrize("index", [asymmetry_index, normality_departure])
def test_indices_reject_empty(index):
    with pytest.raises(DimensionMismatchError, match="non-empty square matrix"):
        index(np.zeros((0, 0)))


@pytest.mark.parametrize("index", [asymmetry_index, normality_departure])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_indices_reject_non_finite(index, bad):
    # decompose's gate: a refusal, not nan after numpy's invalid-value warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            index(np.array([[bad, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("index", [asymmetry_index, normality_departure])
def test_indices_take_complex_and_refuse_non_numeric(index):
    assert index(np.diag([1j, 2.0])) == 0.0  # symmetric and normal
    with pytest.raises(ValueError, match="^matrix entries must be numbers, got dtype <U1$"):
        index(np.array([["1", "0"], ["0", "1"]]))


#: inputs the array gates once converted, with the refusal that names the array: an index
#: was truncated or parsed, a weight or matrix entry read True as 1 and dropped an imaginary
#: part, and a uint64 index past int64 wrapped to a negative one
REFUSED_ARRAYS = {
    "fractional src": (lambda: DirectedGraph(3, [0.5], [1], [1.0]),
                       "src entries must be integers, got dtype float64"),
    "fractional dst array": (lambda: DirectedGraph(3, [0], np.array([0.9]), [1.0]),
                             "dst entries must be integers, got dtype float64"),
    "string src": (lambda: DirectedGraph(3, ["0"], [1], [1.0]),
                   "src entries must be integers, got dtype <U1"),
    "bool dst": (lambda: DirectedGraph(3, [0], [True], [1.0]),
                 "dst entries must be integers, got dtype bool"),
    "uint64 src": (lambda: DirectedGraph(3, np.array([2**63], dtype=np.uint64), [1], [1.0]),
                   f"edge ({2**63}, 1) out of range for n=3"),
    "string weight": (lambda: DirectedGraph(3, [0], [1], ["1"]),
                      "weight entries must be real numbers, got dtype <U1"),
    "bool weight": (lambda: DirectedGraph(3, [0], [1], [True]),
                    "weight entries must be real numbers, got dtype bool"),
    "complex weight": (lambda: DirectedGraph(3, [0], [1], [1 + 0j]),
                       "weight entries must be real numbers, got dtype complex128"),
    "bool matrix index": (lambda: asymmetry_index(np.eye(2, dtype=bool)),
                          "matrix entries must be numbers, got dtype bool"),
    "bool matrix decompose": (lambda: decompose(np.eye(2, dtype=bool)),
                              "matrix entries must be real numbers, got dtype bool"),
}


@pytest.mark.parametrize("case", list(REFUSED_ARRAYS))
def test_array_gates_refuse_what_the_scalar_gate_refuses(case):
    call, refusal = REFUSED_ARRAYS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            call()


class TestGershgorin:
    @pytest.mark.parametrize("seed", range(4))
    def test_eigenvalues_inside_disk_union(self, seed):
        lap = directed_laplacian(gen_perturbed_cycle(15, 0.25, 0.8, seed))
        centers = np.diag(lap)
        radii = np.abs(lap).sum(axis=1) - np.abs(centers)
        for lam in np.linalg.eigvals(lap):
            assert np.any(np.abs(lam - centers) <= radii + 1e-8)
            assert lam.real >= -1e-10


class TestGenerators:
    def test_cycle_n3(self):
        g = gen_directed_cycle(3)
        assert np.array_equal(g.src, [0, 1, 2])
        assert np.array_equal(g.dst, [1, 2, 0])
        assert np.array_equal(g.weight, [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("n", [MAX_VERTICES + 1, 10**20])
    def test_generators_reject_more_than_max_vertices(self, n):
        # checked before any array of size n is allocated
        for make in (gen_directed_cycle, lambda n: gen_perturbed_cycle(n, 0.2, 0.8, 0)):
            with pytest.raises(ValueError, match=rf"^n must lie in \[2, {MAX_VERTICES}\], got {n}$"):
                make(n)

    def test_cycle_n2_symmetric_laplacian(self):
        lap = directed_laplacian(gen_directed_cycle(2))
        assert np.array_equal(lap, lap.T)

    def test_cycle_rejects_n1(self):
        with pytest.raises(ValueError):
            gen_directed_cycle(1)

    def test_perturbed_p0_is_plain_cycle(self):
        assert same_graph(gen_perturbed_cycle(9, 0.0, 0.8, seed=3), gen_directed_cycle(9))

    def test_perturbed_deterministic(self):
        a = gen_perturbed_cycle(20, 0.2, 0.8, seed=42)
        b = gen_perturbed_cycle(20, 0.2, 0.8, seed=42)
        assert same_graph(a, b)

    def test_perturbed_seed_changes_edges(self):
        a = gen_perturbed_cycle(20, 0.2, 0.8, seed=0)
        b = gen_perturbed_cycle(20, 0.2, 0.8, seed=1)
        assert not same_graph(a, b)

    def test_perturbed_keeps_cycle_weights(self):
        g = gen_perturbed_cycle(12, 1.0, 0.8, seed=0)
        cycle = np.arange(12)
        assert np.array_equal(adjacency(g)[cycle, (cycle + 1) % 12], np.ones(12))
        # p=1 adds every candidate pair
        assert g.edge_count == 12 * 11

    @pytest.mark.parametrize(
        "n, p, seed", [(2, 0.5, 0), (3, 1.0, 1), (7, 0.3, 2), (20, 0.2, 7), (33, 0.05, 9)]
    )
    def test_perturbed_matches_pair_loop(self, n, p, seed):
        # reference: one scalar draw per candidate pair, pairs in lexicographic order
        rng = np.random.default_rng(seed)
        src, dst = list(range(n)), [(i + 1) % n for i in range(n)]
        for i in range(n):
            for j in range(n):
                if j != i and j != (i + 1) % n and rng.random() < p:
                    src.append(i)
                    dst.append(j)
        weight = [1.0] * n + [0.8] * (len(src) - n)
        expected = DirectedGraph(n, src, dst, weight)
        assert same_graph(gen_perturbed_cycle(n, p, 0.8, seed), expected)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 60),
        p=st.sampled_from([0.0, 0.2, 1.0]),
        seed=st.integers(0, 2**32),
        block=st.sampled_from([1, 2, 7, 57, 58, 59, 2**16]),
    )
    def test_perturbed_matches_mask_construction(self, n, p, seed, block):
        # reference: one n x n candidate mask filled by a single draw; the blocks of the
        # generator split rows (n - 2 candidates each) at every place
        candidate = np.ones((n, n), dtype=bool)
        cycle = np.arange(n)
        candidate[cycle, cycle] = False
        candidate[cycle, (cycle + 1) % n] = False
        hit = candidate.copy()
        hit[candidate] = np.random.default_rng(seed).random(int(candidate.sum())) < p
        extra_src, extra_dst = np.nonzero(hit)
        expected = DirectedGraph(n, np.concatenate([cycle, extra_src]),
                                 np.concatenate([(cycle + 1) % n, extra_dst]),
                                 np.concatenate([np.ones(n), np.full(extra_src.size, 0.8)]))
        with mock.patch.object(graphs, "_DRAW_BLOCK", block):
            assert same_graph(gen_perturbed_cycle(n, p, 0.8, seed), expected)

    def test_perturbed_memory_is_linear_in_edges(self):
        # about 40,000 edges at n = 2000; an n x n mask alone would be 4 MB, its draws 32 MB
        tracemalloc.start()
        try:
            g = gen_perturbed_cycle(2000, 0.01, 0.8, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 2000 < g.edge_count < 2000 + 0.02 * 2000 * 1998
        assert peak < 8 * 2**20

    def test_perturbed_validates_params(self):
        with pytest.raises(ValueError):
            gen_perturbed_cycle(5, 1.5, 0.8, seed=0)
        with pytest.raises(ValueError):
            gen_perturbed_cycle(5, 0.2, 0.0, seed=0)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=16),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_generated_laplacian_invariants(n, p, seed):
    lap = directed_laplacian(gen_perturbed_cycle(n, p, 0.8, seed))
    assert np.max(np.abs(lap @ np.ones(n))) < 1e-12
    assert 0.0 <= asymmetry_index(lap) <= np.sqrt(2.0) + 1e-12
    assert normality_departure(lap) >= 0.0
