"""Directed graphs, the combinatorial directed Laplacian, and matrix indices.

The central operator is ``L = D_out - A`` where ``A[i, j]`` is the weight of
the edge ``i -> j`` and ``D_out`` is the diagonal of row sums (out-degrees).
With this row convention every row of ``L`` sums to zero, so the constant
vector is always in the null space and acts as the DC mode of the spectral
analysis built on top.

A graph is three parallel arrays ``src``, ``dst`` and ``weight``, validated
in numpy; ``A`` is those weighted arcs scattered into a dense matrix. One
gate checks every matrix, :func:`_square`, and one every scalar parameter,
:func:`_scalar`.

Two scalar indices separate plain asymmetry from non-normality:

- ``asymmetry_index``:  alpha(M) = ||M - M^T||_F / ||M||_F
- ``normality_departure``:  delta(M) = ||M M* - M* M||_F / ||M||_F^2

A directed cycle has alpha = 1 but delta = 0 (asymmetric yet normal); adding
random edges drives delta > 0 and degrades eigenvector conditioning. Both
are computed on ``M`` divided by a power of two near its largest entry, so
they are scale invariant and finite at every finite scale.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError

#: largest vertex count a graph may have: every operator is a dense n x n matrix
MAX_VERTICES = 10_000
#: uniform variates drawn at once by gen_perturbed_cycle: bounds its memory at every n
_DRAW_BLOCK = 2**16


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Weighted directed graph on vertices ``0 .. n-1``.

    The ``k``-th edge runs ``src[k] -> dst[k]`` with weight ``weight[k]``;
    the three arrays are stored as read-only int64, int64 and float64 copies.
    ``n`` is at most ``MAX_VERTICES``, checked before anything of size ``n``
    is allocated.

    Self-loops are rejected: a loop adds the same amount to the out-degree
    and the adjacency, so it cancels in the Laplacian while still inflating
    every Frobenius-norm based index. Duplicate ``(src, dst)`` pairs are
    rejected as well (no multigraphs): one sort of the int64 keys
    ``src * n + dst`` finds them, and the error names the lexicographically
    first.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        n = _scalar(self.n, numbers.Integral, "vertex count", 1, MAX_VERTICES)
        try:
            src = np.array(self.src, dtype=np.int64)
            dst = np.array(self.dst, dtype=np.int64)
        except OverflowError as exc:
            raise ValueError(f"vertex index out of range for n={n}: {exc}") from exc
        weight = np.array(self.weight, dtype=np.float64)
        if not (src.ndim == dst.ndim == weight.ndim == 1 and src.size == dst.size == weight.size):
            raise ValueError(
                "src, dst and weight must be 1-D arrays of equal length, got shapes "
                f"{src.shape}, {dst.shape}, {weight.shape}"
            )
        bad = np.flatnonzero((src < 0) | (src >= n) | (dst < 0) | (dst >= n))
        if bad.size:
            k = bad[0]
            raise ValueError(f"edge ({src[k]}, {dst[k]}) out of range for n={n}")
        bad = np.flatnonzero(src == dst)
        if bad.size:
            raise ValueError(f"self-loop at vertex {src[bad[0]]} rejected")
        bad = np.flatnonzero(~(np.isfinite(weight) & (weight > 0.0)))
        if bad.size:
            k = bad[0]
            raise ValueError(
                f"edge ({src[k]}, {dst[k]}) needs a finite positive weight, got {weight[k]}"
            )
        # one int64 key per arc, below n**2 <= MAX_VERTICES**2; sorted keys are the arcs in
        # lexicographic order, so the first repeated key is the first duplicate pair
        key = np.sort(src * n + dst)
        bad = np.flatnonzero(key[1:] == key[:-1])
        if bad.size:
            s, d = divmod(key[bad[0]], n)
            raise ValueError(f"duplicate edge ({s}, {d})")
        for name, arr in (("src", src), ("dst", dst), ("weight", weight)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "n", n)

    @property
    def edge_count(self) -> int:
        return int(self.src.size)


def adjacency(g: DirectedGraph) -> np.ndarray:
    """Dense adjacency matrix: ``A[i, j] = w(i, j)``, rows index sources."""
    a = np.zeros((g.n, g.n))
    a[g.src, g.dst] = g.weight
    return a


def directed_laplacian(g: DirectedGraph) -> np.ndarray:
    """Combinatorial directed Laplacian ``L = D_out - A`` (zero row sums).

    Raises:
        NonFiniteError: an out-degree, a sum of finite weights, overflows float64.
    """
    a = adjacency(g)
    with np.errstate(over="ignore"):
        degree = a.sum(axis=1)
    bad = np.flatnonzero(np.isinf(degree))
    if bad.size:
        raise NonFiniteError(f"out-degree of vertex {bad[0]} overflows float64; "
                             "scale the weights down")
    return np.diag(degree) - a


def _is_a(value, kind) -> bool:
    """Whether ``value`` is a ``kind`` of number; a bool is never a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _scalar(value, kind, what: str, lo, hi):
    """``value`` as a Python int or finite float in ``[lo, hi]``, else ValueError naming ``what``.

    The one gate of every scalar parameter: ``kind`` is ``numbers.Integral``
    or ``numbers.Real``, and an integer beyond float64 is no finite real.
    """
    if not _is_a(value, kind):
        article = "an integer" if kind is numbers.Integral else "a real number"
        raise ValueError(f"{what} must be {article}, got {value!r}")
    if kind is numbers.Integral:
        value = int(value)
    else:
        try:
            number = float(value)
        except OverflowError:  # an integer beyond float64
            number = math.inf
        if not math.isfinite(number):
            raise ValueError(f"{what} must be finite, got {value}")
        value = number
    if not lo <= value <= hi:
        raise ValueError(f"{what} must lie in [{lo}, {hi}], got {value}")
    return value


#: the _scalar arguments of gen_perturbed_cycle's parameters, in order; ExperimentConfig shares them
_PARAMETERS = {"n": (numbers.Integral, "n", 2, MAX_VERTICES), "p": (numbers.Real, "p", 0, 1),
               "w": (numbers.Real, "w", math.ulp(0.0), math.inf),
               "seed": (numbers.Integral, "seed", 0, math.inf)}


def _square(m, real: bool = False) -> np.ndarray:
    """``m`` as an array, refused unless it is a non-empty square matrix of finite numbers.

    The one gate of ``decompose`` and both indices; ``real`` refuses complex
    entries too. The dtype is checked first, so ``np.isfinite`` sees numbers only.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if m.size == 0:
        raise DimensionMismatchError("expected a non-empty square matrix, got shape (0, 0)")
    if m.dtype.kind not in ("biuf" if real else "biufc"):
        raise ValueError("matrix entries must be real" if real else "matrix entries must be numbers")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def _unit_scale(m: np.ndarray) -> float:
    """The power of two ``s`` with ``s <= max|m_ij| < 2 s``, and 1 for a zero matrix.

    ``s`` is finite for every finite matrix, the top binade included, and
    dividing by it is exact, so an index computed on ``m / s`` equals the
    one computed on ``m`` wherever that one neither overflows nor
    underflows, and stays finite and accurate at every finite scale.
    """
    top = np.max(np.abs(m), initial=0.0)
    return float(np.ldexp(1.0, np.frexp(top)[1] - 1)) if top else 1.0


def asymmetry_index(m) -> float:
    """``||M - M^T||_F / ||M||_F``, with the zero matrix mapped to 0."""
    m = _square(m)
    m = m / _unit_scale(m)
    fro = np.linalg.norm(m, "fro")
    if fro == 0.0:
        return 0.0
    return float(np.linalg.norm(m - m.T, "fro") / fro)


def normality_departure(m) -> float:
    """Commutator size ``||M M* - M* M||_F / ||M||_F^2``; 0 iff M is normal."""
    m = _square(m)
    m = m / _unit_scale(m)
    fro2 = np.linalg.norm(m, "fro") ** 2
    if fro2 == 0.0:
        return 0.0
    mh = m.conj().T
    return float(np.linalg.norm(m @ mh - mh @ m, "fro") / fro2)


def gen_directed_cycle(n: int) -> DirectedGraph:
    """Unweighted directed cycle ``0 -> 1 -> ... -> n-1 -> 0`` (n >= 2)."""
    n = _scalar(n, *_PARAMETERS["n"])
    src = np.arange(n)
    return DirectedGraph(n, src, (src + 1) % n, np.ones(n))


def gen_perturbed_cycle(n: int, p: float, w: float, seed: int) -> DirectedGraph:
    """Directed cycle plus random extra edges of weight ``w``.

    Every ordered pair ``(i, j)`` that is neither a self-loop nor a cycle
    edge receives an edge independently with probability ``p``. One uniform
    variate per candidate pair is drawn from a PCG64 generator, pairs in
    lexicographic order, so the result is a pure function of
    ``(n, p, w, seed)``. The cycle edges come first and keep weight exactly
    1.0; the extra edges follow in lexicographic order.

    Row ``i`` has ``n - 2`` candidates, so candidate ``c`` is the ``r``-th
    of row ``i = c // (n - 2)``. The variates are drawn ``_DRAW_BLOCK`` at a
    time, the same stream as one call (each double takes one 64-bit word),
    and only the indices of the hits are kept: time is linear in the
    ``n (n - 2)`` draws, and memory in the edges plus one block, with no
    ``n x n`` array.

    Raises:
        ValueError: a parameter outside its ``_PARAMETERS`` range, named in the error.
    """
    n, p, w, seed = (_scalar(value, *spec)
                     for value, spec in zip((n, p, w, seed), _PARAMETERS.values()))
    rng = np.random.default_rng(seed)
    per_row = n - 2
    total = n * per_row
    hits = [np.flatnonzero(rng.random(min(_DRAW_BLOCK, total - start)) < p) + start
            for start in range(0, total, _DRAW_BLOCK)]
    extra_src, r = np.divmod(np.concatenate([np.empty(0, np.int64), *hits]), per_row)
    # row i < n - 1 skips columns i and i + 1; row n - 1 skips columns 0 and n - 1
    extra_dst = np.where(extra_src == n - 1, r + 1, np.where(r < extra_src, r, r + 2))
    return DirectedGraph(
        n,
        np.concatenate([np.arange(n), extra_src]),
        np.concatenate([(np.arange(n) + 1) % n, extra_dst]),
        np.concatenate([np.ones(n), np.full(extra_src.size, w)]),
    )
