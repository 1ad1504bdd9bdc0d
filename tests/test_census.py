"""Contract census over every labelled 4-vertex digraph with unit weights.

Each of the 12 possible arcs is present or not, so there are 4,096 graphs.
Every graph is decomposed once at unit weights and once with every weight
scaled by ``2**40`` and by ``2**-40``. The expected values come from exact
oracles in pure Python integers and fractions, never from the code under
test:

- the characteristic polynomial ``p`` of ``L``, by Faddeev–LeVerrier;
- its squarefree part ``p / gcd(p, p')``, which annihilates ``L`` exactly
  when ``L`` is diagonalizable, and has the degree of ``p`` exactly when the
  eigenvalues are distinct;
- the closed classes of the graph, by reachability.
"""
import functools
import itertools
import json
import operator
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from dirlap import (
    NearDefectiveError,
    asymmetry_index,
    decompose,
    henrici_departure,
    normality_departure,
)
from dirlap import fileio

N = 4
ARCS = [(i, j) for i in range(N) for j in range(N) if i != j]
SCALES = (2.0**40, 2.0**-40)


def adjacency(mask):
    """The 0/1 adjacency matrix of graph ``mask``, as lists of ints: bit ``b`` is ``ARCS[b]``."""
    a = [[0] * N for _ in range(N)]
    for bit, (i, j) in enumerate(ARCS):
        a[i][j] = mask >> bit & 1
    return a


def laplacian(a):
    return [[(sum(a[i]) if i == j else 0) - a[i][j] for j in range(N)] for i in range(N)]


def matmul(x, y):
    cols = list(zip(*y))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in x]


def char_poly(lap):
    """Coefficients of ``det(x I - L)``, lowest degree first (Faddeev–LeVerrier, exact)."""
    coeffs = [0] * N + [1]
    m = [[0] * N for _ in range(N)]
    for k in range(1, N + 1):
        m = matmul(lap, m)
        for i in range(N):
            m[i][i] += coeffs[N - k + 1]
        trace = sum(map(operator.mul, itertools.chain(*lap), itertools.chain(*zip(*m))))
        assert trace % k == 0
        coeffs[N - k] = -trace // k
    return coeffs


def trim(p):
    """``p`` without zero leading coefficients; the zero polynomial is ``[0]``."""
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def remainder(p, q):
    """``p mod q`` over the rationals, both lowest degree first."""
    p = [Fraction(c) for c in p]
    while len(p) >= len(q) and any(p):
        factor = p[-1] / q[-1]
        shift = len(p) - len(q)
        for i, c in enumerate(q):
            p[shift + i] -= factor * c
        p = trim(p[:-1]) if len(p) > 1 else p
    return trim(p)


def gcd(p, q):
    while any(q):
        p, q = q, remainder(p, q)
    return [Fraction(c) / p[-1] for c in p]  # monic


def quotient(p, q):
    """``p / q`` over the rationals, for a ``q`` that divides ``p``."""
    p, out = [Fraction(c) for c in p], [Fraction(0)] * (len(p) - len(q) + 1)
    for shift in range(len(out) - 1, -1, -1):
        out[shift] = p[shift + len(q) - 1] / q[-1]
        for i, c in enumerate(q):
            p[shift + i] -= out[shift] * c
    assert not any(p)
    return out


def evaluate(p, lap):
    """``p(L)`` by Horner's rule, exact."""
    out = [[0] * N for _ in range(N)]
    for c in reversed(p):
        out = matmul(out, lap)
        for i in range(N):
            out[i][i] += c
    return out


def reachability(a):
    """``reach[i][j]``: a path leads from ``i`` to ``j`` (every vertex reaches itself)."""
    reach = [[i == j or bool(a[i][j]) for j in range(N)] for i in range(N)]
    for m, i, j in itertools.product(range(N), repeat=3):
        reach[i][j] = reach[i][j] or (reach[i][m] and reach[m][j])
    return reach


def closed_classes(reach):
    """The number of strongly connected classes that no arc leaves."""
    # i lies in a closed class when every vertex it reaches reaches it back
    return len({frozenset(j for j in range(N) if reach[i][j]) for i in range(N)
                if all(reach[j][i] for j in range(N) if reach[i][j])})


@functools.cache
def squarefree_part(p):
    """``p / gcd(p, p')`` of a monic integer polynomial ``p``, lowest degree first."""
    derivative = trim([i * c for i, c in enumerate(p)][1:])
    squarefree = quotient(p, gcd(p, derivative))
    # monic, and a monic factor of a monic integer polynomial has integer coefficients
    assert all(c.denominator == 1 for c in squarefree)
    return [c.numerator for c in squarefree]


def oracle(mask):
    """``(diagonalizable, distinct eigenvalues, closed classes, strongly connected)``."""
    a = adjacency(mask)
    lap = laplacian(a)
    squarefree = squarefree_part(tuple(char_poly(lap)))
    diagonalizable = not any(any(row) for row in evaluate(squarefree, lap))
    reach = reachability(a)
    return (diagonalizable, len(squarefree) == N + 1, closed_classes(reach),
            all(map(all, reach)))


def values(lap, scale=1.0):
    """The decomposition of ``lap * scale`` and its contract values, or ``None`` if refused.

    Henrici's departure scales with the weights, so it is divided back by the
    power of two ``scale``, exactly; the other values do not depend on it.
    """
    try:
        dec = decompose(lap * scale)
    except NearDefectiveError:
        return None
    return dec, {
        "zero_multiplicity": dec.zero_multiplicity,
        "dc_isolated": dec.dc_isolated,
        "alpha": asymmetry_index(dec.matrix),
        "delta": normality_departure(dec.matrix),
        "kappa": dec.kappa,
        "henrici": henrici_departure(dec) / scale,
    }


class Graph(NamedTuple):
    mask: int
    lap: np.ndarray
    diagonalizable: bool
    distinct: bool
    closed_classes: int
    strongly_connected: bool
    got: tuple | None            # values(lap)
    scaled: list[tuple | None]   # values(lap, scale) for each of SCALES


@functools.cache
def census() -> list[Graph]:
    rows = []
    for mask in range(2 ** len(ARCS)):
        lap = np.array(laplacian(adjacency(mask)), dtype=np.float64)
        rows.append(Graph(mask, lap, *oracle(mask), values(lap), [values(lap, s) for s in SCALES]))
    return rows


def accepted() -> list[Graph]:
    return [g for g in census() if g.got is not None]


def test_oracle_counts():
    # the diagonalizable Laplacians among the 4,096, found by the exact oracle alone
    assert sum(g.diagonalizable for g in census()) == 2812


def test_every_diagonalizable_laplacian_is_accepted():
    assert [g.mask for g in census() if g.got is None and g.diagonalizable] == []


def test_every_refused_laplacian_is_defective():
    # 509 defective Laplacians are accepted too; only the refusals are pinned here
    refused = [g for g in census() if g.got is None]
    assert len(refused) == 775
    assert [g.mask for g in refused if g.diagonalizable] == []


def test_henrici_reads_zero_exactly_on_normal_laplacians():
    # an accepted normal L reads exactly 0, however its two sums round, and an accepted
    # non-normal L reads above 0 (the smallest at 0.154 ||L||_F, far above the floor)
    counts = {"normal": 0, "non-normal": 0}
    for g in accepted():
        normal = np.array_equal(g.lap @ g.lap.T, g.lap.T @ g.lap)  # exact on small integers
        assert (g.got[1]["henrici"] == 0.0) == normal, g.mask
        counts["normal" if normal else "non-normal"] += 1
    assert counts == {"normal": 92, "non-normal": 3229}


def test_dc_contract():
    for g in accepted():
        assert g.got[1]["zero_multiplicity"] == g.closed_classes, g.mask
        assert g.got[1]["dc_isolated"] or not g.strongly_connected, g.mask


def test_metrics_are_strict_json():
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    for g in accepted():
        text = fileio._json_text(fileio._metrics_payload(g.got[0], None))
        assert json.loads(text, parse_constant=refuse)["n"] == N, g.mask


@pytest.mark.parametrize("names, where", [
    (("zero_multiplicity", "dc_isolated", "alpha", "delta"), "every graph"),
    (("kappa", "henrici"), "distinct eigenvalues"),
])
def test_scaling_the_weights_keeps_every_bit(names, where):
    # kappa and Henrici read the basis LAPACK picks inside a repeated eigenspace, which
    # may move with the scale; with distinct eigenvalues they may not
    moved = []
    for g in accepted():
        if where == "distinct eigenvalues" and not g.distinct:
            continue
        for scale, other in zip(SCALES, g.scaled):
            assert other is not None, (g.mask, scale)
            moved += [(g.mask, scale, name) for name in names if other[1][name] != g.got[1][name]]
    assert moved == []
